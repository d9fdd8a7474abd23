"""SimFHE-style performance model for CKKS — the paper's core artifact.

The model counts, for every CKKS primitive and for full bootstrapping /
applications:

* **compute** — modular multiplications and additions (NTTs dominate), and
* **DRAM traffic** — bytes moved, per stream (ciphertext limb reads/writes,
  switching-key reads, plaintext reads), as a function of on-chip memory
  size and the enabled MAD optimizations.

The caching optimizations (Section 3.1) change traffic only; the
algorithmic optimizations (Section 3.2) change both op counts and traffic.
"""

from repro.perf.events import CostReport, MemTraffic, OpCount
from repro.perf.cache import CacheModel
from repro.perf.optimizations import (
    ALGORITHMIC_LADDER,
    CACHING_LADDER,
    CONFIGS,
    MADConfig,
)
from repro.perf.primitives import PrimitiveCosts
from repro.perf.matvec import pt_mat_vec_mult_cost
from repro.perf.bootstrap import (
    COST_SHAPE_FIELDS,
    BootstrapBreakdown,
    BootstrapModel,
    cost_shape,
)
from repro.perf.ledger import CostLedger

__all__ = [
    "CostLedger",
    "OpCount",
    "MemTraffic",
    "CostReport",
    "CacheModel",
    "MADConfig",
    "CONFIGS",
    "CACHING_LADDER",
    "ALGORITHMIC_LADDER",
    "PrimitiveCosts",
    "pt_mat_vec_mult_cost",
    "BootstrapModel",
    "BootstrapBreakdown",
    "COST_SHAPE_FIELDS",
    "cost_shape",
]
