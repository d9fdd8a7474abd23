"""MAD optimization configuration flags.

Caching optimizations (Section 3.1) — reduce DRAM traffic only:

* ``cache_o1``      — fuse chains of limb-wise sub-operations on a resident
  limb (Fig. 1: Rotate drops from 105+105 to 35+35 limb transfers).
* ``cache_beta``    — keep one limb of each raised digit resident so ModUp
  outputs are read once per PtMatVecMult instead of once per rotation.
* ``cache_alpha``   — keep a full digit resident so basis-change outputs are
  generated, NTT'd and written without a slot-wise round trip.
* ``limb_reorder``  — compute the to-be-dropped limbs first so the
  key-switch inner-product output streams straight into ModDown.

Algorithmic optimizations (Section 3.2) — reduce ops and traffic:

* ``mod_down_merge`` — Fig. 4: single ModDown dividing by ``P * q_l`` in
  Mult (saves ``l`` per-coefficient products and a full NTT pass).
* ``mod_down_hoist`` — Fig. 5: one ModUp + one ModDown pair per
  PtMatVecMult regardless of matrix dimension (trades +25% key reads via a
  larger baby step).
* ``key_compression`` — regenerate the uniform half of each switching key
  from a PRNG seed: halves key-read traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.params import CkksParams
from repro.perf.cache import CacheModel


@dataclass(frozen=True)
class MADConfig:
    """Which MAD techniques are enabled."""

    cache_o1: bool = False
    cache_beta: bool = False
    cache_alpha: bool = False
    limb_reorder: bool = False
    mod_down_merge: bool = False
    mod_down_hoist: bool = False
    key_compression: bool = False

    def __post_init__(self) -> None:
        if self.limb_reorder and not self.cache_alpha:
            raise ValueError(
                "limb_reorder requires cache_alpha (it re-orders the "
                "in-cache basis-change computation)"
            )

    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "MADConfig":
        """The baseline: small cache, no MAD techniques."""
        return cls()

    @classmethod
    def caching_only(cls) -> "MADConfig":
        """All Section 3.1 optimizations, no algorithmic changes."""
        return cls(
            cache_o1=True, cache_beta=True, cache_alpha=True, limb_reorder=True
        )

    @classmethod
    def all(cls) -> "MADConfig":
        """Every MAD technique (the paper's final configuration)."""
        return cls(
            cache_o1=True,
            cache_beta=True,
            cache_alpha=True,
            limb_reorder=True,
            mod_down_merge=True,
            mod_down_hoist=True,
            key_compression=True,
        )

    def fitted(self, cache: CacheModel, params: CkksParams) -> "MADConfig":
        """These flags less every caching flag ``cache`` cannot hold at
        ``params`` (Section 3.1 thresholds).

        A flag that is off queries no threshold, so the
        ``perf.cache.*`` counters count only real decisions; the
        algorithmic flags pass unchanged.
        """
        return replace(
            self,
            cache_o1=self.cache_o1 and cache.fits_o1(params),
            cache_beta=self.cache_beta and cache.fits_beta(params),
            cache_alpha=self.cache_alpha and cache.fits_alpha(params),
            limb_reorder=self.limb_reorder and cache.fits_limb_reorder(params),
        )

    def with_(self, **changes) -> "MADConfig":
        """A copy with the given flags changed."""
        return replace(self, **changes)


#: Every named config a command line or bench spec can select: the
#: baseline, all caching optimizations, every MAD technique.
CONFIGS: Dict[str, MADConfig] = {
    "none": MADConfig.none(),
    "caching": MADConfig.caching_only(),
    "all": MADConfig.all(),
}

#: Figure 2 ladder: cumulative caching optimizations over the baseline.
CACHING_LADDER: List[Tuple[str, MADConfig]] = [
    ("Baseline", MADConfig.none()),
    ("1-limb Cache", MADConfig(cache_o1=True)),
    ("beta-limb Cache", MADConfig(cache_o1=True, cache_beta=True)),
    (
        "alpha-limb Cache",
        MADConfig(cache_o1=True, cache_beta=True, cache_alpha=True),
    ),
    ("Limb Re-order", MADConfig.caching_only()),
]

#: Figure 3 ladder: cumulative algorithmic optimizations on top of all
#: caching optimizations.
ALGORITHMIC_LADDER: List[Tuple[str, MADConfig]] = [
    ("Baseline (cached)", MADConfig.caching_only()),
    ("ModDown Merge", MADConfig.caching_only().with_(mod_down_merge=True)),
    (
        "ModDown Hoisting",
        MADConfig.caching_only().with_(mod_down_merge=True, mod_down_hoist=True),
    ),
    ("Key Compression", MADConfig.all()),
]
