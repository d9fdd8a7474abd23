"""Parameter presets used throughout the paper's evaluation.

``BASELINE_JUNG`` is the GPU bootstrapping parameter set of Jung et al.
(TCHES 2021) that the paper uses as its baseline, and ``MAD_OPTIMAL`` is the
memory-aware optimum found by the SimFHE parameter search (both from
Table 5 of the paper).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.params.ckks import CkksParams

#: Baseline bootstrapping parameters (Jung et al. [20]); Table 5 row 1.
#: n = 2^16 slots means N = 2^17; 54-bit limbs; L = 35; dnum = 3; fftIter = 3.
BASELINE_JUNG = CkksParams(
    log_n=17,
    log_q=54,
    max_limbs=35,
    dnum=3,
    fft_iter=3,
)

#: Our memory-aware optimal parameters for a 32 MB on-chip memory;
#: Table 5 row 2: 50-bit limbs, L = 40, dnum = 2, fftIter = 6.
MAD_OPTIMAL = CkksParams(
    log_n=17,
    log_q=50,
    max_limbs=40,
    dnum=2,
    fft_iter=6,
)

#: Every named parameter set a command line or bench spec can select.
PARAM_SETS: Dict[str, CkksParams] = {
    "baseline": BASELINE_JUNG,
    "optimal": MAD_OPTIMAL,
}


def toy_params(
    log_n: int = 4,
    log_q: int = 40,
    max_limbs: int = 6,
    dnum: int = 3,
    fft_iter: int = 1,
    eval_mod_depth: int = 2,
    log_special: Optional[int] = None,
) -> CkksParams:
    """Small parameter set for the functional CKKS layer and unit tests.

    These parameters are *not* secure — they exist so the exact-arithmetic
    scheme runs in milliseconds while exercising the same algorithms the
    performance model counts.

    ``log_special`` sizes the special (``P``) primes; the default reuses
    ``log_q``, which makes ``P`` barely as large as the biggest key-switch
    digit.  Deep circuits at big rings should pass ``log_q + 1`` so the
    digit/overflow noise is shaved off by ModDown (see DESIGN.md §12).
    """
    return CkksParams(
        log_n=log_n,
        log_q=log_q,
        max_limbs=max_limbs,
        dnum=dnum,
        fft_iter=fft_iter,
        eval_mod_depth=eval_mod_depth,
        log_special=log_special,
    )
