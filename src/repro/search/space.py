"""Enumeration of the bootstrappable, secure CKKS parameter space.

The security constraint prunes aggressively: the total modulus
``log2(PQ) = (L + alpha) * log_q`` must stay below the 128-bit Ring-LWE
bound for the ring degree, and the level budget must leave at least one
usable limb after bootstrapping.  This is why the paper's brute-force
search "takes only a few minutes".
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

from repro.params import CkksParams


def enumerate_parameter_space(
    log_n: int = 17,
    log_q_choices: Sequence[int] = tuple(range(40, 61, 2)),
    max_limbs_choices: Sequence[int] = tuple(range(24, 46)),
    dnum_choices: Sequence[int] = (1, 2, 3, 4, 5, 6),
    fft_iter_choices: Sequence[int] = (2, 3, 4, 6, 8),
    min_log_q1: int = 400,
    require_security: bool = True,
) -> Iterator[CkksParams]:
    """Yield every admissible CKKS parameter set in the grid.

    The order is shape-major, ``L -> dnum -> fftIter -> log_q`` with
    ``log_q`` innermost.  ``log_q`` is not a
    :data:`~repro.perf.COST_SHAPE_FIELDS` field, so candidates that share
    a cost shape are adjacent.  Neither the search ranking
    (:func:`repro.search.optimizer.ranking_key` is total) nor the sweep's
    memo misses (one memo serves the whole run) depend on this order.

    Args:
        log_n: ring degree exponent.
        log_q_choices: candidate limb modulus sizes (bits).
        max_limbs_choices: candidate ``L`` values.
        dnum_choices: candidate key-switching digit counts.
        fft_iter_choices: candidate DFT iteration counts.
        min_log_q1: minimum post-bootstrap modulus (a bootstrap that leaves
            no levels is useless; the paper's designs all keep >= 400 bits).
        require_security: enforce the 128-bit Ring-LWE bound.
    """
    # A rejection that follows from one already seen skips the candidate
    # unbuilt: the level budget depends on neither log_q nor dnum; log Q1
    # grows with log_q; and log PQ, which the security bound caps, grows
    # with log_q and does not depend on fftIter.
    unbootstrappable = set()  # (L, fftIter)
    short_up_to: Dict[Tuple[int, int], int] = {}  # (L, fftIter) -> log_q
    insecure_from: Dict[Tuple[int, int], int] = {}  # (L, dnum) -> log_q
    for max_limbs in max_limbs_choices:
        for dnum in dnum_choices:
            if dnum > max_limbs + 1:
                continue
            for fft_iter in fft_iter_choices:
                depth, width = (max_limbs, fft_iter), (max_limbs, dnum)
                if depth in unbootstrappable:
                    continue
                for log_q in log_q_choices:
                    if depth in short_up_to and log_q <= short_up_to[depth]:
                        continue
                    if width in insecure_from and log_q >= insecure_from[width]:
                        continue
                    try:
                        params = CkksParams(
                            log_n=log_n,
                            log_q=log_q,
                            max_limbs=max_limbs,
                            dnum=dnum,
                            fft_iter=fft_iter,
                        )
                    except ValueError:
                        continue
                    if not params.supports_bootstrapping():
                        unbootstrappable.add(depth)
                        break
                    if params.log_q1 < min_log_q1:
                        short_up_to[depth] = log_q
                        continue
                    if require_security and not params.is_128_bit_secure():
                        insecure_from[width] = log_q
                        continue
                    yield params
