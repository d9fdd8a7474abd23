"""Bit-exact vectorized replay of ``random.Random.randrange`` residue rows.

Uniform ring elements (the ``a`` half of public keys, ciphertexts and
switching keys) are defined as the rows
``[[rng.randrange(q) for _ in range(N)] for q in moduli]``.  That
comprehension stays the reference; :func:`uniform_rows` must return the
identical matrix and leave ``rng`` in the identical state, so keys,
ciphertexts and every downstream output are the same whichever path ran.

CPython draws ``randrange(q)`` by rejection
(``Random._randbelow_with_getrandbits``): with ``k = q.bit_length()``
it takes the top ``k`` bits of the next 32-bit Mersenne-Twister word
and retries while that value is ``>= q``.  numpy's ``MT19937`` runs the
same generator, so loading the 624-word key and the position from
``rng.getstate()`` into it and applying the same shift and test to its
raw words replays the stream in bulk: row by row, in basis order, each
row taking the first ``N`` accepted words after the previous row's last
one.  Acceptance is ``q / 2**k``, at least one half.

Every value is an unsigned integer below ``2**32``; no float enters.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Sequence, Tuple

import numpy as np

__all__ = ["uniform_rows"]


def _mt_state(internal: Tuple[int, ...]) -> Dict[str, Any]:
    """numpy's ``MT19937.state`` for ``random.Random`` internal state.

    ``internal`` is the middle item of ``rng.getstate()``: the 624-word
    key followed by the position.  Tuples keep the setter cheap; it
    copies the key element by element.
    """
    return {
        "bit_generator": "MT19937",
        "state": {"key": internal[:-1], "pos": internal[-1]},
    }


def _words_for(count: int, q: int) -> int:
    """Raw words that yield ``count`` accepted draws below ``q``, with slack.

    The mean is ``count * 2**k / q``; the slack covers about three
    standard deviations of the rejection count, and a short window just
    costs one more pass.
    """
    return (count << q.bit_length()) // q + 4 * math.isqrt(count) + 16


def uniform_rows(
    rng: random.Random,
    moduli: Sequence[int],
    degree: int,
    advance: bool = True,
) -> np.ndarray:
    """``[[rng.randrange(q) for _ in range(degree)] for q in moduli]``
    as a fresh int64 ``(len(moduli), degree)`` matrix.

    Every modulus must lie in ``[2, 2**32)``.  With ``advance``, ``rng``
    ends where the comprehension leaves it, ``gauss_next`` included.  A
    caller that discards ``rng`` afterwards (a generator seeded for this
    one call) passes ``advance=False`` and skips that second pass over
    the stream.
    """
    version, internal, gauss_next = rng.getstate()
    bitgen = np.random.MT19937()
    bitgen.state = _mt_state(internal)
    moduli = [int(q) for q in moduli]
    budget = [_words_for(degree, q) for q in moduli]
    rows = np.empty((len(moduli), degree), dtype=np.int64)
    words = np.empty(0, dtype=np.uint64)
    start = drawn = 0
    for i, q in enumerate(moduli):
        shift = 32 - q.bit_length()
        filled = 0
        while filled < degree:
            missing = degree - filled
            span = _words_for(missing, q)
            if start + span > words.size:
                fresh = bitgen.random_raw(span + sum(budget[i + 1 :]))
                drawn += fresh.size
                if start < words.size:
                    fresh = np.concatenate((words[start:], fresh))
                words, start = fresh, 0
            window = words[start : start + span] >> shift
            hits = np.flatnonzero(window < q)[:missing]
            rows[i, filled : filled + hits.size] = window[hits]
            filled += hits.size
            start += int(hits[-1]) + 1 if filled == degree else span
    if advance:
        # Rewind and skip exactly the consumed words, then hand the
        # position back; ``gauss_next`` is restored untouched.
        bitgen.state = _mt_state(internal)
        bitgen.random_raw(drawn - words.size + start, output=False)
        state = bitgen.state["state"]
        rng.setstate(
            (version, (*state["key"].tolist(), int(state["pos"])), gauss_next)
        )
    return rows
