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

A compressed switching key re-expands its rows from a seed at every
use, but a key switch at a low level reads only a few of them.
:func:`uniform_rows` can record where each row's words end in the
stream; :func:`replay_rows` then draws the words once, up to the last
row it needs, and filters only the needed rows' word ranges.

:func:`raw_words` is the same replay without the shift and test: the
next raw words of the stream, for the Gaussian replay in
:mod:`repro.ckks.sampling`, which turns them into floats outside this
float-free package.  Every value here is an unsigned integer below
``2**32``; no float enters.

All three move one module-wide ``MT19937`` to the generator's state:
building a new one seeds it from OS entropy, which costs more than a
short replay.  So no two of them may run concurrently in threads; the
repo's parallelism is process-based.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RowEndsError", "raw_words", "replay_rows", "uniform_rows"]

_BITGEN: Optional[np.random.MT19937] = None


class RowEndsError(ValueError):
    """Recorded row ends that do not cut a stream into rows of ``N`` draws."""


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


def _bit_generator(internal: Tuple[int, ...]) -> np.random.MT19937:
    """The module's ``MT19937``, moved to ``random.Random`` state ``internal``."""
    global _BITGEN
    if _BITGEN is None:
        _BITGEN = np.random.MT19937()
    _BITGEN.state = _mt_state(internal)
    return _BITGEN


def _hand_back(
    rng: random.Random,
    bitgen: np.random.MT19937,
    version: int,
    gauss_next: Optional[float],
) -> None:
    """Move ``rng`` to ``bitgen``'s position, keeping ``gauss_next``."""
    state = bitgen.state["state"]
    rng.setstate(
        (version, (*state["key"].tolist(), int(state["pos"])), gauss_next)
    )


def raw_words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit Mersenne-Twister words of ``rng``.

    Returned as a uint64 array, in stream order; ``rng`` ends exactly
    ``count`` words further on, its ``gauss_next`` untouched.
    """
    version, internal, gauss_next = rng.getstate()
    bitgen = _bit_generator(internal)
    words = bitgen.random_raw(count)
    _hand_back(rng, bitgen, version, gauss_next)
    return words


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
    ends: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``[[rng.randrange(q) for _ in range(degree)] for q in moduli]``
    as a fresh int64 ``(len(moduli), degree)`` matrix.

    Every modulus must lie in ``[2, 2**32)``.  With ``advance``, ``rng``
    ends where the comprehension leaves it, ``gauss_next`` included.  A
    caller that discards ``rng`` afterwards (a generator seeded for this
    one call) passes ``advance=False`` and skips that second pass over
    the stream.  ``ends``, an int64 array with one entry per modulus,
    receives the stream position one past each row's last word, counted
    in words from ``rng``'s position: what :func:`replay_rows` needs.
    """
    version, internal, gauss_next = rng.getstate()
    bitgen = _bit_generator(internal)
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
        if ends is not None:
            ends[i] = drawn - words.size + start
    if advance:
        # Rewind and skip exactly the consumed words, then hand the
        # position back; ``gauss_next`` is restored untouched.
        bitgen.state = _mt_state(internal)
        bitgen.random_raw(drawn - words.size + start, output=False)
        _hand_back(rng, bitgen, version, gauss_next)
    return rows


def replay_rows(
    rng: random.Random,
    moduli: Sequence[int],
    degree: int,
    spans: np.ndarray,
) -> np.ndarray:
    """Rows of :func:`uniform_rows` re-drawn from their word ranges only.

    ``spans[i]`` is the ``[start, end)`` range of the words row ``i``
    (modulo ``moduli[i]``) took in ``rng``'s stream, counted from
    ``rng``'s position: a row starts where the previous row of the
    stream ended (:func:`uniform_rows`'s ``ends``).  The rows may be any
    subset of the stream's, in stream order.  The stream is drawn once,
    up to the last end: the words between two selected ranges are
    skipped without being stored, and each range gets one shift,
    compare and compress.  Row by row keeps every temporary small; one
    gather of all the ranges allocated several stream-sized arrays,
    whose page faults made it slower.  ``rng`` is left where it was.

    Raises:
        RowEndsError: if the ranges overlap or run backwards, or one
            does not yield exactly ``degree`` accepted draws (ends
            recorded for another seed, other moduli or another degree).
    """
    bounds = np.asarray(spans, dtype=np.int64).reshape(len(moduli), 2).tolist()
    bitgen = _bit_generator(rng.getstate()[1])
    rows = np.empty((len(moduli), degree), dtype=np.int64)
    position = 0
    for i, (q, (start, end)) in enumerate(zip(moduli, bounds)):
        if start < position or end < start:
            raise RowEndsError(
                f"word ranges must follow each other in stream order: {bounds}"
            )
        if start > position:
            bitgen.random_raw(start - position, output=False)
        words = bitgen.random_raw(end - start) >> (32 - int(q).bit_length())
        row = words[words < q]
        if row.size != degree:
            raise RowEndsError(
                f"row {i} (modulus {q}): words [{start}, {end}) yield "
                f"{row.size} draws, not {degree}"
            )
        rows[i] = row
        position = end
    return rows
