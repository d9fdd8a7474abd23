"""A key switch's working set: one raised digit at a time.

MAD's caching analysis (Section 3.1) keeps a key switch's raised digits
resident only where something reuses them: hoisted rotations reuse all
``beta`` of them, and a switch that nothing reuses needs one at a time.
Each test reads the tracemalloc peak of one call above what was live
before it, and bounds it by

* the call's output;
* the two raised accumulators of the inner product;
* one raised digit and one re-expanded ``a`` block (the compressed key's
  uniform half, regenerated at every use);
* a slack: the larger transient of one ModUp of a digit or one ModDown
  of a raised polynomial of this shape, each measured alone on the
  active path (the reference path's Python-int rows make it larger
  there, and it does not grow with the digit count);
* for the hoisted call, the ``beta`` held digits and every rotation's
  output.

A switch that held all three raised digits at once, or a concatenated
and a reordered copy of each, would exceed the bound by about two
digits.  The peak of a single switch sits in its ModDown pair, so the
bound cannot tell one live digit from two; weak references to each
raised digit count those directly.  The ring is ``N = 2^10`` with 12
limbs and ``dnum = 3``: three digits of 5, 5 and 2 limbs, raised to 17
rows.
"""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.ckks import CkksContext, Encryptor, Evaluator, KeyGenerator
from repro.params.presets import toy_params
from repro.ring import mod_down

STEPS = (1, 2, 3)


def _peak(call) -> int:
    """Bytes ``call()`` holds at its peak above what was live before it.

    A first, untraced call fills every cache (NTT tables, permutations,
    the product scratch), so the traced call allocates only its own
    working set.
    """
    call()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def env():
    ctx = CkksContext(
        toy_params(log_n=10, log_q=29, max_limbs=12, dnum=3, log_special=30),
        seed=1,
    )
    keygen = KeyGenerator(ctx)
    evaluator = Evaluator(
        ctx,
        relin_key=keygen.relinearization_key(),
        rotation_keys={s: keygen.rotation_key(s) for s in STEPS},
    )
    encryptor = Encryptor(ctx, secret_key=keygen.secret_key)
    rng = np.random.default_rng(0)
    cts = [encryptor.encrypt_values(rng.normal(size=ctx.slots)) for _ in range(2)]
    return ctx, evaluator, cts


@pytest.fixture(scope="module")
def sizes(env):
    """Bytes of one ciphertext, one raised polynomial, and the slack."""
    ctx, evaluator, (ct, _) = env
    limbs = ct.num_limbs
    row = ctx.degree * np.dtype(np.int64).itemsize
    raised = len(ctx.raised_basis(limbs)) * row
    digits = evaluator.decompose(ct.c1)
    assert len(digits) == 3
    target = ctx.raised_basis(limbs)
    up = max(
        _peak(lambda d=d: evaluator.raise_digit(d, target)) for d in digits
    ) - raised
    polynomial = evaluator.raise_digit(digits[0], target)
    down = _peak(
        lambda: mod_down(polynomial, len(ctx.special_moduli))
    ) - limbs * row
    return 2 * limbs * row, raised, max(up, down, 0)


def _bound(sizes, outputs: int = 1, held: int = 0) -> int:
    ciphertext, raised, slack = sizes
    # Outputs, two accumulators, one digit, one a block, the slack.
    return outputs * ciphertext + (4 + held) * raised + slack


def test_rotate_holds_one_raised_digit(env, sizes):
    _, evaluator, (ct, _) = env
    assert _peak(lambda: evaluator.rotate(ct, 1)) <= _bound(sizes)


def test_mult_holds_one_raised_digit(env, sizes):
    _, evaluator, (ct1, ct2) = env
    assert _peak(lambda: evaluator.mult(ct1, ct2)) <= _bound(sizes)


def test_hoisted_rotations_hold_their_digits_and_one_rotated_copy(env, sizes):
    _, evaluator, (ct, _) = env
    peak = _peak(lambda: evaluator.rotations_hoisted(ct, list(STEPS)))
    assert peak <= _bound(sizes, outputs=len(STEPS), held=3)


def _most_raised_alive(monkeypatch, call) -> int:
    """The most raised digits alive at once while ``call()`` runs."""
    alive = most = 0
    raise_digit = Evaluator.raise_digit

    def dropped():
        nonlocal alive
        alive -= 1

    def counted(self, digit, target):
        nonlocal alive, most
        raised = raise_digit(self, digit, target)
        alive += 1
        most = max(most, alive)
        weakref.finalize(raised.limbs, dropped)
        return raised

    monkeypatch.setattr(Evaluator, "raise_digit", counted)
    call()
    return most


@pytest.mark.parametrize("op", ["rotate", "mult", "unrescaled mult"])
def test_a_single_switch_drops_each_raised_digit_before_the_next(
    env, monkeypatch, op
):
    _, evaluator, (ct1, ct2) = env
    calls = {
        "rotate": lambda: evaluator.rotate(ct1, 1),
        "mult": lambda: evaluator.mult(ct1, ct2),
        "unrescaled mult": lambda: evaluator.mult(ct1, ct2, rescale=False),
    }
    assert _most_raised_alive(monkeypatch, calls[op]) == 1


def test_hoisted_rotations_hold_every_digit(env, monkeypatch):
    _, evaluator, (ct, _) = env
    steps = list(STEPS)
    most = _most_raised_alive(
        monkeypatch, lambda: evaluator.rotations_hoisted(ct, steps)
    )
    assert most == 3
