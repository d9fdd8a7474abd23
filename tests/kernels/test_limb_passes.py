"""NumPy's ufunc buffer is scoped to the ring degree inside batch-level calls.

:func:`repro.kernels.limb_passes` sets the buffer to ``N`` for the
length of a call when ``16 <= N`` is below the caller's buffer, and
restores the caller's value on the way out.  Each batch-level entry
point runs here with one of its inner steps patched to record
``np.getbufsize()``: inside a call it is 2,048 at ``N = 2^11`` and the
caller's value at ``N = 2^13`` (NumPy's default buffer) and ``N = 8``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import kernels
from repro.ckks import CkksContext, KeyGenerator
from repro.kernels import BatchNttKernel, fourstep
from repro.numth import find_ntt_primes
from repro.params import toy_params
from repro.ring import Representation, RnsPolynomial, mod_down, mod_up
from repro.ring import polynomial

#: NumPy's default ufunc buffer, in elements.
DEFAULT_BUFFER = 8192


@pytest.fixture(autouse=True)
def caller_buffer():
    """Every test starts at NumPy's default buffer and leaves it there."""
    previous = np.setbufsize(DEFAULT_BUFFER)
    yield DEFAULT_BUFFER
    np.setbufsize(previous)


class _Stack:
    """A two-limb context at one degree, with the operands each entry needs."""

    def __init__(self, log_n):
        self.ctx = CkksContext(
            toy_params(log_n=log_n, log_q=29, max_limbs=2, dnum=2, log_special=30),
            seed=1,
        )
        self.keygen = KeyGenerator(self.ctx)
        self.key = self.keygen.rotation_key(1)
        rng = np.random.default_rng(log_n)
        self.basis = self.ctx.basis_at(2)
        self.raised = self.ctx.raised_basis(2)
        self.x, self.y = (self._poly(self.basis, rng) for _ in range(2))
        self.z = self._poly(self.raised, rng)
        used = len(self.ctx.digit_index_ranges(2))
        self.digits = [self._poly(self.raised, rng) for _ in range(used)]
        self.source = self.keygen.secret_key.poly(self.raised)

    @staticmethod
    def _poly(basis, rng):
        rows = np.stack([rng.integers(0, q, basis.degree) for q in basis.moduli])
        return RnsPolynomial(basis, rows, Representation.EVAL)


@pytest.fixture(scope="module", params=[11, 13, 3], ids=["N=2048", "N=8192", "N=8"])
def stack(request):
    return _Stack(request.param)


@pytest.fixture(scope="module")
def stack_n11():
    return _Stack(11)


#: name -> (object, attribute of an inner step, run the entry point).
ENTRIES = {
    "ntt": (fourstep, "data_split_product", lambda s: s.basis.transform(s.x.limbs)),
    "add": (kernels, "add_mod", lambda s: s.x + s.y),
    "lift": (
        kernels,
        "lift_mod",
        lambda s: RnsPolynomial.from_int_coeffs(
            np.arange(s.basis.degree) % 3 - 1, s.basis
        ),
    ),
    "crt": (polynomial, "_crt_two_limb", lambda s: s.x.to_int_coeffs()),
    "mul": (kernels, "mul_mod", lambda s: s.x * s.y),
    "mod_up": (
        kernels,
        "new_limbs_matrix",
        lambda s: mod_up(s.x, s.x.basis.extended(s.ctx.special_moduli)),
    ),
    "mod_down": (kernels, "sub_scale_mod", lambda s: mod_down(s.z, 1)),
    "inner_product": (
        kernels.MulAcc, "add", lambda s: s.key.inner_product(s.digits, 2, s.ctx)
    ),
    "switching_key": (
        CkksContext, "sample_error_coeffs", lambda s: s.keygen.switching_key(s.source)
    ),
}


def _recorder(monkeypatch, owner, name):
    """Patch ``owner.name`` to record ``np.getbufsize()`` on every call."""
    seen = []
    original = getattr(owner, name)

    def record(*args, **kwargs):
        seen.append(np.getbufsize())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return seen


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_buffer_is_one_row_inside_a_call(entry, stack, monkeypatch, caller_buffer):
    owner, name, run = ENTRIES[entry]
    seen = _recorder(monkeypatch, owner, name)
    run(stack)
    degree = stack.ctx.degree
    inside = degree if 16 <= degree < caller_buffer else caller_buffer
    assert seen and set(seen) == {inside}
    assert np.getbufsize() == caller_buffer


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_a_caller_buffer_below_the_degree_is_kept(entry, stack_n11, monkeypatch):
    owner, name, run = ENTRIES[entry]
    seen = _recorder(monkeypatch, owner, name)
    np.setbufsize(1024)
    run(stack_n11)
    assert set(seen) == {1024}
    assert np.getbufsize() == 1024


def test_a_call_that_raises_restores_the_buffer(caller_buffer):
    kernel = BatchNttKernel(2048, find_ntt_primes(30, 2048, 2))
    with pytest.raises(ValueError, match="residue matrix"):
        kernel.forward(np.zeros((3, 2048), dtype=np.int64))
    assert np.getbufsize() == caller_buffer


class TestScope:
    def test_nested_scopes_restore_the_outer_value(self, caller_buffer):
        with kernels.limb_passes(2048):
            assert np.getbufsize() == 2048
            with kernels.limb_passes(1024):
                assert np.getbufsize() == 1024
            with kernels.limb_passes(4096):
                assert np.getbufsize() == 2048
            assert np.getbufsize() == 2048
        assert np.getbufsize() == caller_buffer

    def test_an_exception_inside_restores_the_buffer(self, caller_buffer):
        with pytest.raises(KeyError):
            with kernels.limb_passes(32):
                assert np.getbufsize() == 32
                raise KeyError("inside")
        assert np.getbufsize() == caller_buffer

    @pytest.mark.parametrize("degree", [2, 8, DEFAULT_BUFFER, 1 << 16])
    def test_degrees_outside_the_range_leave_the_buffer(self, degree, caller_buffer):
        with kernels.limb_passes(degree):
            assert np.getbufsize() == caller_buffer
        assert np.getbufsize() == caller_buffer


def test_importing_the_stack_leaves_the_buffer():
    code = (
        "import numpy as np; np.setbufsize(4096); "
        "import repro, repro.kernels, repro.ring, repro.ckks, repro.cli; "
        "print(np.getbufsize())"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert out.stdout.strip() == "4096"
