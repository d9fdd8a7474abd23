"""Vectorized int64 compute kernels for the functional RNS-CKKS layer.

This package is the *fast path* of the exact-arithmetic stack: batched
negacyclic NTTs, RNS basis conversion and uniform residue sampling on
contiguous int64 numpy arrays, for NTT-friendly limb moduli below
``2**30``.  The two matrix-shaped kernels run as exact
matrix products: the NTT as a four-step transform on float64 BLAS
(:mod:`repro.kernels.fourstep`, the package's only float module, whose
docstring proves every partial sum an integer below ``2**53``) over
tables kept once per ``(N, q)``, and the paper's Eq. 1 basis conversion
as an unsigned 64-bit product in blocks of 16 source limbs.  The
pure-Python loops they replace remain the
*differential oracle*, and the kernels are required to be bit-exact
against them (the same contract :mod:`repro.memsim` holds against
:mod:`repro.perf`):

* the object-integer NTT and basis conversion of :mod:`repro.numth` and
  :mod:`repro.ring`;
* the ``np.remainder`` sums and differences of
  :class:`repro.ring.RnsPolynomial` (:func:`add_mod`, :func:`sub_mod`),
  its ``np.remainder`` lift of small integer vectors (:func:`lift_mod`),
  and its eagerly reduced sums of products
  (:class:`MulAcc`, behind :class:`repro.ring.ProductSum` and the
  switching-key inner product);
* the Python-int weighted sum of
  :meth:`repro.ring.RnsPolynomial.to_int_coeffs`;
* the per-draw ``random.Random`` loops of :class:`repro.ckks.CkksContext`
  (``randrange`` rows, also re-drawn in part by :func:`replay_rows`,
  ``choice`` ternaries, rounded ``gauss`` errors, the last replayed by
  :mod:`repro.ckks.sampling` on :func:`raw_words`);
* the per-coefficient ``round`` of :meth:`repro.ckks.Encoder.encode`.

Callers fall back to the oracle whenever an input is out of the fast
path's range or the fast path is disabled.  Batch-level callers run
their per-limb passes inside :func:`limb_passes`, which scopes NumPy's
ufunc buffer to the ring degree.

Disabling (for differential tests and A/B timing):

>>> from repro import kernels
>>> with kernels.oracle_only():
...     ...  # every loop above runs instead of its fast path

The module-level switch is process-global, mirroring how
:mod:`repro.obs.state` scopes its registries.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.kernels.conversion import new_limbs_matrix, sub_scale_mod
from repro.kernels.ntt import MAX_NTT_DEGREE, BatchNttKernel
from repro.kernels.reduce import (
    FAST_MODULUS_BOUND,
    LAZY_PRODUCTS,
    MulAcc,
    add_mod,
    lift_mod,
    limb_passes,
    moduli_fit,
    mul_mod,
    sub_mod,
)
from repro.kernels.sample import RowEndsError, raw_words, replay_rows, uniform_rows

__all__ = [
    "BatchNttKernel",
    "FAST_MODULUS_BOUND",
    "LAZY_PRODUCTS",
    "MAX_NTT_DEGREE",
    "MulAcc",
    "RowEndsError",
    "add_mod",
    "enabled",
    "lift_mod",
    "limb_passes",
    "moduli_fit",
    "mul_mod",
    "new_limbs_matrix",
    "oracle_only",
    "raw_words",
    "replay_rows",
    "set_enabled",
    "sub_mod",
    "sub_scale_mod",
    "uniform_rows",
]

#: ``REPRO_KERNELS=off`` (or ``0``/``false``) starts the process on the
#: pure-Python oracle everywhere — the escape hatch for debugging and for
#: measuring the fast path against its reference.
_enabled: bool = os.environ.get("REPRO_KERNELS", "on").lower() not in (
    "0",
    "off",
    "false",
)


def enabled() -> bool:
    """Whether the int64 fast path is currently selected."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Switch the fast path on/off; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


@contextmanager
def oracle_only() -> Iterator[None]:
    """Context manager forcing the pure-Python oracle within its scope."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)
