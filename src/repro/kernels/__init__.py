"""Vectorized int64 compute kernels for the functional RNS-CKKS layer.

This package is the *fast path* of the exact-arithmetic stack: batched
negacyclic NTTs, RNS basis conversion, Garner CRT digits and uniform
residue sampling on contiguous int64 numpy arrays, for NTT-friendly limb
moduli below ``2**30``.  The pure-Python loops they replace remain the
*differential oracle*, and the kernels are required to be bit-exact
against them (the same contract :mod:`repro.memsim` holds against
:mod:`repro.perf`):

* the object-integer NTT and basis conversion of :mod:`repro.numth` and
  :mod:`repro.ring`;
* the Python-int weighted sum of
  :meth:`repro.ring.RnsPolynomial.to_int_coeffs`;
* the per-draw ``random.Random`` loops of :class:`repro.ckks.CkksContext`
  (``randrange`` rows, ``choice`` ternaries, rounded ``gauss`` errors,
  the last replayed by :mod:`repro.ckks.sampling` on :func:`raw_words`);
* the per-coefficient ``round`` of :meth:`repro.ckks.Encoder.encode`.

Callers fall back to the oracle whenever an input is out of the fast
path's range or the fast path is disabled.

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

from repro.kernels.conversion import (
    mixed_radix_digits,
    new_limbs_matrix,
    sub_scale_mod,
)
from repro.kernels.ntt import BatchNttKernel
from repro.kernels.reduce import (
    FAST_MODULUS_BOUND,
    SHOUP_SHIFT,
    add_mod,
    moduli_fit,
    mul_mod,
    mul_mod_shoup,
    shoup_precompute,
    sub_mod,
)
from repro.kernels.sample import raw_words, uniform_rows

__all__ = [
    "BatchNttKernel",
    "FAST_MODULUS_BOUND",
    "SHOUP_SHIFT",
    "add_mod",
    "enabled",
    "mixed_radix_digits",
    "moduli_fit",
    "mul_mod",
    "mul_mod_shoup",
    "new_limbs_matrix",
    "oracle_only",
    "raw_words",
    "set_enabled",
    "shoup_precompute",
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
