"""Limb-major batched negacyclic NTT on contiguous int64 arrays.

:class:`BatchNttKernel` is the vectorized counterpart of the pure-Python
oracle :class:`repro.numth.ntt.NttContext`: one call transforms every
limb of an ``(L, N)`` int64 matrix — the *limb-major* layout whose
movement the MAD performance model accounts for — bit-identically to the
oracle.  The transform is :mod:`repro.kernels.fourstep` (two exact
float64 matrix products over tables shared per ``(N, q)``; its docstring
has the exactness proof and the thread contract).  Moduli must be below
:data:`repro.kernels.reduce.FAST_MODULUS_BOUND` and degrees at most
:data:`MAX_NTT_DEGREE`; callers (e.g.
:meth:`repro.ring.RnsBasis.fast_kernel`) fall back to the oracle
otherwise.  Each call runs its per-limb passes inside
:func:`repro.kernels.reduce.limb_passes`.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.kernels import fourstep
from repro.kernels.fourstep import MAX_DEGREE as MAX_NTT_DEGREE
from repro.kernels.reduce import (
    FAST_MODULUS_BOUND,
    limb_passes,
    moduli_fit,
    mul_mod,
)
from repro.obs import state as obs

__all__ = ["BatchNttKernel", "MAX_NTT_DEGREE"]

#: Accepted input type for the matrix entry points.
Rows = Union[np.ndarray, Sequence[Sequence[int]]]


class BatchNttKernel:
    """Batched NTT plan for ring degree ``n`` over ``L`` moduli.

    Building one reserves table rows for the moduli its degree's store
    lacks, copied from oracle plans the store builds and drops one
    modulus at a time; the kernel keeps only the rows' positions.

    Args:
        degree: the ring degree ``N`` (power of two, ``2 <= N <= 2**16``).
        moduli: the limb moduli; every modulus must satisfy
            ``q < 2**30`` and ``q = 1 (mod 2N)``.
    """

    def __init__(self, degree: int, moduli: Sequence[int]):
        if not moduli:
            raise ValueError("a batched kernel needs at least one modulus")
        if not moduli_fit(moduli):
            raise ValueError(
                f"moduli {list(moduli)} exceed the int64 fast-path bound "
                f"{FAST_MODULUS_BOUND} (2**30)"
            )
        if degree > MAX_NTT_DEGREE:
            raise ValueError(
                f"degree {degree} exceeds the four-step NTT bound "
                f"{MAX_NTT_DEGREE} (2**16)"
            )
        self.degree = degree
        self.moduli = tuple(int(q) for q in moduli)
        self._q_col = np.asarray(self.moduli, dtype=np.int64)[:, np.newaxis]
        self._tables = fourstep.tables_for(degree)
        self._blocks = self._tables.plan(self.moduli)

    @property
    def num_limbs(self) -> int:
        return len(self.moduli)

    def _as_matrix(self, rows: Rows) -> np.ndarray:
        x = np.asarray(rows, dtype=np.int64)
        if x.shape != (self.num_limbs, self.degree):
            raise ValueError(
                f"expected a {self.num_limbs}x{self.degree} residue matrix, "
                f"got shape {x.shape}"
            )
        # The transform takes any residue in [0, 2**30); anything else is
        # canonicalised first (numpy remainder matches Python % signs),
        # mirroring the oracle's `c % q` on entry.
        if x.min() < 0 or x.max() >= FAST_MODULUS_BOUND:
            x = np.remainder(x, self._q_col)
        return np.ascontiguousarray(x)

    def forward(self, rows: Rows) -> np.ndarray:
        """Batched forward negacyclic NTT of an ``(L, N)`` residue matrix."""
        obs.count("kernels.ntt.forward")
        with limb_passes(self.degree):
            return self._tables.transform(self._as_matrix(rows), self._blocks, False)

    def inverse(self, rows: Rows) -> np.ndarray:
        """Batched inverse negacyclic NTT of an ``(L, N)`` residue matrix."""
        obs.count("kernels.ntt.inverse")
        with limb_passes(self.degree):
            return self._tables.transform(self._as_matrix(rows), self._blocks, True)

    def negacyclic_multiply(self, a: Rows, b: Rows) -> np.ndarray:
        """Limb-wise product of two coefficient-form ``(L, N)`` matrices."""
        obs.count("kernels.ntt.negacyclic_multiply")
        ea = self.forward(a)
        eb = self.forward(b)
        return self.inverse(mul_mod(ea, eb, self._q_col))

    # List-of-rows adapters (plain Python ints via `.tolist()`); the ring
    # layer passes its matrices to forward/inverse directly.
    def forward_rows(self, rows: Sequence[Sequence[int]]) -> List[List[int]]:
        result: List[List[int]] = self.forward(rows).tolist()
        return result

    def inverse_rows(self, rows: Sequence[Sequence[int]]) -> List[List[int]]:
        result: List[List[int]] = self.inverse(rows).tolist()
        return result
