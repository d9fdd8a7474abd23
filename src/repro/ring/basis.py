"""RNS bases: ordered sets of NTT-friendly prime limb moduli."""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.kernels.ntt import BatchNttKernel
from repro.numth import NttContext, find_ntt_primes
from repro.numth.modular import mod_inverse

# Oracle NTT plans, shared process-wide per (n, q).  Only the oracle path
# (RnsBasis.ntt and transform without a fast kernel) fills it: the fast
# kernels' tables are copied from plans that are dropped after the copy.
_NTT_CACHE: Dict[Tuple[int, int], NttContext] = {}

# Batched int64 kernels, keyed by (degree, moduli tuple).  The cache is
# keyed independently of RnsBasis identity so derived bases (prefixes,
# extensions, the dropped tail of a ModDown) reuse plans too.
_KERNEL_CACHE: Dict[Tuple[int, Tuple[int, ...]], BatchNttKernel] = {}


def _ntt_for(degree: int, modulus: int) -> NttContext:
    key = (degree, modulus)
    ctx = _NTT_CACHE.get(key)
    if ctx is None:
        ctx = NttContext(degree, modulus)
        _NTT_CACHE[key] = ctx
    return ctx


def limb_dtype(moduli: Sequence[int]) -> np.dtype:
    """Storage dtype of residues modulo ``moduli``.

    ``int64`` when every modulus is inside the kernels' bound (products
    of two residues stay below ``2**60``), else ``object`` holding Python
    ints, so wider moduli stay exact at Python-integer speed.
    """
    return np.dtype(np.int64) if kernels.moduli_fit(moduli) else np.dtype(object)


def _kernel_for(degree: int, moduli: Tuple[int, ...]) -> Optional[BatchNttKernel]:
    """The cached kernel, or ``None`` when the fast path is off or out of range."""
    if (
        not moduli
        or not kernels.enabled()
        or degree > kernels.MAX_NTT_DEGREE
        or not kernels.moduli_fit(moduli)
    ):
        return None
    key = (degree, moduli)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = BatchNttKernel(degree, moduli)
        _KERNEL_CACHE[key] = kernel
    return kernel


class RnsBasis:
    """An ordered RNS basis ``{q_1, ..., q_l}`` for ring degree ``N``.

    A basis is immutable; deriving related bases (dropping the last limb for
    a rescale, extending by special primes for a ModUp) returns new objects.
    """

    def __init__(self, degree: int, moduli: Sequence[int]):
        if degree < 2 or degree & (degree - 1):
            raise ValueError(f"degree must be a power of two, got {degree}")
        if not moduli:
            raise ValueError("a basis needs at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ValueError("basis moduli must be distinct")
        for q in moduli:
            if (q - 1) % (2 * degree) != 0:
                raise ValueError(
                    f"modulus {q} is not NTT-friendly for degree {degree}"
                )
        self.degree = degree
        self.moduli: Tuple[int, ...] = tuple(moduli)

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        degree: int,
        limb_bits: int,
        count: int,
        exclude: Iterable[int] = (),
    ) -> "RnsBasis":
        """Generate a fresh basis of ``count`` primes of ``limb_bits`` bits."""
        return cls(degree, find_ntt_primes(limb_bits, degree, count, list(exclude)))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RnsBasis)
            and self.degree == other.degree
            and self.moduli == other.moduli
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.moduli))

    def __repr__(self) -> str:
        bits = [q.bit_length() for q in self.moduli]
        return f"RnsBasis(degree={self.degree}, limbs={len(self)}, bits={bits})"

    # ------------------------------------------------------------------
    @cached_property
    def modulus(self) -> int:
        """The full modulus ``Q``: product of all limb moduli."""
        product = 1
        for q in self.moduli:
            product *= q
        return product

    @cached_property
    def dtype(self) -> np.dtype:
        """Storage dtype of this basis' residue matrices (:func:`limb_dtype`)."""
        return limb_dtype(self.moduli)

    @property
    def fast_path(self) -> bool:
        """Whether arithmetic over this basis runs the int64 kernels.

        True when the kernels are on (:func:`repro.kernels.enabled`, read
        at every call, since :func:`repro.kernels.oracle_only` switches
        them) and the residues are int64 (every modulus inside the
        kernels' bound).  Otherwise callers run the reference
        expressions, which give the same canonical residues.
        """
        return kernels.enabled() and self.dtype == np.int64

    @cached_property
    def q_col(self) -> np.ndarray:
        """The moduli as a read-only ``(l, 1)`` column of :attr:`dtype`.

        Broadcasts against an ``(l, N)`` residue matrix, so one ufunc
        call reduces every limb by its own modulus.
        """
        col = np.array(self.moduli, dtype=self.dtype)[:, np.newaxis]
        col.flags.writeable = False
        return col

    def column(self, values: Sequence[int]) -> np.ndarray:
        """Per-limb constants ``values[i] mod q_i`` as an ``(l, 1)`` column.

        The reduction runs on Python ints, so ``values`` may be arbitrarily
        wide (e.g. ``P * U_i`` key-generation selectors).
        """
        if len(values) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} per-limb values, got {len(values)}"
            )
        residues = [int(v) % q for v, q in zip(values, self.moduli)]
        return np.array(residues, dtype=self.dtype)[:, np.newaxis]

    def ntt(self, index: int) -> NttContext:
        """The NTT plan for limb ``index``."""
        return _ntt_for(self.degree, self.moduli[index])

    def fast_kernel(self) -> Optional[BatchNttKernel]:
        """The batched int64 NTT kernel for this basis, if applicable.

        Returns ``None`` when the fast path is switched off
        (:func:`repro.kernels.enabled`), any limb modulus exceeds the
        int64 bound or the degree exceeds
        :data:`repro.kernels.MAX_NTT_DEGREE` — callers then run the
        pure-Python oracle, which is bit-exact equal by the kernels'
        differential contract.
        """
        return _kernel_for(self.degree, self.moduli)

    def fast_kernel_for(
        self, moduli: Sequence[int]
    ) -> Optional[BatchNttKernel]:
        """A batched kernel for an arbitrary compatible moduli tuple.

        Used by basis conversion for limb sets that are not this basis
        (a ModUp extension, a ModDown dropped tail).  Same gating as
        :meth:`fast_kernel`.
        """
        return _kernel_for(self.degree, tuple(int(q) for q in moduli))

    def transform(
        self,
        rows: np.ndarray,
        inverse: bool = False,
        moduli: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Limb-wise forward (or ``inverse``) NTT of a residue matrix.

        ``rows`` holds one canonical row per modulus of ``moduli``
        (default: this basis).  Runs the batched int64 kernel when
        :meth:`fast_kernel` / :meth:`fast_kernel_for` offer one, the
        pure-Python oracle row by row otherwise; both produce identical
        canonical rows, returned as a fresh array of the moduli's
        :func:`limb_dtype`.  The oracle call is the only place residues
        cross into Python lists.
        """
        if moduli is None:
            moduli, kernel = self.moduli, self.fast_kernel()
        else:
            kernel = self.fast_kernel_for(moduli)
        if kernel is not None:
            return kernel.inverse(rows) if inverse else kernel.forward(rows)
        out = []
        for q, row in zip(moduli, rows.tolist()):
            plan = _ntt_for(self.degree, int(q))
            out.append(plan.inverse(row) if inverse else plan.forward(row))
        return np.array(out, dtype=limb_dtype(moduli))

    # ------------------------------------------------------------------
    # Derived bases
    # ------------------------------------------------------------------
    def prefix(self, count: int) -> "RnsBasis":
        """The sub-basis of the first ``count`` limbs."""
        if not 1 <= count <= len(self):
            raise ValueError(f"prefix length {count} outside [1, {len(self)}]")
        return RnsBasis(self.degree, self.moduli[:count])

    def drop_last(self, count: int = 1) -> "RnsBasis":
        """Drop the last ``count`` limbs (the shape of a rescale)."""
        if not 1 <= count < len(self):
            raise ValueError(
                f"cannot drop {count} of {len(self)} limbs (at least one must remain)"
            )
        return RnsBasis(self.degree, self.moduli[:-count])

    def extended(self, extra: Sequence[int]) -> "RnsBasis":
        """The basis ``B ∪ B'`` with ``extra`` appended (the shape of a ModUp)."""
        return RnsBasis(self.degree, self.moduli + tuple(extra))

    # ------------------------------------------------------------------
    # Fast-basis-conversion precomputation (Eq. 1 of the paper)
    # ------------------------------------------------------------------
    def q_hat_inverses(self) -> List[int]:
        """``(Q/q_i)^{-1} mod q_i`` for each limb — the ``Q~_i`` of Eq. 1."""
        return list(self._q_hat_inverses)

    @cached_property
    def _q_hat_inverses(self) -> Tuple[int, ...]:
        total = self.modulus
        return tuple(mod_inverse(total // q % q, q) for q in self.moduli)

    @cached_property
    def q0_inverse_mod_q1(self) -> int:
        """``q_0^{-1} mod q_1``, the constant of the two-limb CRT.

        :meth:`repro.ring.RnsPolynomial.to_int_coeffs` builds each
        coefficient from its first two limbs with it.  Needs two limbs.
        """
        q0, q1 = self.moduli[:2]
        return mod_inverse(q0 % q1, q1)

    def q_stars_mod(self, target: int) -> List[int]:
        """``(Q/q_i) mod target`` for each limb — the ``Q*_i`` of Eq. 1."""
        total = self.modulus
        return [total // q % target for q in self.moduli]
