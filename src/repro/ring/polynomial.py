"""RNS ring elements with limb-wise and slot-wise views.

An :class:`RnsPolynomial` stores one element of ``R_Q = Z_Q[x]/(x^N + 1)`` as
an ``(l, N)`` residue matrix: row ``i`` holds the residues modulo limb
modulus ``q_i``, either in coefficient or evaluation ("NTT")
representation.  This mirrors exactly the limb-major data layout whose
movement the performance model accounts for: a *limb-wise* access touches
one whole row, a *slot-wise* access (basis conversion) touches one column
across all rows.

The matrix is one C-contiguous ndarray of the basis' dtype
(:attr:`RnsBasis.dtype`): ``int64`` for moduli below ``2**30``, where
products of two residues stay below ``2**60``, and ``object`` (Python
ints) otherwise.  Every pointwise operation is one ufunc expression over
the whole matrix, reduced by the basis' ``(l, 1)`` modulus column, and is
exact for either dtype.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro import kernels
from repro.ring.basis import RnsBasis


class Representation(enum.Enum):
    """Which domain the limb vectors live in."""

    COEFF = "coeff"
    EVAL = "eval"


# Automorphism index maps, shared process-wide per (N, t).
_EVAL_PERMS: Dict[Tuple[int, int], np.ndarray] = {}
_COEFF_PERMS: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}


def _eval_permutation(degree: int, t: int) -> np.ndarray:
    """Source slot of every output slot of ``f(x) -> f(x^t)`` in eval form.

    Our forward NTT puts ``f(psi^{2k+1})`` in slot ``k``, so output slot
    ``k`` (which evaluates at ``psi^{(2k+1) t}``) reads the slot whose
    exponent is ``(2k+1) t mod 2N``.
    """
    perm = _EVAL_PERMS.get((degree, t))
    if perm is None:
        k = np.arange(degree, dtype=np.int64)
        perm = ((2 * k + 1) * t % (2 * degree) - 1) // 2
        perm.flags.writeable = False
        _EVAL_PERMS[(degree, t)] = perm
    return perm


def _coeff_permutation(degree: int, t: int) -> Tuple[np.ndarray, np.ndarray]:
    """Source index and ``±1`` sign of every output coefficient.

    ``x^j -> x^{jt mod 2N}``, and ``x^{N + e} = -x^e`` in the negacyclic
    ring.  ``t`` is odd, so ``j -> jt mod N`` is a bijection.
    """
    entry = _COEFF_PERMS.get((degree, t))
    if entry is None:
        j = np.arange(degree, dtype=np.int64)
        exps = j * t % (2 * degree)
        source = np.empty(degree, dtype=np.int64)
        source[exps % degree] = j
        sign = np.empty(degree, dtype=np.int64)
        sign[exps % degree] = np.where(exps < degree, 1, -1)
        source.flags.writeable = False
        sign.flags.writeable = False
        entry = (source, sign)
        _COEFF_PERMS[(degree, t)] = entry
    return entry


def _as_int_array(values: object) -> np.ndarray:
    """``values`` as an int64 array, or as Python-int objects if too wide."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _reduce(values: np.ndarray, basis: RnsBasis) -> np.ndarray:
    """Fresh canonical ``values mod q_i`` rows in the basis' dtype.

    ``np.remainder`` follows Python's ``%`` sign rule, so negative inputs
    land in ``[0, q)`` exactly as the scalar oracle would put them.
    """
    return np.remainder(values, basis.q_col).astype(basis.dtype, copy=False)


def _crt_weighted_sum(
    rows: np.ndarray, basis: RnsBasis, centered: bool
) -> List[int]:
    """CRT of each column of ``rows`` by the Python-int weighted sum.

    ``x = sum_i [x_i * Q~_i]_{q_i} * (Q/q_i) mod Q``: the per-limb
    products run in the basis' dtype, only the final sum needs Python
    integers.
    """
    total = basis.modulus
    y = np.remainder(rows * basis.column(basis.q_hat_inverses()), basis.q_col)
    q_stars = np.array([total // q for q in basis.moduli], dtype=object)
    acc = (y.astype(object) * q_stars[:, np.newaxis]).sum(axis=0) % total
    if centered:
        acc = np.where(acc > total // 2, acc - total, acc)
    out: List[int] = acc.tolist()
    return out


def _crt_garner(rows: np.ndarray, basis: RnsBasis, centered: bool) -> List[int]:
    """:func:`_crt_weighted_sum` for int64 ``rows``, small columns in int64."""
    digits = kernels.mixed_radix_digits(rows, basis.moduli, basis.garner_inverses)
    moduli = basis.moduli
    low = digits[0] + digits[1] * moduli[0] if len(moduli) > 1 else digits[0]
    if len(moduli) <= 2:
        # Q < 2**60: every column fits int64.
        if centered:
            total = basis.modulus
            low = np.where(low > total // 2, low - total, low)
        out: List[int] = low.tolist()
        return out
    high = digits[2:]
    fits = ~high.any(axis=0)
    if centered:
        # Digits above v_1 all q_i - 1: x = v_0 + v_1 q_0 + Q - q_0 q_1.
        top = (high == basis.q_col[2:] - 1).all(axis=0)
        low = np.where(top, low - moduli[0] * moduli[1], low)
        fits |= top
    out = low.tolist()
    rest = np.flatnonzero(~fits)
    if rest.size:
        wide = _crt_weighted_sum(rows[:, rest], basis, centered)
        for j, value in zip(rest.tolist(), wide):
            out[j] = value
    return out


class RnsPolynomial:
    """One ring element in RNS form.

    Attributes:
        basis: the :class:`RnsBasis` the limbs live over.
        limbs: ``(len(basis), basis.degree)`` ndarray of canonical residues
            (dtype :attr:`RnsBasis.dtype`); row ``i`` is limb ``i``.
        representation: whether rows hold coefficients or NTT evaluations.

    Elements are values: every operation returns a new element that owns
    its matrix, so no two elements share rows.
    """

    __slots__ = ("basis", "limbs", "representation")

    def __init__(
        self,
        basis: RnsBasis,
        limbs: Union[np.ndarray, Sequence[Sequence[int]]],
        representation: Representation,
    ):
        rows = _as_int_array(limbs)
        if rows.shape != (len(basis), basis.degree):
            raise ValueError(
                f"expected {len(basis)} limbs of {basis.degree} residues, "
                f"got shape {rows.shape}"
            )
        self.basis = basis
        self.limbs: np.ndarray = _reduce(rows, basis)
        self.representation = representation

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _wrap(
        cls,
        basis: RnsBasis,
        rows: np.ndarray,
        representation: Representation,
    ) -> "RnsPolynomial":
        """Trusted constructor for a matrix that is already canonical.

        Internal call sites (NTT outputs, ufunc results, row selections)
        always produce a fresh ``(len(basis), N)`` matrix of residues in
        ``[0, q)`` in the basis' dtype, so the public constructor's
        conversion and ``% q`` pass would be pure overhead.  The wrapped
        object takes ownership of ``rows``.
        """
        poly = cls.__new__(cls)
        poly.basis = basis
        poly.limbs = rows
        poly.representation = representation
        return poly

    @classmethod
    def zero(
        cls, basis: RnsBasis, representation: Representation = Representation.EVAL
    ) -> "RnsPolynomial":
        rows = np.zeros((len(basis), basis.degree), dtype=basis.dtype)
        return cls._wrap(basis, rows, representation)

    @classmethod
    def from_int_coeffs(
        cls, coeffs: Sequence[int], basis: RnsBasis
    ) -> "RnsPolynomial":
        """Build from integer coefficients (any size or sign), coeff form."""
        if len(coeffs) != basis.degree:
            raise ValueError(
                f"expected {basis.degree} coefficients, got {len(coeffs)}"
            )
        rows = _reduce(_as_int_array(coeffs), basis)
        return cls._wrap(basis, rows, Representation.COEFF)

    def clone(self) -> "RnsPolynomial":
        return RnsPolynomial._wrap(
            self.basis, self.limbs.copy(), self.representation
        )

    def select_limbs(
        self, index: Union[slice, Sequence[int]], basis: RnsBasis
    ) -> "RnsPolynomial":
        """Rows ``index`` (a slice or index list) as an element over ``basis``.

        Dropping or reordering limbs is exact bookkeeping in either
        representation: level reduction, digit decomposition, key
        restriction.  The result owns a copy of the rows, so writing to
        it never reaches ``self``.
        """
        rows = self.limbs[index].astype(basis.dtype)
        if rows.shape != (len(basis), basis.degree):
            raise ValueError(
                f"selected {rows.shape[0]} limbs for a {len(basis)}-limb basis"
            )
        return RnsPolynomial._wrap(basis, rows, self.representation)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_limbs(self) -> int:
        return len(self.limbs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RnsPolynomial)
            and self.basis == other.basis
            and self.representation == other.representation
            and bool(np.array_equal(self.limbs, other.limbs))
        )

    def __repr__(self) -> str:
        return (
            f"RnsPolynomial(limbs={self.num_limbs}, degree={self.basis.degree}, "
            f"form={self.representation.value})"
        )

    def to_int_coeffs(self, centered: bool = True) -> List[int]:
        """CRT-reconstruct the integer coefficient vector as Python ints.

        Centered output lies in ``(-Q/2, Q/2]``, uncentered in ``[0, Q)``.
        The reference is a Python-int weighted sum per coefficient
        (:func:`_crt_weighted_sum`), which runs for ``object`` bases and
        under :func:`repro.kernels.oracle_only`.  On int64 bases the
        coefficients come from Garner's mixed-radix digits
        (:func:`repro.kernels.mixed_radix_digits`) instead: a column
        whose digits above ``v_1`` are all 0 is ``v_0 + v_1 q_0``, and,
        centered, one whose digits above ``v_1`` are all ``q_i - 1`` is
        ``v_0 + v_1 q_0 - q_0 q_1``; both are below ``2**60`` in
        magnitude, so they are assembled in int64.  A decrypted message
        smaller than ``q_0 q_1`` in magnitude has no other kind; any
        other column goes through the weighted sum.
        """
        poly = self.to_coeff()
        if kernels.enabled() and poly.basis.dtype == np.int64:
            return _crt_garner(poly.limbs, poly.basis, centered)
        return _crt_weighted_sum(poly.limbs, poly.basis, centered)

    # ------------------------------------------------------------------
    # Representation changes
    # ------------------------------------------------------------------
    def to_eval(self) -> "RnsPolynomial":
        """Return this element in evaluation form (l limb-wise NTTs).

        Runs the batched int64 kernel when the basis supports it
        (:meth:`RnsBasis.fast_kernel`), the pure-Python oracle
        otherwise; both produce bit-identical rows.
        """
        if self.representation is Representation.EVAL:
            return self
        rows = self.basis.transform(self.limbs)
        return RnsPolynomial._wrap(self.basis, rows, Representation.EVAL)

    def to_coeff(self) -> "RnsPolynomial":
        """Return this element in coefficient form (l limb-wise iNTTs).

        Same kernel/oracle dispatch as :meth:`to_eval`.
        """
        if self.representation is Representation.COEFF:
            return self
        rows = self.basis.transform(self.limbs, inverse=True)
        return RnsPolynomial._wrap(self.basis, rows, Representation.COEFF)

    # ------------------------------------------------------------------
    # Arithmetic (limb-wise)
    # ------------------------------------------------------------------
    def _check_operand(self, other: "RnsPolynomial") -> None:
        if self.basis != other.basis:
            raise ValueError("operands live over different bases")
        if self.representation is not other.representation:
            raise ValueError(
                f"representation mismatch: {self.representation} vs "
                f"{other.representation}"
            )

    def _with_rows(self, rows: np.ndarray) -> "RnsPolynomial":
        return RnsPolynomial._wrap(self.basis, rows, self.representation)

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_operand(other)
        return self._with_rows(
            np.remainder(self.limbs + other.limbs, self.basis.q_col)
        )

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_operand(other)
        return self._with_rows(
            np.remainder(self.limbs - other.limbs, self.basis.q_col)
        )

    def __neg__(self) -> "RnsPolynomial":
        return self._with_rows(np.remainder(-self.limbs, self.basis.q_col))

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Ring multiplication; both operands must be in evaluation form."""
        if self.representation is not Representation.EVAL:
            raise ValueError("ring multiplication requires evaluation form")
        self._check_operand(other)
        return self._with_rows(
            np.remainder(self.limbs * other.limbs, self.basis.q_col)
        )

    def scalar_mul(self, scalar: int) -> "RnsPolynomial":
        """Multiply by an integer scalar (valid in either representation).

        The scalar may be arbitrarily wide; it is reduced modulo each limb
        as a Python int before it meets the matrix.
        """
        column = self.basis.column([scalar] * self.num_limbs)
        return self._with_rows(
            np.remainder(self.limbs * column, self.basis.q_col)
        )

    def limb_scalar_mul(self, scalars: Sequence[int]) -> "RnsPolynomial":
        """Multiply limb ``i`` by ``scalars[i]`` (per-limb constants)."""
        if len(scalars) != self.num_limbs:
            raise ValueError(
                f"expected {self.num_limbs} scalars, got {len(scalars)}"
            )
        column = self.basis.column(scalars)
        return self._with_rows(
            np.remainder(self.limbs * column, self.basis.q_col)
        )

    # ------------------------------------------------------------------
    # Galois automorphisms
    # ------------------------------------------------------------------
    def automorph(self, t: int) -> "RnsPolynomial":
        """Apply the Galois automorphism ``f(x) -> f(x^t)`` for odd ``t``.

        In coefficient form this permutes coefficients with sign flips
        (``x^j -> ± x^{jt mod N}``); in evaluation form it is a pure
        permutation of the evaluation points — which is why the paper's
        ``Automorph`` sub-operation costs zero modular operations.  Both
        are one gather over the whole matrix.
        """
        n = self.basis.degree
        t = t % (2 * n)
        if t % 2 == 0:
            raise ValueError(f"automorphism index must be odd, got {t}")
        if self.representation is Representation.EVAL:
            return self._with_rows(
                np.take(self.limbs, _eval_permutation(n, t), axis=1)
            )
        source, sign = _coeff_permutation(n, t)
        gathered = np.take(self.limbs, source, axis=1)
        return self._with_rows(np.remainder(gathered * sign, self.basis.q_col))
