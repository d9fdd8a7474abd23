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
exact for either dtype.  On int64 matrices sums and differences skip the
division: :func:`repro.kernels.add_mod` and :func:`~repro.kernels.sub_mod`
reduce with one conditional subtract, and ``np.remainder`` stays their
reference for ``object`` bases and under :func:`repro.kernels.oracle_only`.
Products reduce in place through :func:`repro.kernels.mul_mod`, exact
for both dtypes.  Every pointwise op runs inside
:func:`repro.kernels.limb_passes`, so its column-broadcast passes skip
NumPy's ufunc buffer.

A sum of products, ``sum_k x_k * y_k``, is a :class:`ProductSum`: on
int64 limbs one lazily reduced :class:`repro.kernels.MulAcc`, otherwise
the eager expression ``acc + x * y`` per term, its reference.
"""

from __future__ import annotations

import enum
import functools
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro import kernels
from repro.ring.basis import RnsBasis, limb_dtype


class Representation(enum.Enum):
    """Which domain the limb vectors live in."""

    COEFF = "coeff"
    EVAL = "eval"


# Automorphism index maps, shared process-wide per (N, t).
_EVAL_PERMS: Dict[Tuple[int, int], np.ndarray] = {}
_COEFF_PERMS: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
# Evaluation rows of the monomial x^e modulo q, shared per (N, q, e).
_MONOMIAL_ROWS: Dict[Tuple[int, int, int], np.ndarray] = {}


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


def _monomial_rows(basis: RnsBasis, exponent: int) -> np.ndarray:
    """The ``(l, N)`` evaluation rows of ``x^exponent`` over ``basis``.

    Rows are kept per ``(N, q, exponent)``, not per basis, so every level
    of a chain shares one row per prime.  A basis with a prime not seen
    yet transforms the monomial once over the whole basis.
    """
    n = basis.degree
    keys = [(n, q, exponent) for q in basis.moduli]
    if any(key not in _MONOMIAL_ROWS for key in keys):
        coeffs = [0] * n
        coeffs[exponent % n] = 1 if exponent < n else -1
        rows = RnsPolynomial.from_int_coeffs(coeffs, basis).to_eval().limbs
        for key, row in zip(keys, rows):
            row = row.astype(limb_dtype(key[1:2]))
            row.flags.writeable = False
            _MONOMIAL_ROWS[key] = row
    return np.stack([_MONOMIAL_ROWS[key] for key in keys]).astype(basis.dtype)


_Op = TypeVar("_Op", bound=Callable[..., "RnsPolynomial"])


def _limb_passes(op: _Op) -> _Op:
    """Run the pointwise op ``op`` inside :func:`repro.kernels.limb_passes`."""

    @functools.wraps(op)
    def scoped(self: "RnsPolynomial", *args: object) -> "RnsPolynomial":
        with kernels.limb_passes(self.basis.degree):
            return op(self, *args)

    return scoped  # type: ignore[return-value]


def _add(a: np.ndarray, b: np.ndarray, basis: RnsBasis) -> np.ndarray:
    """``(a + b) mod q_i`` row by row; ``b`` may be an ``(l, 1)`` column."""
    if basis.fast_path:
        return kernels.add_mod(a, b, basis.q_col)
    return np.remainder(a + b, basis.q_col)


def _sub(a: np.ndarray, b: np.ndarray, basis: RnsBasis) -> np.ndarray:
    """``(a - b) mod q_i`` row by row."""
    if basis.fast_path:
        return kernels.sub_mod(a, b, basis.q_col)
    return np.remainder(a - b, basis.q_col)


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


def _lifts_without_division(values: np.ndarray, basis: RnsBasis) -> bool:
    """Whether every entry of ``values`` lies in ``(-min q, min q)``.

    Only int64 vectors over int64 bases with the kernels on qualify:
    ternary secrets, Gaussian errors and messages at the scale of one
    limb.
    """
    if not (basis.fast_path and values.dtype == np.int64):
        return False
    bound = min(basis.moduli)
    return bool(values.min() > -bound and values.max() < bound)


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


def _crt_two_limb(rows: np.ndarray, basis: RnsBasis, centered: bool) -> List[int]:
    """:func:`_crt_weighted_sum` for int64 ``rows``, small columns in int64.

    ``low = x_0 + q_0 ((x_1 - x_0) q_0^{-1} mod q_1)`` is each column's
    CRT over the first two limbs, in ``[0, q_0 q_1)`` and below
    ``2**60``.  A column whose other residues ``x_i`` all equal
    ``low mod q_i`` is ``low`` (the CRT is unique below ``Q``).
    Centered, one whose residues all equal ``(low - q_0 q_1) mod q_i``
    is ``low - q_0 q_1``, which lies above ``-Q/2`` once ``Q`` has a
    third limb.  Every other column goes through the weighted sum.
    """
    moduli = basis.moduli
    low = rows[0]
    if len(moduli) > 1:
        # x_1 - x_0 lies in (-2**30, 2**30): the product stays below 2**60.
        digit = np.subtract(rows[1], rows[0])
        digit *= basis.q0_inverse_mod_q1
        np.remainder(digit, moduli[1], out=digit)
        digit *= moduli[0]
        digit += rows[0]
        low = digit
    if len(moduli) <= 2:
        # Q < 2**60: every column is low.
        if centered:
            total = basis.modulus
            low = np.where(low > total // 2, low - total, low)
        out: List[int] = low.tolist()
        return out
    # One remainder pass per other limb; the gap lies in (-q_i, q_i).
    gap = np.remainder(low, basis.q_col[2:])
    gap -= rows[2:]
    fits = ~gap.any(axis=0)
    if centered:
        # low - q_0 q_1 matches limb i iff the gap is q_0 q_1 mod q_i.
        q0q1 = moduli[0] * moduli[1]
        shift = basis.column([q0q1] * len(moduli))[2:]
        top = ((gap == shift) | (gap == shift - basis.q_col[2:])).all(axis=0)
        low = np.where(top, low - q0q1, low)
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
    its matrix, so no two elements share rows.  The one exception is
    :meth:`prefix_view`, whose rows are a read-only view.
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
        cls, coeffs: Union[Sequence[int], np.ndarray], basis: RnsBasis
    ) -> "RnsPolynomial":
        """Build from integer coefficients (any size or sign), coeff form.

        The reference reduces with ``np.remainder``.  An int64 vector
        whose entries all lie in ``(-min q, min q)`` skips the division
        on int64 bases: one broadcast add of the modulus column and one
        uint64 ``min`` (:func:`repro.kernels.lift_mod`).  Wider,
        ``object`` and kernels-off inputs take the reference.
        """
        if len(coeffs) != basis.degree:
            raise ValueError(
                f"expected {basis.degree} coefficients, got {len(coeffs)}"
            )
        values = _as_int_array(coeffs)
        if _lifts_without_division(values, basis):
            with kernels.limb_passes(basis.degree):
                rows = kernels.lift_mod(values, basis.q_col)
        else:
            rows = _reduce(values, basis)
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

    def prefix_view(self, basis: RnsBasis) -> "RnsPolynomial":
        """The first ``len(basis)`` rows over ``basis``, without a copy.

        For an operand read once at a lower level, such as the public
        key in an encryption.  The rows are a read-only view of
        ``self``'s (a copy only if the dtypes differ), so the result is
        the one element that does not own its matrix.  ``basis`` must be
        a prefix of this element's basis.
        """
        count = len(basis)
        if basis.degree != self.basis.degree or (
            basis.moduli != self.basis.moduli[:count]
        ):
            raise ValueError(f"{basis!r} is not a prefix of {self.basis!r}")
        rows = self.limbs[:count].astype(basis.dtype, copy=False)
        rows.flags.writeable = False
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
        under :func:`repro.kernels.oracle_only`.  On int64 bases each
        column is first built in int64 from its first two limbs and
        checked against every other limb, one remainder pass per limb
        (:func:`_crt_two_limb`): the value, or, centered, the value
        minus ``q_0 q_1``.  A decrypted message smaller than ``q_0 q_1``
        in magnitude always matches; any other column goes through the
        weighted sum.
        """
        poly = self.to_coeff()
        if poly.basis.fast_path:
            with kernels.limb_passes(poly.basis.degree):
                return _crt_two_limb(poly.limbs, poly.basis, centered)
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

    @_limb_passes
    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_operand(other)
        return self._with_rows(_add(self.limbs, other.limbs, self.basis))

    @_limb_passes
    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_operand(other)
        return self._with_rows(_sub(self.limbs, other.limbs, self.basis))

    @_limb_passes
    def __neg__(self) -> "RnsPolynomial":
        return self._with_rows(np.remainder(-self.limbs, self.basis.q_col))

    @_limb_passes
    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Ring multiplication; both operands must be in evaluation form."""
        self._check_product(other)
        rows = kernels.mul_mod(self.limbs, other.limbs, self.basis.q_col)
        return self._with_rows(rows)

    def _check_product(self, other: "RnsPolynomial") -> None:
        if self.representation is not Representation.EVAL:
            raise ValueError("ring multiplication requires evaluation form")
        self._check_operand(other)

    @_limb_passes
    def scalar_mul(self, scalar: int) -> "RnsPolynomial":
        """Multiply by an integer scalar (valid in either representation).

        The scalar may be arbitrarily wide; it is reduced modulo each limb
        as a Python int before it meets the matrix.
        """
        column = self.basis.column([scalar] * self.num_limbs)
        return self._with_rows(kernels.mul_mod(self.limbs, column, self.basis.q_col))

    @_limb_passes
    def scalar_add(self, scalar: int) -> "RnsPolynomial":
        """Add the constant polynomial ``scalar`` (any width or sign).

        In evaluation form every slot gains ``scalar mod q_i``; in
        coefficient form only the constant coefficient does.
        """
        column = self.basis.column([scalar] * self.num_limbs)
        if self.representation is Representation.EVAL:
            return self._with_rows(_add(self.limbs, column, self.basis))
        rows = self.limbs.copy()
        rows[:, :1] = _add(rows[:, :1], column, self.basis)
        return self._with_rows(rows)

    @_limb_passes
    def monomial_mul(self, exponent: int) -> "RnsPolynomial":
        """Multiply by ``x^exponent`` (read modulo ``2N``); exact in either form.

        In coefficient form it is a negacyclic shift: ``x^N = -1``, so
        coefficients that wrap past ``x^{N-1}`` change sign.  In
        evaluation form it is a pointwise product with the monomial's
        evaluation rows, kept per ``(N, q, exponent)``.  CKKS uses
        ``x^{N/2}``, which evaluates to ``i`` at every slot's root.
        """
        n = self.basis.degree
        exponent %= 2 * n
        if self.representation is Representation.EVAL:
            rows = _monomial_rows(self.basis, exponent)
            return self._with_rows(kernels.mul_mod(self.limbs, rows, self.basis.q_col))
        shift = exponent % n
        rows = np.roll(self.limbs, shift, axis=1)
        # x^e = -x^(e - N) for e >= N: every coefficient flips once more.
        flip = slice(shift, None) if exponent >= n else slice(0, shift)
        rows[:, flip] = np.remainder(-rows[:, flip], self.basis.q_col)
        return self._with_rows(rows)

    @_limb_passes
    def limb_scalar_mul(self, scalars: Sequence[int]) -> "RnsPolynomial":
        """Multiply limb ``i`` by ``scalars[i]`` (per-limb constants)."""
        if len(scalars) != self.num_limbs:
            raise ValueError(
                f"expected {self.num_limbs} scalars, got {len(scalars)}"
            )
        column = self.basis.column(scalars)
        return self._with_rows(kernels.mul_mod(self.limbs, column, self.basis.q_col))

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
        return self._with_rows(kernels.mul_mod(gathered, sign, self.basis.q_col))


class ProductSum:
    """``sum_k x_k * y_k`` of evaluation-form elements over one basis.

    Over int64 limbs with the kernels on, the terms go into one
    :class:`repro.kernels.MulAcc`: each adds a uint64 product to the
    running sum, which is reduced once per
    :data:`repro.kernels.LAZY_PRODUCTS` terms, with no fresh matrix per
    term.  For ``object`` bases and under
    :func:`repro.kernels.oracle_only` each term is the eager ring
    expression ``acc + x * y``, its reference; both give the same
    canonical residues.  The operands are checked as ``x * y`` checks
    them.
    """

    def __init__(self, basis: RnsBasis):
        self.basis = basis
        self._acc = RnsPolynomial.zero(basis)
        self._mac = (
            kernels.MulAcc(self._acc.limbs, basis.q_col)
            if basis.fast_path
            else None
        )

    def add(self, x: RnsPolynomial, y: RnsPolynomial) -> None:
        """Add the term ``x * y``; both must live over the sum's basis."""
        if x.basis != self.basis:
            raise ValueError("operands live over different bases")
        if self._mac is None:
            self._acc = self._acc + x * y
            return
        x._check_product(y)
        self._mac.add(x.limbs, y.limbs)

    def add_rows(self, x: RnsPolynomial, *rows: np.ndarray) -> None:
        """Add ``x * y`` for the evaluation-form ``y`` whose rows are ``rows``.

        ``rows`` are blocks of canonical residues (int64, 4-byte words or
        the basis' ``object`` dtype) that stack to ``x``'s shape, such as
        a switching-key digit's live rows, two ranges of its store.  The
        lazy sum reads them in place; the reference stacks them into
        ``y`` first.
        """
        if x.basis != self.basis:
            raise ValueError("operands live over different bases")
        if self._mac is None:
            y = np.concatenate(rows).astype(self.basis.dtype, copy=False)
            self.add(x, RnsPolynomial._wrap(self.basis, y, Representation.EVAL))
            return
        if x.representation is not Representation.EVAL:
            raise ValueError("ring multiplication requires evaluation form")
        self._mac.add(x.limbs, *rows)

    def result(self) -> RnsPolynomial:
        """The canonical sum, zero after no terms.

        It shares the accumulator's matrix: add no term after it.
        """
        if self._mac is not None:
            self._mac.finish()
        return self._acc
