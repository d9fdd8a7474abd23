"""Differential contract: BatchNttKernel is bit-exact vs the oracle.

The kernels reimplement the negacyclic NTT with a very different
algorithm (a four-step transform of two float64 matrix products vs the
oracle's canonical radix-2 Cooley-Tukey), so these tests pin the *whole
output*, not a tolerance: every row must equal the pure-Python
:class:`repro.numth.ntt.NttContext` result exactly, across ring degrees
up to ``2**16`` and for limb moduli up to the largest NTT prime below
``2**30``.  :class:`TestProductBound` drives the two product-and-reduce
steps at the worst case the ``< 2**53`` proof in
:mod:`repro.kernels.fourstep` allows.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.kernels import BatchNttKernel, FAST_MODULUS_BOUND, fourstep
from repro.numth import NttContext, find_ntt_primes, is_prime
from repro.ring import Representation, RnsBasis, RnsPolynomial


def _random_rows(primes, degree, seed):
    rng = random.Random(seed)
    return [[rng.randrange(q) for _ in range(degree)] for q in primes]


def _assert_boundary_parity(kernel, moduli):
    """Forward equals the oracle and inverse undoes it, limb by limb, on
    random rows with 0, q - 1, q - 1 planted in every limb."""
    degree = kernel.degree
    rows = _random_rows(moduli, degree, seed=2012)
    for row, q in zip(rows, moduli):
        row[0], row[1], row[-1] = 0, q - 1, q - 1
    fwd = kernel.forward(rows)
    assert fwd.tolist() == [
        NttContext(degree, q).forward(row) for row, q in zip(rows, moduli)
    ]
    assert kernel.inverse(fwd).tolist() == rows


class TestForwardInverseParity:
    # 2**15 with 3 limbs keeps the pure-Python reference affordable while
    # covering both splits of the four-step: n1 == n2 (even log N) and
    # n2 == 2 * n1 (odd log N), up to n2 = 256.
    @pytest.mark.parametrize("log_n", range(4, 16))
    def test_bit_exact_across_sizes(self, log_n):
        degree = 1 << log_n
        primes = find_ntt_primes(30, degree, 3)
        contexts = [NttContext(degree, q) for q in primes]
        kernel = BatchNttKernel(degree, primes)
        rows = _random_rows(primes, degree, seed=log_n)

        fwd = kernel.forward(rows)
        assert fwd.tolist() == [
            ctx.forward(row) for ctx, row in zip(contexts, rows)
        ]
        back = kernel.inverse(fwd)
        assert back.tolist() == rows

    # A block holds BLOCK_ELEMENTS // N limbs (8 at N = 2**12, 1 at
    # 2**15), so one limb more than that runs as one full block and a
    # one-limb remainder.  0 and q - 1 sit in every limb, at the ends of
    # the residue range.
    @pytest.mark.parametrize("log_n", range(10, 16))
    def test_full_block_and_remainder_with_boundary_residues(
        self, log_n, monkeypatch
    ):
        degree = 1 << log_n
        per_block = fourstep.BLOCK_ELEMENTS // degree
        monkeypatch.setitem(fourstep._STORES, degree, fourstep.DegreeTables(degree))
        primes = find_ntt_primes(30, degree, per_block + 1)
        kernel = BatchNttKernel(degree, primes)
        assert [hi - lo for lo, hi, _, _ in kernel._blocks] == [per_block, 1]
        _assert_boundary_parity(kernel, primes)

    def test_largest_prime_below_bound(self):
        # The boundary moduli are where the products sit closest to 2**53.
        degree = 256
        primes = find_ntt_primes(30, degree, 4)
        assert max(primes) > FAST_MODULUS_BOUND - (1 << 16)
        contexts = [NttContext(degree, q) for q in primes]
        kernel = BatchNttKernel(degree, primes)
        # Worst-case rows: every residue at its maximum.
        rows = [[q - 1] * degree for q in primes]
        assert kernel.forward(rows).tolist() == [
            ctx.forward(row) for ctx, row in zip(contexts, rows)
        ]
        rows = _random_rows(primes, degree, seed=99)
        assert kernel.inverse(rows).tolist() == [
            ctx.inverse(row) for ctx, row in zip(contexts, rows)
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        log_n=st.integers(1, 9),
        num_limbs=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    def test_random_transforms_match_oracle(self, log_n, num_limbs, seed):
        degree = 1 << log_n
        primes = find_ntt_primes(30, degree, num_limbs)
        contexts = [NttContext(degree, q) for q in primes]
        kernel = BatchNttKernel(degree, primes)
        rows = _random_rows(primes, degree, seed)
        assert kernel.forward(rows).tolist() == [
            ctx.forward(row) for ctx, row in zip(contexts, rows)
        ]
        assert kernel.inverse(rows).tolist() == [
            ctx.inverse(row) for ctx, row in zip(contexts, rows)
        ]

    def test_unreduced_and_negative_inputs_canonicalised(self):
        degree = 64
        primes = find_ntt_primes(30, degree, 2)
        kernel = BatchNttKernel(degree, primes)
        contexts = [NttContext(degree, q) for q in primes]
        rows = _random_rows(primes, degree, seed=5)
        dirty = [
            [v - q if j % 2 else v + q for j, v in enumerate(row)]
            for row, q in zip(rows, primes)
        ]
        assert kernel.forward(dirty).tolist() == [
            ctx.forward(row) for ctx, row in zip(contexts, rows)
        ]


class TestProductBound:
    """Both product-and-reduce steps at the proof's worst case, vs ints.

    For N >= 2**14 every NTT prime is 1 mod 2**15, so an all-(q - 1)
    input has zero low halves and never nears the bound; these cases
    build the extremes directly: inner dimension 256, the largest prime
    below 2**30, data halves all 0x7FFF and table entries at the edge of
    their stored range.
    """

    Q = (1 << 30) - 35
    SIDE = 256

    def _floats(self):
        q = np.full((1, 1, 1), float(self.Q))
        return q, 1.0 / q

    def _expected(self, matrix, data):
        product = np.array(matrix, dtype=object) @ np.array(data, dtype=object)
        return (product % self.Q).tolist()

    def test_largest_prime(self):
        assert is_prime(self.Q)
        assert not any(is_prime(q) for q in range(self.Q + 2, 1 << 30, 2))

    @pytest.mark.parametrize(
        "entry", ["q-1", "half", "half+1", "near-q-1", "random"]
    )
    @pytest.mark.parametrize("value", ["max", "q-1", "random"])
    def test_data_split_product(self, entry, value):
        q, side, cols = self.Q, self.SIDE, 3
        rng = np.random.default_rng(7)
        entries = {
            "q-1": np.full((side, side), q - 1),
            "half": np.full((side, side), (q - 1) // 2),
            "half+1": np.full((side, side), (q + 1) // 2),
            # Entries just below q whose high-half product leaves a
            # residue near +q/2 against all-0x7FFF data: stored
            # uncentred, this row's combine would pass 2**53.
            "near-q-1": np.tile([q - 65] + [q - 64] * (side - 1), (side, 1)),
            "random": rng.integers(0, q, (side, side)),
        }
        values = {
            "max": np.full((side, cols), (1 << 30) - 1),  # halves 0x7FFF
            "q-1": np.full((side, cols), q - 1),
            "random": rng.integers(0, 1 << 30, (side, cols)),
        }
        matrix = entries[entry].astype(np.int64)
        data = values[value].astype(np.int64)
        a = fourstep.centred(matrix, q)[np.newaxis]
        d = np.stack(fourstep.halves(data))[np.newaxis]
        p = np.empty((1, 2, side, cols))
        t = np.empty((1, side, cols))
        got = fourstep.data_split_product(a, d, p, t, *self._floats())
        assert np.abs(got).max() < q
        assert (got[0].astype(np.int64) % q).tolist() == self._expected(
            matrix, data
        )

    @pytest.mark.parametrize("entry", ["halves-max", "q-1", "random"])
    @pytest.mark.parametrize("sign", [1, -1, 0])
    def test_matrix_split_product(self, entry, sign):
        q, side, cols = self.Q, self.SIDE, 3
        rng = np.random.default_rng(11)
        entries = {
            "halves-max": np.full((side, side), (1 << 30) - 1),
            "q-1": np.full((side, side), q - 1),
            "random": rng.integers(0, q, (side, side)),
        }
        matrix = entries[entry].astype(np.int64)
        # Operands of this step are reduced values, |z| < q/2 + 4; the
        # test goes a little past that.
        bound = (q - 1) // 2 + 8
        if sign:
            data = np.full((side, cols), sign * bound, dtype=np.int64)
        else:
            data = rng.integers(-bound, bound + 1, (side, cols))
        b = np.stack(fourstep.halves(matrix))[np.newaxis]
        z = data.astype(np.float64)[np.newaxis]
        s = np.empty((1, 2, side, cols))
        t = np.empty((1, side, cols))
        got = fourstep.matrix_split_product(b, z, s, t, *self._floats())
        assert np.abs(got).max() < q
        assert (got[0].astype(np.int64) % q).tolist() == self._expected(
            matrix, data
        )

    def test_largest_degree_against_oracle(self):
        # N = 2**16 is the largest degree, n1 = n2 = 256.  q = 1 mod
        # 2**17, so the constant input q - 2 has low half 0x7FFF.
        degree = fourstep.MAX_DEGREE
        q = find_ntt_primes(30, degree, 1)[0]
        assert (q - 2) & 0x7FFF == 0x7FFF
        ctx = NttContext(degree, q)
        kernel = BatchNttKernel(degree, [q])
        row = [q - 2] * degree
        assert kernel.forward([row]).tolist() == [ctx.forward(row)]
        assert kernel.inverse([row]).tolist() == [ctx.inverse(row)]

    def test_degree_above_bound_uses_the_oracle(self):
        degree = 2 * fourstep.MAX_DEGREE
        q = find_ntt_primes(30, degree, 1)[0]
        with pytest.raises(ValueError, match=r"2\*\*16"):
            BatchNttKernel(degree, [q])
        basis = RnsBasis(degree, [q])
        assert basis.fast_kernel() is None
        assert basis.fast_kernel_for([q]) is None
        row = [0] * degree
        row[1] = q - 1
        got = basis.transform(np.array([row], dtype=np.int64))
        assert got.tolist() == [basis.ntt(0).forward(row)]


class TestNegacyclicMultiply:
    @settings(max_examples=20, deadline=None)
    @given(
        log_n=st.integers(2, 8),
        num_limbs=st.integers(1, 3),
        seed=st.integers(0, 2**32),
    )
    def test_matches_oracle(self, log_n, num_limbs, seed):
        degree = 1 << log_n
        primes = find_ntt_primes(30, degree, num_limbs)
        contexts = [NttContext(degree, q) for q in primes]
        kernel = BatchNttKernel(degree, primes)
        a = _random_rows(primes, degree, seed)
        b = _random_rows(primes, degree, seed + 1)
        assert kernel.negacyclic_multiply(a, b).tolist() == [
            ctx.negacyclic_multiply(ra, rb)
            for ctx, ra, rb in zip(contexts, a, b)
        ]

    def test_wraps_negacyclically(self):
        # x^(n-1) * x = -1 mod (x^n + 1): the sign flip distinguishes the
        # negacyclic convolution from a plain cyclic one.
        degree = 16
        primes = find_ntt_primes(30, degree, 1)
        kernel = BatchNttKernel(degree, primes)
        a = [[0] * (degree - 1) + [1]]
        b = [[0, 1] + [0] * (degree - 2)]
        got = kernel.negacyclic_multiply(a, b).tolist()
        assert got == [[primes[0] - 1] + [0] * (degree - 1)]


class TestBatchedVsSingle:
    def test_batched_equals_per_limb_kernels(self):
        degree = 128
        primes = find_ntt_primes(30, degree, 5)
        batched = BatchNttKernel(degree, primes)
        rows = _random_rows(primes, degree, seed=11)
        fwd = batched.forward(rows)
        for i, q in enumerate(primes):
            single = BatchNttKernel(degree, [q])
            assert single.forward([rows[i]]).tolist() == [fwd[i].tolist()]
            assert (
                single.inverse([rows[i]]).tolist()
                == [batched.inverse(rows)[i].tolist()]
            )

    def test_rows_adapters_return_plain_ints(self):
        degree = 32
        primes = find_ntt_primes(30, degree, 2)
        kernel = BatchNttKernel(degree, primes)
        rows = _random_rows(primes, degree, seed=3)
        out = kernel.forward_rows(rows)
        assert isinstance(out, list)
        assert all(type(v) is int for v in out[0])
        assert kernel.inverse_rows(out) == rows


class TestBlockPlan:
    """Blocks are contiguous row runs of one table chunk, at most
    BLOCK_ELEMENTS // N limbs long; parity holds whatever the plan."""

    DEGREE = 1 << 12

    @pytest.fixture()
    def primes(self, monkeypatch):
        store = fourstep.DegreeTables(self.DEGREE)
        monkeypatch.setitem(fourstep._STORES, self.DEGREE, store)
        return find_ntt_primes(30, self.DEGREE, 9)

    def _check(self, moduli, sizes):
        kernel = BatchNttKernel(self.DEGREE, moduli)
        assert [hi - lo for lo, hi, _, _ in kernel._blocks] == sizes
        _assert_boundary_parity(kernel, moduli)

    def test_a_cached_prefix_keeps_its_own_chunk(self, primes):
        BatchNttKernel(self.DEGREE, primes[:3])
        self._check(primes, [3, 6])

    def test_reversed_rows_run_one_limb_per_block(self, primes):
        BatchNttKernel(self.DEGREE, primes[:4])
        self._check(primes[3::-1], [1, 1, 1, 1])

    def test_a_repeated_modulus_starts_a_new_block(self, primes):
        self._check([primes[0], primes[0], primes[1]], [1, 2])

    def test_cached_and_fresh_moduli_interleave(self, primes):
        BatchNttKernel(self.DEGREE, primes[:2])
        self._check([primes[0], primes[5], primes[1]], [1, 1, 1])


class TestValidation:
    def test_rejects_empty_moduli(self):
        with pytest.raises(ValueError):
            BatchNttKernel(16, [])

    def test_rejects_oversized_modulus(self):
        degree = 16
        big = find_ntt_primes(40, degree, 1)
        with pytest.raises(ValueError, match="fast-path bound"):
            BatchNttKernel(degree, big)

    def test_rejects_wrong_shape(self):
        degree = 16
        primes = find_ntt_primes(30, degree, 2)
        kernel = BatchNttKernel(degree, primes)
        with pytest.raises(ValueError, match="residue matrix"):
            kernel.forward([[0] * degree])


class TestRingDispatch:
    """The ring layer picks the fast path and stays bit-exact."""

    def _poly(self, degree=32, limbs=3, seed=7):
        basis = RnsBasis(degree, find_ntt_primes(30, degree, limbs))
        rows = _random_rows(basis.moduli, degree, seed)
        return RnsPolynomial(basis, rows, Representation.COEFF)

    def test_fast_kernel_gated_by_toggle(self):
        poly = self._poly()
        assert poly.basis.fast_kernel() is not None
        with kernels.oracle_only():
            assert poly.basis.fast_kernel() is None
        assert poly.basis.fast_kernel() is not None

    def test_fast_kernel_none_for_big_moduli(self):
        degree = 32
        basis = RnsBasis(degree, find_ntt_primes(40, degree, 2))
        assert basis.fast_kernel() is None

    def test_to_eval_matches_oracle_path(self):
        poly = self._poly()
        fast = poly.to_eval()
        with kernels.oracle_only():
            slow = poly.to_eval()
        assert fast == slow
        assert fast.to_coeff() == poly

    def test_kernel_cache_shared_across_equal_bases(self):
        poly = self._poly()
        other = RnsBasis(poly.basis.degree, poly.basis.moduli)
        assert poly.basis.fast_kernel() is other.fast_kernel()
