import numpy as np
import pytest

from repro import kernels
from repro.ckks import (
    CkksContext,
    Encryptor,
    Evaluator,
    KeyGenerator,
    LinearTransform,
    Plaintext,
)
from repro.ckks.linear import matrix_diagonals
from repro.ckks.specialfft import SpecialFft
from repro.params.presets import toy_params


class TestMatrixDiagonals:
    def test_identity_has_single_diagonal(self):
        diags = matrix_diagonals(np.eye(8))
        assert set(diags) == {0}
        assert np.allclose(diags[0], np.ones(8))

    def test_shift_matrix_is_one_diagonal(self):
        shift = np.roll(np.eye(8), 1, axis=1)  # y_j = z_{j+1}
        diags = matrix_diagonals(shift)
        assert set(diags) == {1}

    def test_dense_matrix_has_all_diagonals(self, rng):
        m = rng.normal(size=(8, 8))
        assert len(matrix_diagonals(m)) == 8

    def test_zero_matrix_has_none(self):
        assert matrix_diagonals(np.zeros((8, 8))) == {}

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_diagonals(np.zeros((4, 8)))

    def test_diagonal_extraction_formula(self, rng):
        m = rng.normal(size=(8, 8))
        diags = matrix_diagonals(m)
        for d, diag in diags.items():
            for j in range(8):
                assert diag[j] == m[j, (j + d) % 8]


class TestApply:
    @pytest.fixture()
    def dense(self, rng):
        return rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))

    @pytest.mark.parametrize("method", ["hoisted", "bsgs"])
    def test_matvec(self, method, dense, encryptor, decryptor, evaluator, rng):
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        ct = encryptor.encrypt_values(z)
        out = LinearTransform(dense).apply(evaluator, ct, method=method)
        got = decryptor.decrypt_values(out)
        assert np.max(np.abs(got - dense @ z)) < 1e-3

    @pytest.mark.parametrize("method", ["hoisted"])
    def test_conjugate_aware(self, method, dense, encryptor, decryptor, evaluator, rng):
        m2 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        ct = encryptor.encrypt_values(z)
        out = LinearTransform(dense, m2).apply(evaluator, ct, method=method)
        got = decryptor.decrypt_values(out)
        want = dense @ z + m2 @ np.conj(z)
        assert np.max(np.abs(got - want)) < 1e-3

    def test_identity_transform(self, encryptor, decryptor, evaluator, rng):
        z = rng.normal(size=8)
        ct = encryptor.encrypt_values(z)
        out = LinearTransform(np.eye(8)).apply(evaluator, ct)
        assert np.max(np.abs(decryptor.decrypt_values(out) - z)) < 1e-3

    def test_sparse_matrix_uses_few_rotations(self):
        tridiag = np.eye(8) + np.roll(np.eye(8), 1, axis=1) + np.roll(np.eye(8), -1, axis=1)
        lt = LinearTransform(tridiag)
        assert len(lt.required_rotations()) == 2  # steps 1 and 7

    def test_consumes_one_level(self, dense, encryptor, evaluator, rng):
        ct = encryptor.encrypt_values(rng.normal(size=8))
        out = LinearTransform(dense).apply(evaluator, ct)
        assert out.num_limbs == ct.num_limbs - 1

    def test_no_rescale_keeps_level(self, dense, encryptor, evaluator, rng):
        ct = encryptor.encrypt_values(rng.normal(size=8))
        out = LinearTransform(dense).apply(evaluator, ct, rescale=False)
        assert out.num_limbs == ct.num_limbs

    def test_unknown_method_rejected(self, dense, encryptor, evaluator):
        ct = encryptor.encrypt_values([0.0] * 8)
        with pytest.raises(ValueError, match="unknown method 'turbo'"):
            LinearTransform(dense).apply(evaluator, ct, method="turbo")

    def test_all_zero_transform_rejected(self):
        with pytest.raises(ValueError, match="no non-zero diagonals"):
            LinearTransform(np.zeros((8, 8)))

    def test_empty_diagonal_dict_rejected(self):
        with pytest.raises(ValueError, match="no non-zero diagonals"):
            LinearTransform({})

    def test_all_zero_diagonal_dict_rejected(self):
        with pytest.raises(ValueError, match="no non-zero diagonals"):
            LinearTransform({0: np.zeros(8), 3: np.zeros(8)})

    def test_methods_agree(self, dense, encryptor, decryptor, evaluator, rng):
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        ct = encryptor.encrypt_values(z)
        lt = LinearTransform(dense)
        hoisted, bsgs = (
            decryptor.decrypt_values(lt.apply(evaluator, ct, method=m))
            for m in ("hoisted", "bsgs")
        )
        assert np.max(np.abs(hoisted - bsgs)) < 1e-3


class TestRequiredRotations:
    def test_naive_lists_diagonal_indices(self, rng):
        m = rng.normal(size=(8, 8))
        assert LinearTransform(m).required_rotations() == list(range(1, 8))

    def test_bsgs_needs_fewer_keys_for_dense(self, rng):
        m = rng.normal(size=(8, 8))
        lt = LinearTransform(m)
        assert len(lt.required_rotations("bsgs")) <= len(lt.required_rotations())

    @pytest.mark.parametrize("method", ["turbo", "naive"])
    def test_unknown_method_rejected(self, method, rng):
        lt = LinearTransform(rng.normal(size=(8, 8)))
        with pytest.raises(ValueError, match=f"unknown method '{method}'"):
            lt.required_rotations(method)

    def test_zero_dict_diagonal_needs_no_key(self):
        # A dict's all-zero diagonal is dropped as the matrix form drops
        # it, so no key is generated for a rotation apply would not use.
        lt = LinearTransform({0: np.ones(8), 3: np.zeros(8)})
        assert list(lt.diagonals) == [0]
        assert lt.required_rotations() == []
        assert lt.required_rotations("bsgs") == []

    def test_conjugation_flag(self, rng):
        m = rng.normal(size=(8, 8))
        assert not LinearTransform(m).needs_conjugation()
        assert LinearTransform(m, m).needs_conjugation()


class TestHoistedPlaintextRows:
    """The hoisted transform reads a diagonal's normal-basis rows off its
    raised-basis conversion; they must equal a direct conversion."""

    @pytest.mark.parametrize("oracle", [False, True], ids=["kernels", "oracle"])
    @pytest.mark.parametrize(
        "log_q, log_special",
        [(29, 29), (40, 40), (29, 31)],
        ids=["int64", "object", "int64-under-object"],
    )
    def test_selected_rows_equal_direct_conversion(
        self, log_q, log_special, oracle, rng
    ):
        ctx = CkksContext(
            toy_params(log_n=5, log_q=log_q, max_limbs=4, log_special=log_special)
        )
        diag = rng.normal(size=ctx.slots) + 1j * rng.normal(size=ctx.slots)
        pt = Plaintext(ctx.encoder.encode(list(diag)), ctx.scale)
        for limbs in (1, 3, 4):
            normal = ctx.basis_at(limbs)
            if oracle:
                with kernels.oracle_only():
                    raised = pt.to_poly(ctx.raised_basis(limbs))
                    direct = pt.to_poly(normal)
            else:
                raised = pt.to_poly(ctx.raised_basis(limbs))
                direct = pt.to_poly(normal)
            selected = raised.select_limbs(slice(0, limbs), normal)
            assert selected.limbs.dtype == normal.dtype
            assert selected == direct


class TestHoistedAgainstOracle:
    """The hoisted transform's lazily reduced sums equal the eager ring
    expressions it runs under ``kernels.oracle_only()``, limb for limb."""

    @staticmethod
    def _both(lt, ctx, steps, conjugate=False, seed=0):
        keygen = KeyGenerator(ctx)
        evaluator = Evaluator(
            ctx,
            rotation_keys={s: keygen.rotation_key(s) for s in steps},
            conjugation_key=keygen.conjugation_key() if conjugate else None,
        )
        rng = np.random.default_rng(seed)
        z = rng.normal(size=ctx.slots) + 1j * rng.normal(size=ctx.slots)
        ct = Encryptor(ctx, secret_key=keygen.secret_key).encrypt_values(z)
        fast = lt.apply(evaluator, ct, rescale=False)
        with kernels.oracle_only():
            reference = lt.apply(evaluator, ct, rescale=False)
        return fast, reference

    def test_dense_conjugate_aware_matrix_at_n32(self):
        # 16 + 16 diagonals: 32 terms into the c0 sum, past two
        # mid-sum reductions.
        ctx = CkksContext(
            toy_params(log_n=5, log_q=29, max_limbs=3, dnum=3, log_special=30),
            seed=5,
        )
        rng = np.random.default_rng(1)
        n = ctx.slots
        m1, m2 = (
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2)
        )
        lt = LinearTransform(m1, m2)
        assert len(lt.diagonals) + len(lt.conj_diagonals) >= 30
        fast, reference = self._both(lt, ctx, lt.required_rotations(), conjugate=True)
        assert fast.c0.limbs.dtype == np.int64
        assert fast.c0 == reference.c0 and fast.c1 == reference.c1
        assert fast.scale == reference.scale

    def test_special_fft_stage_at_n2048(self):
        ctx = CkksContext(
            toy_params(log_n=11, log_q=29, max_limbs=2, dnum=2, log_special=30),
            seed=3,
        )
        stages = SpecialFft(ctx.encoder).grouped_stage_diagonals(4, inverse=True)
        lt = LinearTransform(max(stages, key=len))
        assert len(lt.diagonals) >= 15
        fast, reference = self._both(lt, ctx, lt.required_rotations())
        assert fast.c0 == reference.c0 and fast.c1 == reference.c1
