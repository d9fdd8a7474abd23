import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.ckks import (
    CkksContext,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    LinearTransform,
    Plaintext,
)
import repro.ckks.linear as linear
from repro.ckks.linear import bsgs_groups, matrix_diagonals
from repro.ckks.specialfft import SpecialFft
from repro.params.presets import toy_params
from repro.perf.matvec import bsgs_split


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

    @pytest.mark.parametrize("method", ["hoisted", "bsgs"])
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
        # The model's split for 3 diagonals has baby step 4: -1 = -4 + 3,
        # so babies 1 and 3 and giant 4 (mod 8): 3 inner products, as
        # bsgs_split(3, larger_baby=True) prices.
        assert lt.required_rotations() == [1, 3, 4]

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


def _banded(rng, n, offsets):
    """An ``n x n`` complex matrix with random diagonals at ``offsets``."""
    matrix = np.zeros((n, n), dtype=np.complex128)
    rows = np.arange(n)
    for d in offsets:
        matrix[rows, (rows + d) % n] = rng.normal(size=n) + 1j * rng.normal(size=n)
    return matrix


class TestDictOffsets:
    """A dict's offsets are reduced mod n: one rotation is one diagonal,
    and every method's keys are steps in [1, n)."""

    def test_negative_offset_runs_on_the_keys_it_lists(
        self, ctx, keygen, encryptor, decryptor, rng
    ):
        diag = rng.normal(size=8)
        lt = LinearTransform({-1: diag})
        assert list(lt.diagonals) == [7]
        steps = lt.required_rotations("bsgs")
        assert steps == [7]
        ev = Evaluator(ctx, rotation_keys={s: keygen.rotation_key(s) for s in steps})
        z = rng.normal(size=8)
        out = lt.apply(ev, encryptor.encrypt_values(z), method="bsgs")
        want = diag * np.roll(z, 1)  # y_j = diag_j * z_{j-1}
        assert np.max(np.abs(decryptor.decrypt_values(out) - want)) < 1e-3

    def test_offsets_equal_mod_n_are_one_diagonal(self, rng):
        diag = rng.normal(size=8)
        lt = LinearTransform({-3: diag, 5: diag})
        assert list(lt.diagonals) == [5]
        assert np.allclose(lt.diagonals[5], 2 * diag)
        assert lt.required_rotations("bsgs") == [5]

    def test_offsets_that_cancel_mod_n_are_dropped(self, rng):
        diag = rng.normal(size=8)
        with pytest.raises(ValueError, match="no non-zero diagonals"):
            LinearTransform({-3: diag, 5: -diag})

    @pytest.mark.parametrize(
        "matrix, conj_matrix",
        [({0: np.ones(8), 1: np.ones(4)}, None), (np.eye(8), np.eye(4))],
        ids=["dict", "conjugate"],
    )
    def test_diagonals_of_different_lengths_rejected(self, matrix, conj_matrix):
        with pytest.raises(ValueError, match=r"share one length, got \[4, 8\]"):
            LinearTransform(matrix, conj_matrix)

    @pytest.mark.parametrize("method", ["hoisted", "bsgs"])
    @settings(max_examples=30, deadline=None)
    @given(offsets=st.lists(st.integers(-40, 40), min_size=1, max_size=6))
    def test_steps_lie_in_one_to_n(self, method, offsets):
        lt = LinearTransform({d: np.ones(8) for d in offsets})
        assert all(1 <= s < 8 for s in lt.required_rotations(method))
        assert all(0 <= d < 8 for d in lt.diagonals)


class TestSplit:
    @settings(max_examples=60, deadline=None)
    @given(log_n=st.integers(1, 8), larger_baby=st.booleans(), data=st.data())
    def test_every_offset_is_its_giant_plus_its_baby(self, log_n, larger_baby, data):
        n = 1 << log_n
        offsets = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        )
        groups = bsgs_groups(offsets, n, larger_baby)
        placed = [d for babies in groups.values() for d in babies.values()]
        assert sorted(placed) == sorted(offsets)
        for giant, babies in groups.items():
            for baby, d in babies.items():
                assert 0 <= giant < n and 0 <= baby < n
                assert (giant + baby) % n == d
        baby_step = bsgs_split(len(offsets), larger_baby=larger_baby)[0]
        assert len({b for babies in groups.values() for b in babies}) <= baby_step

    def test_signed_offsets_set_the_stride(self):
        # {-6, -3, 0, 3} at n = 32: stride 3 and a baby step of 4 strides,
        # so -6 = -12 + 6 and -3 = -12 + 9 share one giant (-12 = 20 mod
        # 32).  Read unsigned, {26, 29, 0, 3} has stride 1 and two giants.
        assert bsgs_groups([26, 29, 0, 3], 32, larger_baby=True) == {
            0: {0: 0, 3: 3},
            20: {6: 26, 9: 29},
        }


class TestExactKeySets:
    """``apply`` reads every key ``required_rotations`` lists, and no other."""

    CASES = {
        "tridiagonal": ((0, 1, -1), None),
        "strided": ((0, 2, -2, 4), None),
        "dense": (range(8), None),
        "conjugate-aware": (range(8), (0, 3, -3)),
    }

    @pytest.mark.parametrize("method", ["hoisted", "bsgs"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_listed_keys_suffice_and_each_is_needed(
        self, case, method, ctx, keygen, encryptor, decryptor, rng
    ):
        offsets, conj_offsets = self.CASES[case]
        m1 = _banded(rng, 8, offsets)
        m2 = _banded(rng, 8, conj_offsets) if conj_offsets else None
        lt = LinearTransform(m1, m2)
        conj_key = keygen.conjugation_key() if m2 is not None else None
        steps = lt.required_rotations(method)
        keys = {s: keygen.rotation_key(s) for s in steps}
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        ct = encryptor.encrypt_values(z)

        ev = Evaluator(ctx, rotation_keys=keys, conjugation_key=conj_key)
        got = decryptor.decrypt_values(lt.apply(ev, ct, method=method))
        want = m1 @ z + (m2 @ np.conj(z) if m2 is not None else 0)
        assert np.max(np.abs(got - want)) < 1e-3
        for step in steps:
            fewer = {s: k for s, k in keys.items() if s != step}
            ev = Evaluator(ctx, rotation_keys=fewer, conjugation_key=conj_key)
            with pytest.raises(ValueError, match=f"no rotation key for {step} steps"):
                lt.apply(ev, ct, method=method)


class TestModelStructure:
    """At the four N = 2^11 CoeffToSlot stages (4, 15, 15 and 7
    diagonals), each method runs the structure
    :func:`repro.perf.matvec.pt_mat_vec_mult_cost` prices at the split
    ``bsgs_split(D, larger_baby=...)``: (baby-1)+(giant-1) inner
    products.  ``hoisted`` raises ``c1`` once plus once per non-zero
    giant step, brings each giant's ``c1`` down, and ends on one ModDown
    pair; ``bsgs`` pays a ModDown pair per rotation."""

    INNER_PRODUCTS = {"hoisted": [3, 8, 8, 4], "bsgs": [2, 6, 6, 4]}

    @pytest.fixture(scope="class")
    def env(self):
        ctx = CkksContext(
            toy_params(log_n=11, log_q=29, max_limbs=2, dnum=2, log_special=30),
            seed=3,
        )
        fft = SpecialFft(ctx.encoder)
        stages = [
            LinearTransform(stage)
            for stage in fft.grouped_stage_diagonals(4, inverse=True)
        ]
        keygen = KeyGenerator(ctx)
        steps = {
            s
            for lt in stages
            for method in ("hoisted", "bsgs")
            for s in lt.required_rotations(method)
        }
        ev = Evaluator(ctx, rotation_keys={s: keygen.rotation_key(s) for s in steps})
        rng = np.random.default_rng(0)
        z = rng.normal(size=ctx.slots) + 1j * rng.normal(size=ctx.slots)
        ct = Encryptor(ctx, secret_key=keygen.secret_key).encrypt_values(z)
        return stages, ev, ct, z, Decryptor(ctx, keygen.secret_key)

    @staticmethod
    def _spy(monkeypatch, counts, owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    @pytest.mark.parametrize("method", ["hoisted", "bsgs"])
    def test_runs_the_priced_structure(self, env, method, monkeypatch):
        stages, ev, ct, z, decryptor = env
        assert [len(lt.diagonals) for lt in stages] == [4, 15, 15, 7]
        counts = dict.fromkeys(
            ("ksk_inner_product", "raise_digits", "mod_down_pair", "mod_down"), 0
        )
        for name in ("ksk_inner_product", "raise_digits", "mod_down_pair"):
            self._spy(monkeypatch, counts, Evaluator, name)
        self._spy(monkeypatch, counts, linear, "mod_down")
        for lt, inner in zip(stages, self.INNER_PRODUCTS[method]):
            baby, giant = bsgs_split(len(lt.diagonals), larger_baby=method == "hoisted")
            assert inner == (baby - 1) + (giant - 1)
            counts.update(dict.fromkeys(counts, 0))
            out = lt.apply(ev, ct, method=method, rescale=False)
            if method == "hoisted":
                assert counts == {
                    "ksk_inner_product": inner,
                    "raise_digits": giant,
                    "mod_down_pair": 0,
                    "mod_down": 2 + (giant - 1),
                }
            else:
                assert counts == {
                    "ksk_inner_product": inner,
                    "raise_digits": giant,
                    "mod_down_pair": inner,
                    "mod_down": 0,
                }
            want = sum(
                diag * np.roll(z, -d) for d, diag in lt.diagonals.items()
            )
            # The scale is 2^24 at N = 2^11: noise alone is ~1e-3 here.
            got = decryptor.decrypt_values(out)
            assert np.max(np.abs(got - want)) < 1e-2

    def test_hoisted_stages_need_22_rotation_keys(self, env):
        # Babies 3 + 7 + 7 + 3 and giants 768, 992 and 1020, where 768
        # is also a baby of the first stage.  SlotToCoeff's stages have
        # the same offsets, so the N = 2^11 bootstrap makes these 22 keys.
        stages = env[0]
        steps = set().union(*(lt.required_rotations() for lt in stages))
        assert len(steps) == 22
        assert {768, 992, 1020} <= steps


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
        # Two sources of 16 diagonals, each with a non-zero giant step:
        # 8 + 8 terms into the output's c0 sum, past one mid-sum
        # reduction, and two giant steps turned into the raised sums.
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
        for diagonals in (lt.diagonals, lt.conj_diagonals):
            assert any(bsgs_groups(list(diagonals), n, larger_baby=True))
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
        assert any(bsgs_groups(list(lt.diagonals), lt.slots, larger_baby=True))
        fast, reference = self._both(lt, ctx, lt.required_rotations())
        assert fast.c0 == reference.c0 and fast.c1 == reference.c1
