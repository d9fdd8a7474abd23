import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.ckks import Ciphertext, Encoder, Plaintext
from repro.ring import RnsBasis, RnsPolynomial


@pytest.fixture(scope="module")
def encoder():
    return Encoder(degree=16, default_scale=2.0**30)


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Encoder(degree=12, default_scale=2.0**20)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            Encoder(degree=16, default_scale=0)

    def test_slot_count(self, encoder):
        assert encoder.slots == 8

    @pytest.mark.parametrize("log_degree", range(2, 17))
    def test_rot_group_is_the_powers_of_five(self, log_degree):
        degree = 1 << log_degree
        enc = Encoder(degree=degree, default_scale=2.0**20)
        powers = [pow(5, j, 2 * degree) for j in range(degree // 2)]
        assert enc.rot_group == powers
        assert all(type(e) is int for e in enc.rot_group)
        assert enc._slot_index.tolist() == [(e - 1) // 2 for e in powers]


class TestEmbedProject:
    def test_project_inverts_embed(self, encoder, rng):
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        recovered = encoder.project(encoder.embed(z))
        assert np.allclose(recovered, z)

    def test_embed_inverts_project_for_real_coeffs(self, encoder, rng):
        c = rng.normal(size=16)
        assert np.allclose(encoder.embed(encoder.project(c)), c)

    def test_embed_is_real(self, encoder, rng):
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert encoder.embed(z).dtype == np.float64

    def test_embed_linear(self, encoder, rng):
        z1 = rng.normal(size=8) + 1j * rng.normal(size=8)
        z2 = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.allclose(
            encoder.embed(z1 + z2), encoder.embed(z1) + encoder.embed(z2)
        )

    def test_wrong_lengths_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.embed(np.zeros(4))
        with pytest.raises(ValueError):
            encoder.project(np.zeros(8))


class TestEncodeDecode:
    def test_round_trip(self, encoder, rng):
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        decoded = encoder.decode(encoder.encode(z))
        assert np.max(np.abs(decoded - z)) < 1e-6

    def test_round_trip_custom_scale(self, encoder, rng):
        z = rng.normal(size=8)
        decoded = encoder.decode(encoder.encode(z, 2.0**20), 2.0**20)
        assert np.max(np.abs(decoded - z)) < 1e-4

    def test_coefficients_are_integers(self, encoder):
        coeffs = encoder.encode([0.5] * 8)
        assert all(isinstance(c, int) for c in coeffs)

    def test_constant_vector_encodes_to_constant_poly(self, encoder):
        coeffs = encoder.encode([1.0] * 8)
        # A constant slot vector is the constant polynomial Delta * 1.
        assert coeffs[0] == pytest.approx(2**30, rel=1e-9)
        assert all(abs(c) <= 1 for c in coeffs[1:])

    @settings(max_examples=25)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            min_size=8,
            max_size=8,
        )
    )
    def test_round_trip_property(self, values):
        encoder = Encoder(degree=16, default_scale=2.0**30)
        decoded = encoder.decode(encoder.encode(values))
        assert np.max(np.abs(decoded - np.asarray(values))) < 1e-5


def comprehension(real_coeffs):
    return [int(round(c)) for c in real_coeffs]


class TestEncodeRounding:
    """``np.rint`` against the ``round`` comprehension it replaces."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            min_size=8,
            max_size=8,
        ),
        st.sampled_from([1.0, 2.0**20, 2.0**30, 2.0**40]),
    )
    def test_matches_comprehension(self, values, scale):
        encoder = Encoder(degree=16, default_scale=2.0**30)
        got = encoder.encode(values, scale)
        assert got == comprehension(encoder.embed(values) * scale)
        with kernels.oracle_only():
            assert encoder.encode(values, scale) == got
        assert all(type(c) is int for c in got)

    @pytest.mark.parametrize(
        "coeffs",
        [
            # Exact .5 ties round half to even on both paths.
            [0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 3.5, -3.5]
            + [2.0**52 - 0.5, -(2.0**52 - 0.5), 1e15 + 0.5, 4.5, 0.0, -0.0, 0.49, -0.51],
            # Just below the int64 bound: the rint path.
            [2.0**62 - 1024, -(2.0**62 - 1024)] + [0.5] * 14,
            # At the bound and past int64: exact Python ints from the
            # comprehension, where int64 would wrap.
            [2.0**62, -(2.0**62), 2.0**63, -(2.0**63), 2.0**63 + 2048.0]
            + [1.5] * 11,
            [2.0**64 + 2.0**12, -(2.0**64), 3.0 * 2.0**70] + [2.5] * 13,
        ],
        ids=["ties", "below-bound", "beyond-int64", "huge"],
    )
    def test_prescribed_coefficients(self, monkeypatch, coeffs):
        encoder = Encoder(degree=16, default_scale=1.0)
        real = np.array(coeffs, dtype=np.float64)
        monkeypatch.setattr(encoder, "embed", lambda values: real)
        got = encoder.encode([0.0] * 8)
        assert got == comprehension(real)
        assert all(type(c) is int for c in got)
        with kernels.oracle_only():
            assert encoder.encode([0.0] * 8) == got

    # numpy warns on the way to the non-finite coefficients.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("oracle", [False, True], ids=["fast", "oracle"])
    @pytest.mark.parametrize(
        "values, scale",
        [
            ([math.nan] + [0.0] * 7, 2.0**30),
            ([math.inf] + [0.0] * 7, 2.0**30),
            ([complex(0.0, -math.inf)] + [0.0] * 7, 2.0**30),
            ([1e300] * 8, 1e300),
        ],
        ids=["nan", "inf", "imag-inf", "overflow"],
    )
    def test_non_finite_coefficients_raise(self, encoder, values, scale, oracle):
        if oracle:
            with kernels.oracle_only(), pytest.raises(ValueError, match="finite"):
                encoder.encode(values, scale)
        else:
            with pytest.raises(ValueError, match="finite"):
                encoder.encode(values, scale)


class TestDecodeConversion:
    """One ``np.asarray`` against the ``float()`` comprehension it replaces."""

    @staticmethod
    def near(power):
        """Ints around ``2**power``, ties between two doubles included."""
        base = 2**power
        ulp = 2 ** max(power - 52, 0)
        return [base - 1, base, base + 1, base + ulp // 2, base + ulp + ulp // 2]

    @pytest.mark.parametrize("power", [53, 62, 64], ids=["2^53", "2^62", "2^64"])
    @pytest.mark.parametrize("sign", [1, -1], ids=["pos", "neg"])
    def test_matches_float_comprehension(self, encoder, power, sign):
        values = [sign * v for v in self.near(power)] + [0, 1, -1]
        coeffs = (values * 4)[: encoder.degree]
        scale = 2.0**30
        want = encoder.project([float(c) for c in coeffs]) / scale
        assert np.array_equal(encoder.decode(coeffs, scale), want)

    def test_int64_array_and_object_array_convert_alike(self, encoder):
        coeffs = self.near(53) + [-(2**63), 2**63 - 1] + [0] * 9
        want = encoder.decode(coeffs)
        assert np.array_equal(encoder.decode(np.array(coeffs, dtype=np.int64)), want)
        assert np.array_equal(encoder.decode(np.array(coeffs, dtype=object)), want)


class TestScaleValidation:
    """A bad scale is a named ``ValueError``, never a silent result."""

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -4.0, 0.0])
    def test_encode(self, encoder, scale):
        with pytest.raises(ValueError, match="encode scale"):
            encoder.encode([1.0] * 8, scale)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_plaintext(self, scale):
        with pytest.raises(ValueError, match="Plaintext scale"):
            Plaintext([0] * 16, scale)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    def test_ciphertext(self, scale):
        basis = RnsBasis.generate(16, 30, 2)
        zero = RnsPolynomial.zero(basis)
        with pytest.raises(ValueError, match="Ciphertext scale"):
            Ciphertext(zero, zero.clone(), scale)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -2.0**20])
    def test_encoder(self, scale):
        with pytest.raises(ValueError, match="Encoder default_scale"):
            Encoder(degree=16, default_scale=scale)

    def test_finite_positive_scales_accepted(self):
        assert Plaintext([0] * 16, np.float64(2.0**30)).scale == 2.0**30
        assert Plaintext([0] * 16, 3).scale == 3


class TestGaloisIndices:
    def test_rotation_index_is_power_of_five(self, encoder):
        assert encoder.rotation_automorphism(1) == 5
        assert encoder.rotation_automorphism(2) == 25 % 32

    def test_rotation_wraps_mod_slots(self, encoder):
        assert encoder.rotation_automorphism(9) == encoder.rotation_automorphism(1)

    def test_zero_rotation_is_identity(self, encoder):
        assert encoder.rotation_automorphism(0) == 1

    def test_conjugation_index(self, encoder):
        assert encoder.conjugation_automorphism == 31
