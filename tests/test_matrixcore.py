import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posgen.errors import DimensionMismatch, SchemaError
from posgen.matrixcore import (
    CMatrix,
    classify_element,
    mat_exp,
    spectral_norm,
)

from conftest import SZ, rand_complex

EXP_TOL = 1e-12


def exp_series(m, terms=60):
    """Independent oracle: truncated power series for e^M."""
    acc = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        acc = acc + term
    return acc


class TestClassify:
    def test_identity(self):
        flags = classify_element(np.eye(2))
        assert flags.hermitian and flags.psd and flags.unitary
        assert flags.min_eig == pytest.approx(1.0, abs=1e-12)

    def test_sigma_z_is_hermitian_unitary_not_psd(self):
        flags = classify_element(np.diag([1.0, -1.0]))
        assert flags.hermitian and flags.unitary
        assert not flags.psd
        assert flags.min_eig == pytest.approx(-1.0, abs=1e-12)

    def test_nilpotent_is_nothing(self):
        flags = classify_element(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not flags.hermitian and not flags.psd and not flags.unitary
        assert flags.min_eig is None

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            classify_element(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            classify_element(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_random_hermitian_classified(self, seed, n):
        rng = np.random.default_rng(seed)
        g = rand_complex(rng, n, n)
        a = (g + g.conj().T) / 2
        flags = classify_element(a)
        assert flags.hermitian


class TestMatExp:
    def test_zero(self):
        assert np.allclose(mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        a, b = 0.3 - 1.1j, -2.0 + 0.4j
        out = mat_exp(np.diag([a, b]))
        assert np.allclose(out, np.diag([np.exp(a), np.exp(b)]), atol=1e-13)

    def test_rotation_quarter_turn(self):
        theta = np.pi / 2
        m = np.array([[0.0, -theta], [theta, 0.0]])
        expected = exp_series(m)
        out = mat_exp(m)
        assert np.abs(out - expected).max() <= EXP_TOL
        assert np.abs(out - np.array([[0.0, -1.0], [1.0, 0.0]])).max() <= EXP_TOL

    def test_non_normal_against_series(self):
        rng = np.random.default_rng(7)
        m = rand_complex(rng, 4, 4)
        m = m / spectral_norm(m) * 3.0
        assert np.abs(mat_exp(m) - exp_series(m)).max() <= 1e-11

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_one_parameter_group_law(self, seed):
        rng = np.random.default_rng(seed)
        g = rand_complex(rng, 3, 3)
        m = (g + g.conj().T) / 4
        s, t = rng.uniform(0, 2, size=2)
        left = mat_exp((s + t) * m)
        right = mat_exp(s * m) @ mat_exp(t * m)
        assert np.abs(left - right).max() <= 1e-10 * max(1.0, np.abs(left).max())


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-12)

    def test_rank_one(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2)
        w = np.array([1.0, 0.0])
        assert spectral_norm(np.outer(v, w.conj())) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = rand_complex(rng, 3, 3)
        q, _ = np.linalg.qr(rand_complex(rng, 3, 3))
        assert spectral_norm(q @ m) == pytest.approx(spectral_norm(m), rel=1e-10)


class TestCMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        a = CMatrix(rand_complex(rng, 3, 3))
        back = CMatrix.from_json(a.to_json())
        assert np.abs(back.a - a.a).max() <= 1e-15

    def test_unknown_field_rejected(self):
        payload = CMatrix(np.eye(2)).to_json()
        payload["extra"] = 1
        with pytest.raises(SchemaError, match="extra"):
            CMatrix.from_json(payload)

    def test_missing_field_rejected(self):
        payload = CMatrix(np.eye(2)).to_json()
        del payload["im"]
        with pytest.raises(SchemaError, match="im"):
            CMatrix.from_json(payload)

    def test_shape_mismatch_rejected(self):
        payload = {"n": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]}
        with pytest.raises(SchemaError, match="re"):
            CMatrix.from_json(payload)

    def test_immutable(self):
        m = CMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0
