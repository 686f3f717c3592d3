import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from posgen.errors import DimensionMismatch, SchemaError
from posgen.matrixcore import (
    CMatrix,
    as_matrix,
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


class TestAsMatrix:
    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


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


def exp_case(rng, n, log_norm, non_normal):
    """A complex n x n matrix of 1-norm 10**log_norm.

    A non-normal case is an upper triangular matrix under a unitary similarity.
    """
    g = rand_complex(rng, n, n)
    if non_normal:
        q, _ = np.linalg.qr(rand_complex(rng, n, n))
        g = q @ np.triu(g) @ q.conj().T
    return g * (10.0 ** log_norm / np.abs(g).sum(axis=0).max())


class TestMatExpStacked:
    """posgen's own scaling and squaring, checked against scipy's expm."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.floats(-8.0, 2.0), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_scipy(self, seed, n, log_norm, non_normal):
        a = exp_case(np.random.default_rng(seed), n, log_norm, non_normal)
        ref = scipy.linalg.expm(a)
        assert np.abs(mat_exp(a) - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("seed, log_norm, non_normal", [
        (0, -8.0, False), (1, -1.0, True), (2, 0.7, False), (3, 2.0, False), (4, 2.0, True),
    ])
    def test_agrees_with_scipy_at_64(self, seed, log_norm, non_normal):
        a = exp_case(np.random.default_rng(seed), 64, log_norm, non_normal)
        ref = scipy.linalg.expm(a)
        assert np.abs(mat_exp(a) - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_per_matrix_calls(self, seed, n, k):
        rng = np.random.default_rng(seed)
        cases = [exp_case(rng, n, rng.uniform(-8.0, 2.0), rng.random() < 0.5) for _ in range(k)]
        # triangular members take the exact-band path
        cases += [np.triu(cases[0]), np.tril(cases[-1])]
        stack = mat_exp(np.stack(cases))
        assert stack.shape == (len(cases), n, n)
        for got, a in zip(stack, cases):
            assert got.tobytes() == mat_exp(a).tobytes()

    @pytest.mark.parametrize("d", [-1e6, -1e20, -1e300, -1e20 + 3e19j])
    def test_stiff_triangular_is_exact(self, d):
        # scaling by 2^-s rounds -1 * 2^-s next to 1 to 1; the diagonal and
        # superdiagonal are rewritten exactly instead
        a = np.array([[d, 1.0], [0.0, -1.0]])
        e1, ed = np.exp(-1.0), np.exp(d)
        exact = np.array([[ed, (e1 - ed) / (-1.0 - d)], [0.0, e1]])
        for m, e in ((a, exact), (a.T, exact.T)):
            assert np.abs(mat_exp(m) - e).max() <= 1e-12 * np.abs(e).max()

    def test_close_diagonal_entries_do_not_cancel(self):
        # the superdiagonal is e^{(x+y)/2} sinh(g/2)/(g/2) with g = 1e-7 here,
        # which equals e^{-50 + 5e-8} to 1e-15; the plain quotient loses 9 digits
        a = np.array([[-50.0, 1.0], [0.0, -50.0 + 1e-7]])
        out = mat_exp(a)
        assert abs(out[0, 1] - np.exp(-50.0 + 5e-8)) <= 1e-13 * np.exp(-50.0)
        assert out[1, 0] == 0.0

    def test_overflow_is_non_finite_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = mat_exp(np.stack([np.full((3, 3), 400.0), np.diag([800.0, 0.0, 0.0])]))
        assert not np.isfinite(out[0]).all() and not np.isfinite(out[1]).all()

    def test_stack_checks(self):
        with pytest.raises(ValueError):
            mat_exp(np.stack([np.eye(2), np.full((2, 2), np.nan)]))
        with pytest.raises(DimensionMismatch):
            mat_exp(np.zeros((2, 2, 3)))


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
