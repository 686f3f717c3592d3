import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from posgen.config import RunConfig
from posgen.criteria import ProbeSet
from posgen.duality import trace_preservation_check
from posgen.errors import DimensionMismatch, SchemaError
from posgen.instances import InstanceRecipe, dephasing
from posgen.matrixcore import (
    CMatrix,
    as_matrix,
    as_matrix_stack,
    json_object,
    mat_exp,
    psd_margins,
    screened_least_eigvals,
    spectral_norm,
)
from posgen.semigroup import GeneratorSpec, SemigroupHandle
from posgen.superop import Superoperator

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

    def test_stack_of_different_sizes_names_the_shapes(self):
        """A stack whose members differ in size is a DimensionMismatch naming
        both shapes, from the stack helper and from the public calls that
        take a list of matrices."""
        calls = [
            lambda: as_matrix_stack([np.eye(2), np.eye(3)]),
            lambda: trace_preservation_check(SemigroupHandle(dephasing(2)),
                                             [np.eye(2) / 2, np.eye(3) / 3]),
            lambda: ProbeSet(selfadjoint=[np.eye(2), np.eye(3)], unitaries=[np.eye(2)]),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatch, match=re.escape("[(2, 2), (3, 3)]")):
                call()

    @pytest.mark.parametrize("members, index", [
        ([[[1, 2], [3]]], 0),
        ([np.eye(2), [[1, 2], [3]]], 1),
    ])
    def test_ragged_member_is_named(self, members, index):
        with pytest.raises(DimensionMismatch, match=f"member {index} is ragged"):
            as_matrix_stack(members)


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


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestScreenedLeastEigvals:
    """Each row's minimum and first argmin, and every finite entry, are eigvalsh's."""

    @staticmethod
    def stack(n, seed, exponents, psd, penalized, bad):
        """A (rows, b, n, n) hermitian stack drawn with repeats from a pool of 6.

        Each pool member has a scale 2^e, e from ``exponents``; a PSD member
        has zero rows and columns, so zero eigenvalues, the least value of
        several members.  ``bad`` makes one matrix or one penalty non-finite.
        """
        rng = np.random.default_rng(seed)
        g = rand_complex(rng, 6, n, n)
        if psd:
            g[:, rng.integers(0, n):, :] = 0.0
            pool = g @ g.conj().swapaxes(1, 2)
        else:
            pool = g + g.conj().swapaxes(1, 2)
        scale = 2.0 ** rng.choice(exponents, 6)
        pool *= scale[:, None, None]
        pool_penalty = np.abs(rng.standard_normal(6)) * scale * penalized
        pick = rng.integers(0, 6, (rng.integers(1, 4), rng.integers(1, 50)))
        herm, penalty = pool[pick], pool_penalty[pick]
        at = tuple(rng.integers(0, k) for k in pick.shape)
        if bad == "nan":
            herm[at][0, 0] = np.nan
        elif bad == "inf":
            herm[at][0, -1] = herm[at][-1, 0] = np.inf
        elif bad == "inf penalty":
            penalty[at] = np.inf
        return herm, penalty

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1),
           st.sampled_from([(0,), (-600,), (600,), (-600, 0, 600)]),
           st.booleans(), st.booleans(), st.sampled_from([None, "nan", "inf", "inf penalty"]))
    def test_equals_eigvalsh(self, n, seed, exponents, psd, penalized, bad):
        herm, penalty = self.stack(n, seed, exponents, psd, penalized, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                exact = np.linalg.eigvalsh(herm)[..., 0] - penalty
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    screened_least_eigvals(herm, penalty)
                return
            got = screened_least_eigvals(herm, penalty)
        k = np.argmin(exact, axis=-1)
        assert np.array_equal(np.argmin(got, axis=-1), k)
        rows = np.arange(len(k))
        assert np.array_equal(bits(got[rows, k]), bits(exact[rows, k]))
        # an entry that is not exact is +inf, and its exact value lies above
        # its row's minimum
        pruned = bits(got) != bits(exact)
        floor = np.broadcast_to(np.fmin.reduce(exact, axis=-1)[:, None], exact.shape)
        assert np.all(got[pruned] == np.inf) and np.all(exact[pruned] > floor[pruned])

    def test_screen_prunes_a_spread_row(self):
        # eigensolving every matrix would pass the test above too
        rng = np.random.default_rng(0)
        g = rand_complex(rng, 200, 4, 4)
        got = screened_least_eigvals(g + g.conj().swapaxes(1, 2), np.zeros(200))
        assert np.isinf(got).sum() >= 150

    def test_psd_margins_is_one_row(self):
        rng = np.random.default_rng(1)
        a = rand_complex(rng, 100, 3, 3)
        got = psd_margins(a)
        herm = (a + a.conj().swapaxes(1, 2)) / 2
        skew = np.abs(a - a.conj().swapaxes(1, 2)).max(axis=(1, 2)) / 2
        exact = np.linalg.eigvalsh(herm)[:, 0] - skew
        assert np.argmin(got) == np.argmin(exact) and bits(got.min()) == bits(exact.min())
        assert np.array_equal(bits(got[np.isfinite(got)]), bits(exact[np.isfinite(got)]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from([(0,), (-600, 0, 600)]), st.booleans(),
           st.sampled_from([None, "nan", "inf"]))
    def test_psd_margins_screens_each_row_alone(self, n, seed, exponents, hermitian, bad):
        # rows of b matrices drawn with repeats from a pool of 6; one row is
        # all zero matrices, as the dissipation at the unit probe is, so its
        # entries tie at exactly 0
        rng = np.random.default_rng(seed)
        pool = rand_complex(rng, 6, n, n) * 2.0 ** rng.choice(exponents, 6)[:, None, None]
        if hermitian:
            pool += pool.conj().swapaxes(1, 2)
        stack = pool[rng.integers(0, 6, (rng.integers(2, 5), rng.integers(1, 40)))]
        stack[rng.integers(0, len(stack))] = 0.0
        at = tuple(rng.integers(0, k) for k in stack.shape[:2])
        if bad == "nan":
            stack[at][0, 0] = np.nan
        elif bad == "inf":
            stack[at][0, -1] = np.inf
        # halving an infinite complex entry is an invalid operation
        with np.errstate(invalid="ignore"):
            herm = (stack + stack.conj().swapaxes(-1, -2)) / 2
            skew = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) / 2
            try:
                exact = np.linalg.eigvalsh(herm)[..., 0] - skew
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    psd_margins(stack)
                return
            got = psd_margins(stack)
            alone = [psd_margins(row) for row in stack]
        assert np.array_equal(bits(got), bits(np.stack(alone)))
        k = np.argmin(exact, axis=-1)
        assert np.array_equal(np.argmin(got, axis=-1), k)
        rows = np.arange(len(k))
        assert np.array_equal(bits(got[rows, k]), bits(exact[rows, k]))
        finite = np.isfinite(got)
        assert np.array_equal(bits(got[finite]), bits(exact[finite]))
        zero = np.flatnonzero(~stack.any(axis=(1, 2, 3)))
        assert np.all(exact[zero] == 0.0) and np.all(k[zero] == 0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_eigvalsh_of_a_subset_equals_its_rows(self, n, seed):
        # the screen's bit-identity rests on this: LAPACK solves each matrix
        # of a stack alone
        rng = np.random.default_rng(seed)
        g = rand_complex(rng, 3, 40, n, n) * 2.0 ** rng.integers(-600, 601)
        herm = g + g.conj().swapaxes(-1, -2)
        full = np.linalg.eigvalsh(herm)
        mask = rng.random((3, 40)) < 0.3
        assert np.array_equal(bits(np.linalg.eigvalsh(herm[mask])), bits(full[mask]))
        index = rng.integers(0, 40, rng.integers(1, 60))
        assert np.array_equal(bits(np.linalg.eigvalsh(herm[1, index])), bits(full[1, index]))


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

    def test_bool_dimension_rejected(self):
        payload = {"n": True, "re": [[1.0]], "im": [[0.0]]}
        with pytest.raises(SchemaError, match="positive integer"):
            CMatrix.from_json(payload)

    def test_shape_mismatch_rejected(self):
        payload = {"n": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]}
        with pytest.raises(SchemaError, match="re"):
            CMatrix.from_json(payload)

    def test_immutable(self):
        m = CMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0


ONE = {"n": 1, "re": [[0.0]], "im": [[0.0]]}

# each payload kind: its parser, a valid payload and one required field
# (None: the kind has no required field)
PAYLOADS = {
    "matrix": (CMatrix.from_json, ONE, "re"),
    "superoperator": (Superoperator.from_json, {"n": 1, "rep": ONE, "vec": "column-stacking"}, "rep"),
    "generator": (GeneratorSpec.from_json, {"n": 1, "kind": "hamiltonian", "H": ONE}, "H"),
    "instance recipe": (InstanceRecipe.from_json, {"family": "lindblad", "n": 2}, "n"),
    "config": (RunConfig.from_json, {"seed": 1}, None),
}
MALFORMED = [(kind, case) for kind in PAYLOADS for case in ("non-object", "missing", "unknown")
             if case != "missing" or PAYLOADS[kind][2]]


class TestJsonObject:
    @pytest.mark.parametrize("kind", PAYLOADS)
    def test_valid_payload_parses(self, kind):
        parse, payload, _ = PAYLOADS[kind]
        parse(payload)

    @pytest.mark.parametrize("kind,case", MALFORMED, ids=[" ".join(c) for c in MALFORMED])
    def test_malformed_payload_names_the_field(self, kind, case):
        parse, payload, field = PAYLOADS[kind]
        bad, message = {
            "non-object": ([payload], f"{kind} payload must be an object"),
            "missing": ({k: v for k, v in payload.items() if k != field},
                        f"missing field(s) ['{field}']"),
            "unknown": ({**payload, "bogus": 1}, "unknown field(s) ['bogus']"),
        }[case]
        with pytest.raises(SchemaError, match=re.escape(message)):
            parse(bad)

    def test_one_error_names_every_field(self):
        with pytest.raises(SchemaError) as exc:
            json_object({"a": 1, "y": 2, "x": 3}, "thing", ("a", "b", "c"), ("d",))
        assert str(exc.value) == (
            "thing payload: missing field(s) ['b', 'c'], unknown field(s) ['x', 'y']"
        )
