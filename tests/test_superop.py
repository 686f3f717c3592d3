from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posgen.errors import DimensionMismatch, SchemaError
from posgen.matrixcore import DEFAULT_TOL
from posgen.semigroup import SemigroupHandle, resolvent
from posgen import superop
from posgen.superop import (
    Superoperator,
    apply,
    apply_stack,
    choi_matrix,
    compose,
    conjugation,
    contraction_check,
    cp_check,
    devec,
    hs_adjoint,
    identity_superop,
    is_symmetric_map,
    is_unital,
    positivity_check,
    positivity_checks,
    sandwich,
    transpose_map,
    vec,
)

from conftest import SX, SZ, rand_complex, signed_rate_rep


def choi_by_blocks(s):
    """Independent oracle: assemble sum_ij E_ij kron S(E_ij) block by block."""
    n = s.n
    c = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            c[i * n : (i + 1) * n, j * n : (j + 1) * n] = apply(s, e)
    return c


class TestVectorization:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rand_complex(rng, n, n)
        assert np.array_equal(devec(vec(x), n), x)

    def test_column_stacking_order(self):
        x = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.allclose(vec(x), [1.0, 2.0, 3.0, 4.0])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_sandwich_identity(self, seed, n):
        # vec(A X B) = (B^T kron A) vec(X)
        rng = np.random.default_rng(seed)
        a, b, x = (rand_complex(rng, n, n) for _ in range(3))
        lhs = np.kron(b.T, a) @ vec(x)
        assert np.abs(lhs - vec(a @ x @ b)).max() <= 1e-12 * max(1, np.abs(lhs).max())


class TestAlgebra:
    def test_apply_identity(self):
        rng = np.random.default_rng(0)
        x = rand_complex(rng, 3, 3)
        assert np.allclose(apply(identity_superop(3), x), x, atol=1e-14)

    def test_conjugation_by_sigma_x(self):
        out = apply(conjugation(SX), np.diag([1.0, 0.0]))
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-14)

    def test_sandwich_matches_products(self):
        rng = np.random.default_rng(1)
        a, b, x = (rand_complex(rng, 3, 3) for _ in range(3))
        assert np.allclose(apply(sandwich(a, b), x), a @ x @ b, atol=1e-12)

    def test_compose_conjugations(self):
        # compose is function composition, so conj(U) after conj(V) = conj(VU)
        rng = np.random.default_rng(2)
        u, _ = np.linalg.qr(rand_complex(rng, 3, 3))
        v, _ = np.linalg.qr(rand_complex(rng, 3, 3))
        left = compose(conjugation(u), conjugation(v))
        assert np.allclose(left.rep, conjugation(v @ u).rep, atol=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            apply(identity_superop(2), np.eye(3))
        with pytest.raises(DimensionMismatch):
            compose(identity_superop(2), identity_superop(3))


class TestPredicates:
    def test_conjugation_is_symmetric(self):
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rand_complex(rng, 3, 3))
        chk = is_symmetric_map(conjugation(u))
        assert chk.verdict and chk.margin <= 1e-12

    def test_multiplication_by_i_is_not_symmetric(self):
        chk = is_symmetric_map(Superoperator(2, 1j * np.eye(4)))
        assert not chk.verdict
        assert chk.margin == pytest.approx(2.0, abs=1e-12)

    def test_unital_examples(self):
        assert is_unital(identity_superop(3)).verdict
        trace_map = Superoperator(2, np.outer(vec(np.eye(2)), vec(np.eye(2))) / 2)
        assert is_unital(trace_map).verdict
        doubling = Superoperator(2, 2.0 * np.eye(4))
        chk = is_unital(doubling)
        assert not chk.verdict
        assert chk.margin == pytest.approx(1.0, abs=1e-12)


class TestChoi:
    def test_identity_map_choi(self):
        c = choi_matrix(identity_superop(2))
        assert np.allclose(c, choi_by_blocks(identity_superop(2)), atol=1e-14)
        w = np.linalg.eigvalsh(c)
        assert np.allclose(w, [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_transpose_choi_is_swap(self):
        s = transpose_map(2)
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        c = choi_matrix(s)
        assert np.allclose(c, swap, atol=1e-14)
        assert np.allclose(np.linalg.eigvalsh(c), [-1.0, 1.0, 1.0, 1.0], atol=1e-12)
        chk = cp_check(s)
        assert not chk.verdict
        assert chk.min_choi_eig == pytest.approx(-1.0, abs=1e-10)

    def test_trace_map_choi(self):
        s = Superoperator(2, np.outer(vec(np.eye(2)), vec(np.eye(2))) / 2)
        assert np.allclose(choi_matrix(s), np.eye(4) / 2, atol=1e-14)
        assert cp_check(s).verdict

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_choi_reshuffle_matches_blocks(self, seed, n):
        rng = np.random.default_rng(seed)
        s = Superoperator(n, rand_complex(rng, n * n, n * n))
        assert np.abs(choi_matrix(s) - choi_by_blocks(s)).max() <= 1e-13

    def test_cp_certifies_conjugation(self):
        rng = np.random.default_rng(6)
        u, _ = np.linalg.qr(rand_complex(rng, 3, 3))
        assert cp_check(conjugation(u)).verdict


class TestPositivityCheck:
    def test_identity_certified(self):
        out = positivity_check(identity_superop(2))
        assert out.status == "certified_positive"
        assert out.margin >= -1e-12
        assert out.witness is None

    def test_transpose_no_violation(self):
        out = positivity_check(transpose_map(2))
        assert out.status == "no_violation_found"
        assert out.margin >= -1e-12

    def test_negation_violated(self):
        out = positivity_check(Superoperator(2, -np.eye(4)))
        assert out.status == "violated"
        assert out.margin == pytest.approx(-1.0, abs=1e-10)
        assert out.witness is not None

    def test_skew_image_flagged(self):
        out = positivity_check(Superoperator(2, 1j * np.eye(4)))
        assert out.status == "violated"

    def test_witness_reproduces_margin(self):
        negation = Superoperator(3, -np.eye(9))
        out = positivity_check(negation)
        m = apply(negation, np.outer(out.witness, out.witness.conj()))
        re_eval = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0]) - np.abs(
            m - m.conj().T
        ).max()
        assert abs(re_eval - out.margin) <= 1e-12

    def test_descent_finds_hidden_direction(self):
        # S(x) = x - 3 * q x q with q a random rank-one projector: the global
        # minimum is exactly -2, attained only along the hidden direction w.
        out = positivity_check(hidden_direction_map(4, 11), seed=5)
        assert out.status == "violated"
        assert out.margin <= -2.0 + 1e-4
        assert out.margin >= -2.0 - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_seesaw_never_raises_a_vectors_value(self, n, seed):
        # x -> sum_k c_k a_k x a_k^* with signed c_k preserves hermiticity;
        # each half-step of the seesaw minimizes exactly, so along every
        # vector's path min_eig(herm S(vv*)) never rises beyond rounding
        rng = np.random.default_rng(seed)
        s = Superoperator(n, sum(c * sandwich(a, a.conj().T).rep
                                 for c, a in zip(rng.uniform(-1, 1, 3), rand_complex(rng, 3, n, n))))
        v = superop._seeded_starters(n, seed)[None, -superop._N_DESCENT:]
        with mock.patch.object(superop, "_f_batch", wraps=superop._f_batch) as f_batch:
            superop._descend(s.rep[None], v, np.array([np.inf]), np.empty((1, n), complex))
        path = [call.args[1][0] for call in f_batch.call_args_list]
        assert len(path) == superop._DESCENT_ITERS + 1

        def herm_min(x):
            m = apply(s, np.outer(x, x.conj()))
            return np.linalg.eigvalsh((m + m.conj().T) / 2)[0]

        values = np.array([[herm_min(x) for x in vs] for vs in path])
        slack = 1e-12 * np.abs(s.rep).max()
        assert np.all(np.diff(values, axis=0) <= slack)

    def test_deterministic(self):
        s = transpose_map(3)
        a = positivity_check(s, seed=9)
        b = positivity_check(s, seed=9)
        assert a.margin == b.margin and a.samples_used == b.samples_used


def hidden_direction_map(n, seed):
    """x - 3 q x q for a random rank-one projector q."""
    rng = np.random.default_rng(seed)
    w = rand_complex(rng, n)
    w /= np.linalg.norm(w)
    q = np.outer(w, w.conj())
    return Superoperator(n, np.eye(n * n) - 3.0 * sandwich(q, q).rep)


def looped_positivity_check(s, seed, tol=1e-9):
    """Reference: the search of one map as a plain loop, one seesaw per map.

    Its effort is written out: 64 random starters, the worst 8 alternating
    30 times between w = least eigenvector of herm S(vv*) and v = least
    eigenvector of herm S^*(ww*), on a copy of S scaled by the power of two
    that brings its largest entry into [1/2, 1).
    """
    n = s.n

    def f_batch(rep, v):
        p = v[:, :, None] * v.conj()[:, None, :]
        vecs = p.transpose(0, 2, 1).reshape(len(v), n * n)
        m = (vecs @ rep.T).reshape(len(v), n, n).swapaxes(1, 2)
        skew = np.abs(m - m.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        w, u = np.linalg.eigh((m + m.conj().transpose(0, 2, 1)) / 2)
        return w[:, 0] - skew, u[:, :, 0]

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x705)))
    g = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    starters = np.concatenate([superop._structured_unit_vectors(n), g])
    fvals, _ = f_batch(s.rep, starters)
    evals = len(starters)
    best_val = float(fvals.min())
    best_vec = starters[int(np.argmin(fvals))]
    certified = cp_check(s, tol).verdict
    if not certified:
        unit = 2.0 ** min(-np.frexp(np.abs(s.rep).max())[1], 1023)
        rep = s.rep * unit
        best_val *= unit
        v = starters[np.argsort(fvals)[:8]].copy()
        for it in range(30 + 1):
            f, wmin = f_batch(rep, v)
            evals += len(v)
            k = int(np.argmin(f))
            if f[k] < best_val:
                best_val, best_vec = float(f[k]), v[k].copy()
            if it == 30:
                break
            ww = wmin[:, :, None] * wmin.conj()[:, None, :]
            gvec = ww.transpose(0, 2, 1).reshape(len(v), n * n) @ rep.conj()
            gm = gvec.reshape(len(v), n, n).swapaxes(1, 2)
            v = np.linalg.eigh((gm + gm.conj().transpose(0, 2, 1)) / 2)[1][:, :, 0]
        best_val /= unit
    rescored = float(f_batch(s.rep, best_vec[None])[0][0])
    margin = min(rescored, best_val)
    if certified:
        return superop.ConeVerdict("certified_positive", margin, evals)
    if margin < -tol:
        return superop.ConeVerdict("violated", rescored, evals, best_vec)
    return superop.ConeVerdict("no_violation_found", margin, evals)


class TestStackedPositivityChecks:
    def mixed_stack(self, n):
        return [
            identity_superop(n),
            transpose_map(n),
            Superoperator(n, -np.eye(n * n)),
            hidden_direction_map(n, 11),
            Superoperator(n, 1j * np.eye(n * n)),
        ]

    @pytest.mark.parametrize("n", [2, 4])
    def test_equals_per_map_searches(self, n):
        maps = self.mixed_stack(n)
        stacked = positivity_checks(maps, [5] * len(maps))
        single = [positivity_check(m, 5) for m in maps]
        looped = [looped_positivity_check(m, 5) for m in maps]
        assert len(stacked) == len(maps)
        for a, b, c in zip(stacked, single, looped):
            assert a.status == b.status == c.status
            assert a.margin == b.margin == c.margin
            assert a.samples_used == b.samples_used == c.samples_used
            if c.witness is None:
                assert a.witness is None and b.witness is None
            else:
                assert a.witness.tobytes() == b.witness.tobytes() == c.witness.tobytes()
        assert [v.status for v in stacked] == [
            "certified_positive",
            "no_violation_found",
            "violated",
            "violated",
            "violated",
        ]

    @pytest.mark.parametrize("n", [2, 4])
    def test_huge_maps_search_like_unit_scale_ones(self, n):
        # the descent on a map with entries near 2**600 overflowed to NaN and
        # eigh raised.  Positivity is scale-invariant, so the violated maps
        # keep their verdicts; the others' margins are rounding noise, which
        # absolute tolerances judge differently at this scale
        maps = self.mixed_stack(n)
        huge = positivity_checks(
            [Superoperator(m.n, 2.0 ** 600 * m.rep) for m in maps], [0] * len(maps)
        )
        assert all(np.isfinite(v.margin) for v in huge)
        for a, b in zip(huge[2:], positivity_checks(maps[2:], [0] * 3)):
            assert a.status == b.status == "violated"
            assert a.margin == pytest.approx(2.0 ** 600 * b.margin, rel=1e-9)

    @pytest.mark.parametrize("which", [2, 3, 4, "resolvent"])
    def test_margins_scale_exactly_with_the_map(self, which):
        # every map descends at the power-of-two scale of its largest entry,
        # so a map scaled by 2**k, searched at a tolerance scaled alike, gets
        # the same search: same status and witness, margin times 2**k.  The
        # resolvent is signed-rate seed 10's R_lam at lam = 10, entries ~0.1
        if which == "resolvent":
            phi = resolvent(SemigroupHandle(Superoperator(2, signed_rate_rep(10))), 10.0)
        else:
            phi = self.mixed_stack(4)[which]
        base = positivity_checks([phi], [0])[0]
        assert base.status == "violated"
        for k in range(-20, 21):
            scaled = Superoperator(phi.n, 2.0 ** k * phi.rep)
            out = positivity_checks([scaled], [0], 2.0 ** k * DEFAULT_TOL)[0]
            assert out.status == base.status
            assert out.margin == 2.0 ** k * base.margin
            assert out.witness.tobytes() == base.witness.tobytes()

    def test_subnormal_maps_descend_at_a_finite_scale(self):
        # no finite power of two brings a largest entry of 2**-1060 to unit
        # scale; an infinite one turned the descent into NaN
        tiny = Superoperator(2, -(2.0 ** -1060) * np.eye(4))
        with np.errstate(invalid="raise", over="raise"):
            out = positivity_checks([tiny], [0], 0.0)[0]
        assert out.status == "violated"

    @pytest.mark.parametrize("n", [2, 4])
    def test_per_map_budgets_equal_per_map_searches(self, n, monkeypatch):
        maps = self.mixed_stack(n)
        seeds = [5, 6, 5, 7, 6]
        draws = []
        seeded_starters = superop._seeded_starters

        def counted(n, seed):
            draws.append(seed)
            return seeded_starters(n, seed)

        monkeypatch.setattr(superop, "_seeded_starters", counted)
        stacked = positivity_checks(maps, seeds)
        assert sorted(draws) == [5, 6, 7]  # each distinct seed draws once
        for a, m, seed in zip(stacked, maps, seeds):
            c = looped_positivity_check(m, seed)
            assert (a.status, a.margin, a.samples_used) == (c.status, c.margin, c.samples_used)
            if c.witness is None:
                assert a.witness is None
            else:
                assert a.witness.tobytes() == c.witness.tobytes()

    def test_budget_sequence_of_wrong_length_rejected(self):
        maps = self.mixed_stack(2)
        with pytest.raises(ValueError, match="seeds"):
            positivity_checks(maps, [0] * (len(maps) - 1))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            positivity_checks([], [])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            positivity_checks([identity_superop(2), identity_superop(3)], [0, 0])


class TestContractionCheck:
    def test_conjugation_certified(self):
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rand_complex(rng, 3, 3))
        out = contraction_check(conjugation(u))
        assert out.status == "certified_contraction"
        assert out.norm_lower_bound == pytest.approx(1.0, abs=1e-9)

    def test_doubling_violated(self):
        out = contraction_check(Superoperator(2, 2.0 * np.eye(4)))
        assert out.status == "violated"
        assert out.norm_lower_bound >= 2.0 - 1e-9

    def test_transpose_is_isometry(self):
        out = contraction_check(transpose_map(3))
        assert out.status == "no_violation_found"
        assert out.norm_lower_bound == pytest.approx(1.0, abs=1e-9)


class TestHsAdjoint:
    def test_conjugation_adjoint(self):
        rng = np.random.default_rng(8)
        u, _ = np.linalg.qr(rand_complex(rng, 3, 3))
        adj = hs_adjoint(conjugation(u))
        assert np.allclose(adj.rep, sandwich(u, u.conj().T).rep, atol=1e-12)

    def test_involution_exact(self):
        rng = np.random.default_rng(9)
        s = Superoperator(3, rand_complex(rng, 9, 9))
        assert np.array_equal(hs_adjoint(hs_adjoint(s)).rep, s.rep)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pairing_identity(self, seed):
        rng = np.random.default_rng(seed)
        s = Superoperator(3, rand_complex(rng, 9, 9))
        a, b = rand_complex(rng, 3, 3), rand_complex(rng, 3, 3)
        lhs = np.trace(apply(s, a).conj().T @ b)
        rhs = np.trace(a.conj().T @ apply(hs_adjoint(s), b))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_apply_stack_equals_apply(self, seed, n):
        rng = np.random.default_rng(seed)
        maps = [Superoperator(n, rand_complex(rng, n * n, n * n)) for _ in range(2)]
        xs = rand_complex(rng, 2, 4, n, n)
        # one map over a stack, a stack of maps over a matching stack, and
        # the adjoint through the conjugated rep
        one = apply_stack(maps[0].rep.T, xs[0])
        many = apply_stack(np.stack([s.rep.T for s in maps]), xs)
        adj = apply_stack(maps[0].rep.conj(), xs[0])
        for k, x in enumerate(xs[0]):
            assert np.abs(one[k] - apply(maps[0], x)).max() <= 1e-12
            assert np.abs(adj[k] - apply(hs_adjoint(maps[0]), x)).max() <= 1e-12
        for i, s in enumerate(maps):
            for k, x in enumerate(xs[i]):
                assert np.abs(many[i, k] - apply(s, x)).max() <= 1e-12


class TestSuperopJson:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        s = Superoperator(2, rand_complex(rng, 4, 4))
        back = Superoperator.from_json(s.to_json())
        assert np.abs(back.rep - s.rep).max() <= 1e-15

    def test_vec_field_mandatory(self):
        payload = identity_superop(2).to_json()
        del payload["vec"]
        with pytest.raises(SchemaError, match="vec"):
            Superoperator.from_json(payload)

    def test_vec_field_validated(self):
        payload = identity_superop(2).to_json()
        payload["vec"] = "row-stacking"
        with pytest.raises(SchemaError, match="column-stacking"):
            Superoperator.from_json(payload)

    def test_unknown_field_rejected(self):
        payload = identity_superop(2).to_json()
        payload["note"] = "hi"
        with pytest.raises(SchemaError, match="note"):
            Superoperator.from_json(payload)
