from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posgen.errors import DimensionMismatch, SchemaError
from posgen.instances import flip_nonpositive, random_lindblad, transpose_mixing
from posgen.matrixcore import DEFAULT_TOL
from posgen.semigroup import (
    SemigroupHandle,
    build_superoperator,
    evolve,
    family_maps,
    generator_certificate,
    lambda_grid,
    lindblad_rep,
    resolvent,
)
from posgen import semigroup, superop
from posgen.superop import (
    Superoperator,
    apply,
    apply_stack,
    choi_matrix,
    compose,
    contraction_check,
    contraction_checks,
    cp_check,
    devec,
    is_symmetric_map,
    is_unital,
    positivity_check,
    positivity_checks,
    transpose_map,
    vec,
)

from conftest import (
    SX,
    SZ,
    conjugation,
    flip_plus_lindblad,
    forced_split,
    full_contraction_search,
    hs_adjoint,
    identity_superop,
    rand_complex,
    sandwich,
    signed_rate_rep,
)


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

    @pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symmetry_margin_is_choi_hermiticity_deviation(self, n, scale):
        # a map is symmetric iff its Choi matrix C is hermitian, and the margin
        # is max|C - C*| bit for bit
        rng = np.random.default_rng(n)
        maps = [Superoperator(n, scale * rand_complex(rng, n * n, n * n)) for _ in range(6)]
        h = SemigroupHandle(transpose_mixing(random_lindblad(n, 1, n)))
        maps += [Superoperator(n, scale * evolve(h, t).rep) for t in (0.1, 1.0, 10.0)]
        for s in maps:
            herm_dev = superop._cp_checks(s.rep[None], n, DEFAULT_TOL)[2][0]
            assert is_symmetric_map(s).margin == herm_dev

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

    def test_cp_check_near_the_largest_double(self):
        # herm(C) = C/2 + C*/2 stays finite where C + C* would overflow
        chk = cp_check(Superoperator(2, 2.0**1023 * np.eye(4)))
        assert chk.verdict and chk.min_choi_eig == 0.0


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
    that brings its largest entry into [1/2, 1).  The CP certificate and the
    violation threshold judge that copy too.  The starters are scored by
    eigenvalues alone; the seesaw and the final re-score take eigenvectors.
    """
    n = s.n

    def f_batch(rep, v, vectors=True):
        p = v[:, :, None] * v.conj()[:, None, :]
        vecs = p.transpose(0, 2, 1).reshape(len(v), n * n)
        m = (vecs @ rep.T).reshape(len(v), n, n).swapaxes(1, 2)
        skew = np.abs(m - m.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        herm = (m + m.conj().transpose(0, 2, 1)) / 2
        if not vectors:
            return np.linalg.eigvalsh(herm)[:, 0] - skew
        w, u = np.linalg.eigh(herm)
        return w[:, 0] - skew, u[:, :, 0]

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x705)))
    g = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    starters = np.concatenate([superop._structured_unit_vectors(n), g])
    fvals = f_batch(s.rep, starters, vectors=False)
    evals = len(starters)
    best_val = float(fvals.min())
    best_vec = starters[int(np.argmin(fvals))]
    unit = 2.0 ** min(-np.frexp(np.abs(s.rep).max())[1], 1023)
    rep = s.rep * unit
    certified = cp_check(Superoperator(n, rep), tol).verdict
    if not certified:
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
    if margin * unit < -tol:
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

    @pytest.mark.parametrize(
        "base, k, status",
        [
            (identity_superop(4), 600, "certified_positive"),
            (transpose_map(2), 600, "no_violation_found"),
            (transpose_map(2), -600, "no_violation_found"),
        ],
    )
    def test_verdicts_do_not_depend_on_the_scale(self, base, k, status):
        # the certificate and the violation threshold judge the map at unit
        # scale: at 2**600 rounding noise of the Choi matrix and of the
        # descent's values is far beyond an absolute tol, at 2**-600 the
        # transpose's Choi eigenvalue -2**-600 is far inside it
        assert positivity_checks([base], [0])[0].status == status
        out = positivity_checks([Superoperator(base.n, 2.0**k * base.rep)], [0])[0]
        assert out.status == status
        assert out.witness is None

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


def f_values(rep, v):
    """f(v) = min_eig(herm S(vv*)) - max|S(vv*) - S(vv*)*| at every vector, unscreened."""
    herm, skew = superop._image_parts(rep.T, v)
    return np.linalg.eigvalsh(herm)[..., 0] - skew


def choi_floor(s):
    """min_eig(herm C) - n^2 max|C - C*| of the Choi matrix C, from choi_matrix."""
    c = choi_matrix(s)
    herm_min = np.linalg.eigvalsh((c + c.conj().T) / 2)[0]
    return herm_min - s.n**2 * np.abs(c - c.conj().T).max()


class TestGroupedPositivityChecks:
    """A grouped search reports each group's least margin as the ungrouped one does."""

    N = 4
    STARTERS = N + 2 + superop._N_RANDOM

    def stack(self):
        # four groups, interleaved; "positive" has no map violated at its
        # starters, and its label shows that any hashable label will do
        h = SemigroupHandle(flip_plus_lindblad(self.N, 6))
        semigroup = [evolve(h, t) for t in (0.1, 1.0, 10.0)]
        resolvents = [resolvent(h, lam) for lam in (2.0, 20.0, 200.0)]
        mixed = TestStackedPositivityChecks().mixed_stack(self.N)
        h = SemigroupHandle(transpose_mixing(random_lindblad(self.N, 2, 5)))
        positive = [transpose_map(self.N), evolve(h, 1.0), identity_superop(self.N), evolve(h, 0.1)]
        labelled = [("semigroup", m) for m in semigroup] + [("resolvent", m) for m in resolvents]
        labelled += [("mixed", m) for m in mixed] + [(("positive", 0), m) for m in positive]
        order = np.random.default_rng(3).permutation(len(labelled))
        groups = [labelled[i][0] for i in order]
        maps = [labelled[i][1] for i in order]
        seed_of = {"semigroup": 5, "resolvent": 6, "mixed": 7, ("positive", 0): 8}
        seeds = [seed_of[g] for g in groups]
        return maps, seeds, groups

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0])
    def test_group_minima_and_statuses_equal_the_ungrouped_search(self, tol):
        # at tol = 0 the slack is rounding alone
        maps, seeds, groups = self.stack()
        grouped = positivity_checks(maps, seeds, tol, groups)
        plain = positivity_checks(maps, seeds, tol)
        assert [v.status for v in grouped] == [v.status for v in plain]
        for g in dict.fromkeys(groups):
            rows = [i for i, label in enumerate(groups) if label == g]
            got = [grouped[i].margin for i in rows]
            want = [plain[i].margin for i in rows]
            assert min(got) == min(want)
            assert int(np.argmin(got)) == int(np.argmin(want))

    def test_bounded_maps_keep_an_honest_margin(self):
        maps, seeds, groups = self.stack()
        grouped = positivity_checks(maps, seeds, DEFAULT_TOL, groups)
        plain = positivity_checks(maps, seeds)
        bounded = [i for i, v in enumerate(grouped)
                   if v.status != "certified_positive" and v.samples_used == self.STARTERS]
        # the two lesser T_t and R_lam of each condition are bounded
        assert sorted(groups[i] for i in bounded) == ["resolvent"] * 2 + ["semigroup"] * 2
        for i, (a, b) in enumerate(zip(grouped, plain)):
            if i in bounded:
                assert a.status == "violated"
                assert a.margin >= choi_floor(maps[i])
                assert a.margin >= b.margin  # the descent only lowers a margin
                m = apply(maps[i], np.outer(a.witness, a.witness.conj()))
                re_eval = np.linalg.eigvalsh((m + m.conj().T) / 2)[0] - np.abs(m - m.conj().T).max()
                assert re_eval == pytest.approx(a.margin, rel=1e-12)
            else:  # every other map searches as it does alone
                assert (a.status, a.margin, a.samples_used) == (b.status, b.margin, b.samples_used)
                assert (a.witness is None) == (b.witness is None)
                if a.witness is not None:
                    assert a.witness.tobytes() == b.witness.tobytes()

    def test_group_without_starter_violation_descends_every_map(self):
        maps, seeds, groups = self.stack()
        grouped = positivity_checks(maps, seeds, DEFAULT_TOL, groups)
        positive = [v for v, g in zip(grouped, groups) if g == ("positive", 0)]
        # the transpose and both T_t are positive but not CP: all three descend
        assert sorted(v.status for v in positive) == ["certified_positive"] + ["no_violation_found"] * 3
        for v in positive:
            if v.status != "certified_positive":
                assert v.samples_used == self.STARTERS + (superop._DESCENT_ITERS + 1) * superop._N_DESCENT

    def test_singleton_groups_and_no_groups_equal_per_map_searches(self):
        # a map's own starters never lie below its own floor, so a group of one
        # descends as the ungrouped search does
        maps, seeds, _ = self.stack()
        for groups in (None, range(len(maps))):
            out = positivity_checks(maps, seeds, DEFAULT_TOL, groups)
            for a, m, seed in zip(out, maps, seeds):
                b = positivity_check(m, seed)
                assert (a.status, a.margin, a.samples_used) == (b.status, b.margin, b.samples_used)

    def test_group_labels_of_wrong_length_rejected(self):
        maps, seeds, groups = self.stack()
        with pytest.raises(ValueError, match="groups"):
            positivity_checks(maps, seeds, DEFAULT_TOL, groups[1:])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_choi_floor_bounds_every_value(self, n, seed):
        # w* S(vv*) w = (conj(v) kron w)* C (conj(v) kron w) bounds the
        # hermitian part by min_eig(herm C), and the skew part of S(vv*) has
        # entries at most ||C - C*|| <= n^2 max|C - C*|
        rng = np.random.default_rng(seed)
        s = Superoperator(n, rand_complex(rng, n * n, n * n))
        v = rand_complex(rng, 200, n)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        f = f_values(s.rep, v)
        _, min_eig, herm_dev = superop._cp_checks(s.rep[None], n, DEFAULT_TOL)
        assert min_eig[0] - n * n * herm_dev[0] == pytest.approx(choi_floor(s), rel=1e-12)
        assert np.all(f >= choi_floor(s) - 1e-12 * np.abs(s.rep).max())


class TestGeneratorCertificate:
    """Maps certified by their generator's split L = A + c tau: sound whatever c is."""

    TOL = DEFAULT_TOL

    def cone_maps(self, h):
        """A report's T_t, R_lam and e^{s R_lam}."""
        lams = lambda_grid(h, (1.0, 10.0, 100.0))
        points = {
            "semigroup": [0.1, 1.0, 10.0],
            "resolvent": list(lams),
            "resolvent_exp": [(s, lam) for s in (0.5, 1.0, 2.0) for lam in lams],
        }
        return [m for family, ps in points.items() for m in family_maps(h, family, ps)]

    def certified(self, h):
        return lambda: generator_certificate(h).kind is not None

    def searched(self, h, maps, seed=0):
        """The cone verdicts of maps with h's certificate and without one, as tuples."""
        seeds = [seed] * len(maps)
        return [[(v.status, v.margin, v.samples_used) for v in verdicts] for verdicts in (
            positivity_checks(maps, seeds, self.TOL, None, self.certified(h)),
            positivity_checks(maps, seeds, self.TOL))]

    @pytest.mark.parametrize("gen, c", [
        (flip_nonpositive(3), 0.5), (flip_nonpositive(3), 1.0), (flip_nonpositive(3), 40.0),
        (flip_plus_lindblad(4, 6), 0.5), (flip_plus_lindblad(4, 6), 1.0),
        (flip_plus_lindblad(4, 6), 40.0),
        # L - c tau = A at c = -1, which is CCP: only c >= 0 stops this one
        (Superoperator(3, build_superoperator(random_lindblad(3, 1, 0)).rep
                       - transpose_map(3).rep), -1.0),
    ], ids=[f"flip_nonpositive-{c}" for c in (0.5, 1, 40)]
        + [f"violated_flip-{c}" for c in (0.5, 1, 40)] + ["ccp_minus_transpose--1"])
    def test_forced_split_never_certifies_a_non_positive_generator(self, gen, c,
                                                                   monkeypatch):
        # the split finds no c on these generators; a c forced on them, with
        # its margin computed there, must not certify them, and every map's
        # search stays violated
        assert generator_certificate(SemigroupHandle(gen)).kind is None
        monkeypatch.setattr(semigroup, "mirror_split", forced_split(c))
        h = SemigroupHandle(gen)
        cert = generator_certificate(h)
        assert (cert.kind, cert.c) == (None, c)
        assert cert.margin < -self.TOL if c > 0 else abs(cert.margin) <= 1e-12
        got, plain = self.searched(h, self.cone_maps(h))
        assert got == plain
        assert {status for status, _, _ in got} == {"violated"}

    def test_margin_within_tol_of_zero_certifies_nothing(self):
        # L = i[H, .] + D - eps (rho -> x* rho x) on M(3), H = diag(0, 0, 100),
        # x = a b* with a, b orthonormal in span(e_0, e_1) and D a dissipator
        # whose jumps span the traceless matrices orthogonal to x.  At unit
        # scale the split margin is -tol/2, which bounds nothing at the maps'
        # scale: they are violated, by more as t grows, while no starter and
        # no CP certificate decides them
        n = 3
        a = np.array([np.cos(0.3), np.exp(0.7j) * np.sin(0.3), 0.0])
        b = np.array([-np.exp(-0.7j) * np.sin(0.3), np.cos(0.3), 0.0])
        x = np.outer(a, b.conj())
        basis = np.column_stack([np.eye(n).reshape(-1), x.reshape(-1), np.eye(n * n)])
        jumps = np.linalg.qr(basis)[0][:, 2:].T.reshape(-1, n, n)
        h = np.diag([0.0, 0.0, 100.0]).astype(complex)
        unit = float(superop._unit_scale(lindblad_rep(h, [])))
        eps = self.TOL / 2 / unit
        rep = lindblad_rep(h, np.sqrt(20 * eps) * jumps) - eps * np.kron(x.T, x.conj().T)
        hd = SemigroupHandle(Superoperator(n, rep))
        assert float(superop._unit_scale(rep)) == unit
        cert = generator_certificate(hd)
        assert (cert.kind, cert.c) == (None, 0.0)
        assert cert.margin == pytest.approx(-self.TOL / 2, rel=1e-9)
        maps = family_maps(hd, "semigroup", [0.1, 1.0, 10.0])
        got, plain = self.searched(hd, maps)
        assert got == plain
        assert [status for status, _, _ in got] == ["violated"] * 3

    @given(st.integers(0, 2**16), st.sampled_from([2, 3, 4]))
    @settings(max_examples=4, deadline=None)
    def test_certified_maps_are_positive_at_random_vectors(self, seed, n):
        # the generator is certified (at n = 2 some are CCP), so every map
        # is, and f >= -tol at 10^4 unit vectors on each map
        h = SemigroupHandle(transpose_mixing(random_lindblad(n, 1, seed)))
        assert generator_certificate(h).kind is not None
        maps = self.cone_maps(h)
        verdicts = positivity_checks(maps, [seed] * len(maps), self.TOL, None, self.certified(h))
        assert {v.status for v in verdicts} == {"certified_positive"}
        reps = np.stack([m.rep for m in maps])
        rng = np.random.default_rng(seed)
        v = rand_complex(rng, 10_000, n)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        for rep, u in zip(reps, superop._unit_scale(reps)):
            assert f_values(rep, v).min() >= -self.TOL / u

    def test_undecided_maps_ask_once(self):
        # the transpose and a T_t of transpose_mixing are neither CP nor
        # violated at their starters; the identity is CP and -1 is violated
        n = 3
        h = SemigroupHandle(transpose_mixing(random_lindblad(n, 1, 0)))
        maps = [identity_superop(n), transpose_map(n), Superoperator(n, -np.eye(n * n)),
                evolve(h, 1.0)]
        calls = []

        def certified():
            calls.append(1)
            return True

        got = positivity_checks(maps, [4] * 4, self.TOL, None, certified)
        plain = positivity_checks(maps, [4] * 4, self.TOL)
        declined = positivity_checks(maps, [4] * 4, self.TOL, None, lambda: False)
        assert calls == [1]
        starters = n + 2 + superop._N_RANDOM
        assert [v.status for v in got] == ["certified_positive", "certified_positive",
                                           "violated", "certified_positive"]
        assert [v.status for v in plain] == ["certified_positive", "no_violation_found",
                                             "violated", "no_violation_found"]
        assert [v.samples_used for v in got] == [starters, starters, plain[2].samples_used,
                                                 starters]
        assert got[0] == plain[0]
        assert got[2].margin == plain[2].margin
        assert got[2].witness.tobytes() == plain[2].witness.tobytes()
        assert ([(v.status, v.margin, v.samples_used) for v in declined]
                == [(v.status, v.margin, v.samples_used) for v in plain])

    def test_no_undecided_map_no_call(self):
        # every map is violated at its starters, so none is left to certify
        def unreachable():
            raise AssertionError("generator certificate asked for")

        h = SemigroupHandle(flip_nonpositive(3))
        maps = [Superoperator(3, -np.eye(9)), evolve(h, 1.0), evolve(h, 10.0)]
        assert [v.status for v in positivity_checks(maps, [0] * 3, self.TOL, None, unreachable)] == [
            "violated"] * 3

    @pytest.mark.parametrize("make", [
        lambda: random_lindblad(3, 2, 7),
        lambda: transpose_mixing(random_lindblad(3, 2, 5)),
    ], ids=["cp_lindblad", "transpose_mixing"])
    def test_cone_search_eigensolves_no_choi_matrix(self, make, monkeypatch):
        # every map has the generator's certificate and no violation at its
        # starters: no Choi matrix of a map is built, and none is eigensolved
        h = SemigroupHandle(make())
        maps = self.cone_maps(h)
        assert generator_certificate(h).kind is not None  # memoized before counting
        rows, sizes = [], []
        choi_stack, eigvalsh = superop._choi_stack, np.linalg.eigvalsh

        def counted_choi(reps, n):
            rows.append(len(reps))
            return choi_stack(reps, n)

        def counted(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(superop, "_choi_stack", counted_choi)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        verdicts = positivity_checks(maps, [0] * len(maps), self.TOL, None, self.certified(h))
        assert {v.status for v in verdicts} == {"certified_positive"}
        assert sum(rows) == 0
        assert sizes and 9 not in sizes

    @staticmethod
    def mixed_maps():
        """Maps violated at their starters, CP maps and positive maps that are not CP."""
        n = 3
        h = SemigroupHandle(transpose_mixing(random_lindblad(n, 1, 0)))
        flip = SemigroupHandle(flip_nonpositive(n))
        maps = [identity_superop(n), Superoperator(n, -np.eye(n * n)), transpose_map(n),
                evolve(h, 1.0), evolve(flip, 1.0), resolvent(h, 2.0 * h.spectral_abscissa + 1.0),
                evolve(flip, 10.0)]
        return maps, [4] * len(maps), [0, 1, 0, 1, 0, 1, 0]

    @pytest.mark.parametrize("answer", [True, False, None])
    def test_choi_matrices_of_exactly_the_uncertified_maps(self, answer, monkeypatch):
        # a certificate leaves the Choi test only the maps violated at their
        # starters; without one, the Choi test sees every map
        maps, seeds, groups = self.mixed_maps()
        cp_checks, seen = superop._cp_checks, []

        def recorded(reps, n, tol):
            seen.extend(rep.tobytes() for rep in reps)
            return cp_checks(reps, n, tol)

        monkeypatch.setattr(superop, "_cp_checks", recorded)
        got = positivity_checks(maps, seeds, self.TOL, groups,
                                None if answer is None else lambda: answer)
        violated = [v.status == "violated" for v in got]
        assert violated == [False, True, False, False, True, False, True]
        expected = [m for m, bad in zip(maps, violated) if bad or not answer]
        assert seen == [m.rep.tobytes() for m in expected]

    def test_violated_verdicts_do_not_depend_on_the_certificate(self):
        maps, seeds, groups = self.mixed_maps()
        got, declined = (positivity_checks(maps, seeds, self.TOL, groups, lambda: answer)
                         for answer in (True, False))
        assert [v.status for v in got] == ["certified_positive", "violated", "certified_positive",
                                           "certified_positive", "violated",
                                           "certified_positive", "violated"]
        for a, b in zip(got, declined):
            if b.status == "violated":
                assert (a.status, a.margin.hex(), a.samples_used) == (
                    b.status, b.margin.hex(), b.samples_used)
                assert a.witness.tobytes() == b.witness.tobytes()


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

    def test_sampled_proof_skips_the_ascent(self, monkeypatch):
        t_01 = evolve(SemigroupHandle(flip_nonpositive(3)), 0.1)
        sampled, full = full_contraction_search(t_01)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        out = contraction_check(t_01)
        # one SVD of the rep and two for the sampled ratios; the ascent would
        # add three per step
        assert len(calls) == 3
        assert out.status == full.status == "violated"
        assert out.norm_lower_bound == sampled

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize(
        "which", ["conjugation", "lindblad", "transpose", "transpose_mixing", "flip", "doubling"]
    )
    def test_verdicts_equal_the_full_search(self, which, seed):
        rng = np.random.default_rng(7)
        maps = {
            "conjugation": lambda: conjugation(np.linalg.qr(rand_complex(rng, 3, 3))[0]),
            "lindblad": lambda: evolve(SemigroupHandle(random_lindblad(3, 2, seed=4)), 0.5),
            "transpose": lambda: transpose_map(3),
            "transpose_mixing": lambda: evolve(
                SemigroupHandle(transpose_mixing(random_lindblad(3, 1, seed=15, scale=0.5))), 1.0
            ),
            "flip": lambda: evolve(SemigroupHandle(flip_nonpositive(4)), 0.1),
            "doubling": lambda: Superoperator(2, 2.0 * np.eye(4)),
        }
        s = maps[which]()
        sampled, full = full_contraction_search(s, seed)
        out = contraction_check(s, seed)
        assert out.status == full.status
        if out.status == "violated":
            assert out.norm_lower_bound == sampled <= full.norm_lower_bound
        else:
            assert out.norm_lower_bound == full.norm_lower_bound


class TestStackedContractionChecks:
    """One search serves a whole t-grid, with the verdicts of single searches."""

    def grid_maps(self, which):
        if which == "mixed":
            return [transpose_map(3), Superoperator(3, 2.0 * np.eye(9)), identity_superop(3)]
        gen = {
            "lindblad": lambda: random_lindblad(3, 2, seed=4),
            "transpose_mixing": lambda: transpose_mixing(random_lindblad(3, 1, seed=15, scale=0.5)),
            "flip": lambda: flip_nonpositive(3),
        }[which]()
        h = SemigroupHandle(gen)
        return [evolve(h, t) for t in (0.1, 1.0, 10.0)]

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize(
        "which, statuses",
        [
            ("lindblad", ["certified_contraction"] * 3),
            ("transpose_mixing", ["no_violation_found"] * 3),
            ("flip", ["violated", None, None]),
            ("mixed", ["no_violation_found", "violated", None]),
        ],
    )
    def test_equals_a_loop_of_single_checks(self, which, statuses, seed, monkeypatch):
        maps = self.grid_maps(which)
        looped = []
        for m in maps:
            looped.append(contraction_check(m, seed))
            if looped[-1].status == "violated":
                break
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        # the mask contraction_check passes: each map's own CP test
        positive = [cp_check(m).verdict for m in maps]
        monkeypatch.setattr(np.linalg, "svd", counted)
        stacked = contraction_checks(maps, seed, DEFAULT_TOL, positive)
        svd_calls = len(calls)
        contraction_checks(maps[: len(looped)], seed, DEFAULT_TOL, positive[: len(looped)])
        # the maps after the first violated one cost no SVD call
        assert len(calls) == 2 * svd_calls
        assert [v and v.status for v in stacked] == statuses
        assert stacked[len(looped):] == [None] * (len(maps) - len(looped))
        for a, b in zip(stacked, looped):
            assert a.status == b.status
            assert a.norm_lower_bound == b.norm_lower_bound

    def test_positivity_certificates_need_symmetric_unital_maps(self, monkeypatch):
        climbs = []
        ascend = superop._ascend
        monkeypatch.setattr(superop, "_ascend",
                            lambda reps, v, bounds: climbs.append(len(reps)) or ascend(reps, v, bounds))
        tol = 1e-3
        # e^{-1} id: symmetric, not unital
        decay = evolve(SemigroupHandle(Superoperator(2, -np.eye(4, dtype=complex))), 1.0)
        # x + 3i tol x_01 E_01: unital, not symmetric, and its sampled norm is
        # within 1 + tol
        skew = np.eye(4, dtype=complex)
        skew[2, 2] += 3j * tol
        skew = Superoperator(2, skew)
        assert not is_symmetric_map(skew, tol).verdict and is_unital(skew, tol).verdict
        out = contraction_checks([decay, identity_superop(2), skew], 0, tol, [True] * 3)
        assert [v.status for v in out][:2] == ["no_violation_found", "certified_contraction"]
        assert out[2].status != "certified_contraction"
        # the decay and skew maps still climb
        assert climbs == [2]

    def test_uncertified_maps_climb(self):
        out = contraction_checks([transpose_map(3)], 0, DEFAULT_TOL, [False])
        assert out == [contraction_check(transpose_map(3))]

    def test_first_violated_map_in_order_ends_the_list(self, monkeypatch):
        # the transpose survives sampling and is violated by its ascent; the
        # doubling map after it is violated by sampling alone.  The first
        # map in order is the one reported.
        ascend = superop._ascend
        monkeypatch.setattr(superop, "_ascend", lambda reps, v, bounds: ascend(reps, v, bounds) + 1)
        maps = [transpose_map(3), Superoperator(3, 2.0 * np.eye(9)), identity_superop(3)]
        out = contraction_checks(maps, 0, DEFAULT_TOL, [False] * 3)
        assert out == [superop.ContractionVerdict("violated", 2.000000000000001), None, None]

    def test_sampled_proof_asks_for_no_certificate(self):
        # a map proved no contraction by sampling is violated under any mask
        out = contraction_checks(self.grid_maps("flip"), 0, DEFAULT_TOL, [True] * 3)
        assert [v and v.status for v in out] == ["violated", None, None]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            contraction_checks([], 0, DEFAULT_TOL, [])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            contraction_checks([identity_superop(2), identity_superop(3)], 0, DEFAULT_TOL, [True] * 2)

    def test_one_flag_per_map(self):
        # a short mask must not broadcast its one certificate over every map
        with pytest.raises(ValueError, match="got 1 flags for 3 maps"):
            contraction_checks([identity_superop(2)] * 3, 0, DEFAULT_TOL, [True])


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

    def test_bool_dimension_rejected(self):
        payload = identity_superop(1).to_json()
        payload["n"] = True
        with pytest.raises(SchemaError, match="positive integer"):
            Superoperator.from_json(payload)
