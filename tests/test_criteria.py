import json
import math

import numpy as np
import pytest

from posgen import criteria
from posgen.config import RunConfig, subseed
from posgen.criteria import (
    CONDITION_IDS,
    ProbeSet,
    check_condition,
    dissipation,
    dissipation_batch,
    theorem1_report,
    theorem2_check,
)
from posgen.errors import HypothesisViolation
from posgen.instances import (
    dephasing,
    flip_nonpositive,
    lindblad,
    random_hermitian,
    random_lindblad,
    transpose_mixing,
    unitary_from,
)
from posgen.matrixcore import mat_exp, psd_margins
from posgen.semigroup import (
    GeneratorSpec,
    SemigroupHandle,
    build_superoperator,
    evolve,
    lambda_grid,
    laplace_resolvent,
    resolvent,
)
from posgen.superop import (
    CERTIFIED_POSITIVE,
    NO_VIOLATION_FOUND,
    VIOLATED,
    ConeVerdict,
    Superoperator,
    apply,
    apply_stack,
    positivity_check,
)

from conftest import rand_complex, signed_rate_rep

E00 = np.diag([1.0, 0.0]).astype(complex)


def handle(spec):
    return SemigroupHandle(build_superoperator(spec))


def small_config(**kw):
    defaults = dict(n_selfadjoint=10, n_unitary=10, n_states=10)
    defaults.update(kw)
    return RunConfig(**defaults)


def sa_dissipation_form(rep, probes):
    """Phi(a^2) + a Phi(1) a - Phi(a) a - a Phi(a), the self-adjoint form."""
    phi1 = apply(Superoperator(probes.shape[-1], rep), np.eye(probes.shape[-1]))
    phi_a = apply_stack(rep.T, probes)
    phi_a2 = apply_stack(rep.T, probes @ probes)
    return phi_a2 + probes @ phi1 @ probes - phi_a @ probes - probes @ phi_a


def u_dissipation_form(rep, probes):
    """Phi(1) + u* Phi(1) u - Phi(u*) u - u* Phi(u), the unitary form."""
    phi1 = apply(Superoperator(probes.shape[-1], rep), np.eye(probes.shape[-1]))
    uh = probes.conj().swapaxes(1, 2)
    phi_u = apply_stack(rep.T, probes)
    phi_uh = apply_stack(rep.T, uh)
    return phi1[None, :, :] + uh @ phi1 @ probes - phi_uh @ probes - uh @ phi_u


class TestDissipationKernels:
    @pytest.mark.parametrize("kind,form", [
        ("selfadjoint", sa_dissipation_form),
        ("unitary", u_dissipation_form),
    ], ids=["selfadjoint", "unitary"])
    def test_kernel_equals_specialised_forms(self, kind, form):
        # one stacked kernel call over T_t, R_lam and L of a non-CP instance
        h = handle(flip_plus_lindblad(3, 6))
        maps = (evolve(h, 1.0), resolvent(h, 5.0), h.generator)
        probes = ProbeSet.build(3, 8, 8, seed=1)
        stack = np.stack(probes.selfadjoint if kind == "selfadjoint" else probes.unitaries)
        got = dissipation_batch(np.stack([phi.rep for phi in maps]).swapaxes(1, 2), stack)
        assert got.shape == (len(maps), *stack.shape)
        for phi, rows in zip(maps, got):
            want = form(phi.rep, stack)
            assert np.abs(rows - want).max() <= 1e-13 * np.abs(want).max()

    def test_zero_generator_all_zero(self):
        h = SemigroupHandle(Superoperator(2, np.zeros((4, 4), dtype=complex)))
        a = random_hermitian(2, seed=1)
        u = unitary_from(np.random.default_rng(1), 2)
        assert np.abs(dissipation(resolvent(h, 1.0), a)).max() <= 1e-12
        assert np.abs(dissipation(resolvent(h, 1.0), u)).max() <= 1e-12
        assert np.abs(dissipation(evolve(h, 1.0), a)).max() <= 1e-12
        assert np.abs(dissipation(h.generator, a)).max() <= 1e-12

    def test_unit_probe_degeneracy(self):
        h = handle(random_lindblad(3, 2, seed=2))
        eye = np.eye(3, dtype=complex)
        for phi in (resolvent(h, 5.0), evolve(h, 1.0), h.generator):
            assert np.abs(dissipation(phi, eye)).max() <= 1e-12

    def test_lindblad_commutator_identity(self):
        # for L(x) = i[H,x] + sum_k V* x V - (V*V x + x V*V)/2 the self-adjoint
        # dissipation collapses to sum_k [V_k, a]* [V_k, a]
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            hmat = rand_complex(rng, n, n)
            hmat = (hmat + hmat.conj().T) / 2
            vs = [rand_complex(rng, n, n) for _ in range(int(rng.integers(1, 3)))]
            a = rand_complex(rng, n, n)
            a = (a + a.conj().T) / 2
            d = dissipation(handle(lindblad(hmat, vs)).generator, a)
            oracle = sum(
                (v @ a - a @ v).conj().T @ (v @ a - a @ v) for v in vs
            )
            assert np.abs(d - oracle).max() <= 1e-10

    def test_hamiltonian_generator_dissipation_vanishes(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            hmat = rand_complex(rng, 3, 3)
            hmat = (hmat + hmat.conj().T) / 2
            a = rand_complex(rng, 3, 3)
            a = (a + a.conj().T) / 2
            d = dissipation(handle(lindblad(hmat, [])).generator, a)
            assert np.abs(d).max() <= 1e-12

    def test_conjugation_dissipation_is_square(self):
        rng = np.random.default_rng(5)
        hmat = rand_complex(rng, 3, 3)
        hmat = (hmat + hmat.conj().T) / 2
        h = handle(lindblad(hmat, []))
        a = rand_complex(rng, 3, 3)
        a = (a + a.conj().T) / 2
        t = 0.8
        d = dissipation(evolve(h, t), a)
        u = mat_exp(1j * t * hmat)
        ta = u @ a @ u.conj().T
        assert np.abs(d - (ta - a) @ (ta - a)).max() <= 1e-12
        assert psd_margins(d[None])[0] >= -1e-12

    def test_flip_generator_regression(self):
        d = dissipation(handle(flip_nonpositive(2)).generator, E00)
        assert np.abs(d - (-np.eye(2))).max() <= 1e-12

    def test_flip_semigroup_closed_form(self):
        # at t = 1 and probe diag(1,0) the dissipation is exactly -e sinh(1) I
        d = dissipation(evolve(handle(flip_nonpositive(2)), 1.0), E00)
        expected = -math.e * math.sinh(1.0) * np.eye(2)
        assert np.abs(d - expected).max() <= 1e-10

    def test_flip_resolvent_closed_form(self):
        h = handle(flip_nonpositive(2))
        for lam in (3.0, 5.0, 9.0):
            d = dissipation(resolvent(h, lam), E00)
            expected = -1.0 / (lam * (lam - 2.0)) * np.eye(2)
            assert np.abs(d - expected).max() <= 1e-12
        assert dissipation(resolvent(h, 5.0), E00)[0, 0].real == pytest.approx(
            -1 / 15, abs=1e-13
        )

    def test_scaled_flip_resolvent_closed_form(self):
        for c in (0.25, 0.5, 1.5):
            h = handle(flip_nonpositive(2, scale=c))
            lam = 2 * c + 3.0
            d = dissipation(resolvent(h, lam), E00)
            expected = -c / (lam * (lam - 2 * c)) * np.eye(2)
            assert np.abs(d - expected).max() <= 1e-12


class TestLaplaceBridge:
    def test_matches_resolvent_route(self):
        for spec in (random_lindblad(2, 1, seed=6), dephasing(3)):
            h = handle(spec)
            a = random_hermitian(h.n, seed=7)
            for lam in (2.0, 10.0):
                via_quad = dissipation(laplace_resolvent(h, lam), a)
                direct = dissipation(resolvent(h, lam), a)
                assert np.abs(via_quad - direct).max() <= 1e-6

    def test_flip_bridge_above_abscissa(self):
        h = handle(flip_nonpositive(2))
        via_quad = dissipation(laplace_resolvent(h, 5.0), E00)
        direct = dissipation(resolvent(h, 5.0), E00)
        assert np.abs(via_quad - direct).max() <= 1e-6


def looped_probe_set(n, n_selfadjoint, n_unitary, seed):
    """Reference: the probes of ProbeSet.build, random ones drawn one at a time."""
    sa_rng = np.random.default_rng(np.random.SeedSequence((seed, 31)))
    u_rng = np.random.default_rng(np.random.SeedSequence((seed, 32)))
    sa = criteria._structured_selfadjoint(n)
    for _ in range(n_selfadjoint):
        g = (sa_rng.standard_normal((n, n)) + 1j * sa_rng.standard_normal((n, n))) / np.sqrt(2)
        sa.append(1.0 * (g + g.conj().T) / 2)
    us = criteria._structured_unitaries(n)
    for _ in range(n_unitary):
        g = (u_rng.standard_normal((n, n)) + 1j * u_rng.standard_normal((n, n))) / np.sqrt(2)
        q, r = np.linalg.qr(g)
        d = np.diag(r)
        us.append(q * (d / np.abs(d)))
    return sa, us


class TestProbeSet:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("count", [0, 12])
    def test_stacked_draws_equal_looped_draws(self, n, seed, count):
        p = ProbeSet.build(n, n_selfadjoint=count, n_unitary=count, seed=seed)
        sa, us = looped_probe_set(n, count, count, seed)
        assert len(p.selfadjoint) == len(sa) and len(p.unitaries) == len(us)
        for got, want in zip(p.selfadjoint + p.unitaries, sa + us):
            assert np.asarray(got).tobytes() == np.asarray(want, dtype=complex).tobytes()

    def test_counts_and_structure(self):
        p = ProbeSet.build(2, n_selfadjoint=10, n_unitary=10, seed=0)
        # structured: unit + 2 diagonal units + 2 superposition projectors
        assert len(p.selfadjoint) == 5 + 10
        assert len(p.unitaries) == 3 + 10
        assert np.array_equal(p.selfadjoint[0], np.eye(2))
        assert np.array_equal(p.selfadjoint[1], E00)

    def test_deterministic(self):
        a = ProbeSet.build(3, 5, 5, seed=9)
        b = ProbeSet.build(3, 5, 5, seed=9)
        for x, y in zip(a.selfadjoint + a.unitaries, b.selfadjoint + b.unitaries):
            assert x.tobytes() == y.tobytes()
        c = ProbeSet.build(3, 5, 5, seed=10)
        assert not np.array_equal(a.selfadjoint[-1], c.selfadjoint[-1])

    def test_validation_rejects_wrong_class(self):
        with pytest.raises(ValueError, match="probe"):
            ProbeSet(
                selfadjoint=(np.array([[0.0, 1.0], [0.0, 0.0]]),),
                unitaries=(),
                seed=0,
            )


class TestCheckCondition:
    def test_zero_generator_satisfies_everything(self):
        h = SemigroupHandle(Superoperator(2, np.zeros((4, 4), dtype=complex)))
        cfg = small_config()
        probes = ProbeSet.build(2, cfg.n_selfadjoint, cfg.n_unitary, seed=0)
        for cid in CONDITION_IDS:
            res = check_condition(h, cid, probes, cfg)
            assert res.verdict == "satisfied", cid
            assert res.min_margin >= -1e-12, cid

    def test_lindblad_satisfies_everything(self):
        h = handle(random_lindblad(3, 2, seed=8))
        cfg = small_config()
        probes = ProbeSet.build(3, cfg.n_selfadjoint, cfg.n_unitary, seed=1)
        for cid in CONDITION_IDS:
            res = check_condition(h, cid, probes, cfg)
            assert res.verdict == "satisfied", (cid, res.min_margin)
            assert res.min_margin >= -1e-8, cid

    def test_flip_violations_and_reproducibility(self):
        h = handle(flip_nonpositive(2))
        cfg = small_config()
        probes = ProbeSet.build(2, cfg.n_selfadjoint, cfg.n_unitary, seed=2)

        res1 = check_condition(h, "semigroup_positive", probes, cfg)
        assert res1.verdict == "violated"

        res5 = check_condition(h, "semigroup_sa", probes, cfg)
        assert res5.verdict == "violated"
        ref = res5.worst_probe
        probe = probes.selfadjoint[ref.index]
        d = dissipation(evolve(h, ref.grid_value), probe)
        assert psd_margins(d[None])[0] == pytest.approx(
            res5.min_margin, rel=1e-12, abs=1e-12
        )

        res_gen = check_condition(h, "generator_sa", probes, cfg)
        assert res_gen.verdict == "violated"
        assert res_gen.min_margin <= -1.0 + 1e-12  # witnessed by diag(1, 0)

    def test_unknown_condition_rejected(self):
        h = handle(dephasing(2))
        with pytest.raises(ValueError, match="condition"):
            check_condition(h, "bogus", ProbeSet.build(2, 1, 1, 0), small_config())


class TestTheorem1Report:
    def test_lindblad_consistent(self):
        rep = theorem1_report(handle(random_lindblad(2, 1, seed=12)), small_config())
        assert rep.consistency_flag
        for c in rep.conditions:
            assert c.verdict == "satisfied"
            assert c.min_margin >= -1e-8
        assert {c.condition_id for c in rep.conditions} == set(CONDITION_IDS)

    def test_flip_all_fail_together(self):
        rep = theorem1_report(handle(flip_nonpositive(2)), small_config())
        assert rep.consistency_flag  # consistent: nothing comfortably satisfied
        assert rep.by_id("semigroup_positive").verdict == "violated"
        for c in rep.conditions:
            if c.verdict == "satisfied":
                assert c.min_margin <= 1e-4

    def test_signed_rate_seed_10_resolvent_violation_found(self):
        # R_lam has entries near 1/lam; a descent whose step ignored the map's
        # scale reported resolvent_positive satisfied at +3.6e-6 here, while
        # scoring 2e5 random unit vectors at lam = 10 finds -2.25e-4
        rep = theorem1_report(SemigroupHandle(Superoperator(2, signed_rate_rep(10))), RunConfig())
        c = rep.by_id("resolvent_positive")
        assert c.verdict == "violated"
        assert c.min_margin <= -2e-4

    def test_non_symmetric_rejected(self):
        s = Superoperator(2, 1j * np.eye(4, dtype=complex))
        with pytest.raises(HypothesisViolation, match="symmetric"):
            theorem1_report(SemigroupHandle(s), small_config())

    def test_report_deterministic(self):
        h1 = handle(random_lindblad(2, 1, seed=13))
        h2 = handle(random_lindblad(2, 1, seed=13))
        cfg = small_config()
        j1 = json.dumps(theorem1_report(h1, cfg).to_json(), sort_keys=True)
        j2 = json.dumps(theorem1_report(h2, cfg).to_json(), sort_keys=True)
        assert j1 == j2

    def test_json_shape(self):
        rep = theorem1_report(handle(dephasing(2)), small_config())
        payload = rep.to_json()
        assert set(payload) == {"conditions", "consistency", "tolerances"}
        assert len(payload["conditions"]) == len(CONDITION_IDS)
        for c in payload["conditions"]:
            assert set(c) == {"id", "grid", "min_margin", "verdict", "worst_probe"}


class TestTheorem2:
    def test_lindblad_both_sides_hold(self):
        rep = theorem2_check(handle(random_lindblad(2, 1, seed=14)), small_config())
        assert rep.unit_margin <= 1e-12
        assert rep.symmetry_margin <= 1e-10
        assert rep.positive.status == CERTIFIED_POSITIVE
        assert rep.unital_margin <= 1e-10
        assert rep.direction_consistency

    def test_transpose_mixing_positive_without_cp(self):
        spec = transpose_mixing(random_lindblad(2, 1, seed=15, scale=0.5))
        rep = theorem2_check(handle(spec), small_config())
        assert rep.unit_margin <= 1e-10
        assert rep.symmetry_margin <= 1e-10
        assert rep.positive.status == NO_VIOLATION_FOUND  # positive, not CP-certified
        assert rep.positive.margin >= -1e-9
        assert rep.unital_margin <= 1e-10
        assert rep.direction_consistency

    def test_hamiltonian_automorphisms(self):
        hmat = np.diag([1.0, -1.0]).astype(complex)
        rep = theorem2_check(handle(lindblad(hmat, [])), small_config())
        assert rep.unit_margin <= 1e-12
        assert rep.positive.status == CERTIFIED_POSITIVE
        assert rep.direction_consistency

    def test_flip_fails_contraction_hypothesis(self):
        with pytest.raises(HypothesisViolation, match="contract"):
            theorem2_check(handle(flip_nonpositive(2)), small_config())

    def test_decay_clears_both_sides(self):
        # L = -id: a contraction semigroup that is neither unital nor
        # unit-killing; both sides of the equivalence fail, so it stays
        # consistent
        h = SemigroupHandle(Superoperator(2, -np.eye(4, dtype=complex)))
        rep = theorem2_check(h, small_config())
        assert rep.unit_margin > 1e-4
        assert rep.unital_margin > 1e-4
        assert rep.direction_consistency

    def test_json_shape(self):
        rep = theorem2_check(handle(dephasing(2)), small_config())
        payload = rep.to_json()
        assert set(payload) == {
            "unit_margin",
            "symmetry_margin",
            "contraction",
            "positive",
            "unital_margin",
            "direction_consistency",
        }


def flip_plus_lindblad(n, seed):
    rep = (build_superoperator(random_lindblad(n, 2, seed)).rep
           + build_superoperator(flip_nonpositive(n)).rep)
    return GeneratorSpec(kind="explicit", n=n, superop=Superoperator(n, rep))


class TestStackedConeSearches:
    """Reports are byte-identical whether cone searches run stacked or per map."""

    def payloads(self, gen, config):
        out = [json.dumps(theorem1_report(handle(gen), config).to_json())]
        try:
            out.append(json.dumps(theorem2_check(handle(gen), config).to_json()))
        except HypothesisViolation as exc:
            out.append(str(exc))
        return out

    @pytest.mark.parametrize("gen", [
        transpose_mixing(random_lindblad(3, 2, 5)),
        flip_plus_lindblad(3, 6),
    ], ids=["transpose_mixing", "flip_plus_lindblad"])
    def test_byte_identical_to_per_map_searches(self, gen, monkeypatch):
        config = small_config(seed=3)
        stacked = self.payloads(gen, config)

        def per_map(maps, seeds, tol):
            return [positivity_check(m, seed, tol) for m, seed in zip(maps, seeds)]

        monkeypatch.setattr(criteria, "positivity_checks", per_map)
        assert self.payloads(gen, config) == stacked


class TestTheorem1StackedCones:
    """One stacked descent for all cone conditions gives each condition's own result."""

    @pytest.mark.parametrize("gen", [
        transpose_mixing(random_lindblad(3, 2, 5)),
        flip_plus_lindblad(3, 6),
        random_lindblad(3, 2, 7),
    ], ids=["transpose_mixing", "flip_plus_lindblad", "cp_lindblad"])
    def test_report_equals_nine_check_condition_calls(self, gen):
        config = small_config(seed=3)
        report = theorem1_report(handle(gen), config).to_json()
        probes = ProbeSet.build(
            3, config.n_selfadjoint, config.n_unitary, subseed(config.seed, 11)
        )
        h = handle(gen)
        conditions = [
            check_condition(h, cid, probes, config).to_json() for cid in CONDITION_IDS
        ]
        assert json.dumps(report["conditions"]) == json.dumps(conditions)

    @pytest.mark.parametrize("gen", [
        transpose_mixing(random_lindblad(3, 2, 5)),
        flip_plus_lindblad(3, 6),
    ], ids=["transpose_mixing", "flip_plus_lindblad"])
    def test_each_condition_searches_under_its_own_seed(self, gen):
        # reference: one search per condition, its maps listed by hand
        config = small_config(seed=3)
        h = handle(gen)
        lams = lambda_grid(h, config.lambda_multipliers)
        maps = {
            "semigroup_positive": [(t, evolve(h, t)) for t in config.t_grid],
            "resolvent_positive": [(l, resolvent(h, l)) for l in lams],
            "resolvent_exp": [
                (l, Superoperator(3, mat_exp(s * resolvent(h, l).rep)))
                for s in config.s_grid for l in lams
            ],
        }
        report = theorem1_report(handle(gen), config)
        for cid, pairs in maps.items():
            seed = subseed(config.seed, 17, CONDITION_IDS.index(cid))
            verdicts = [positivity_check(m, seed) for _, m in pairs]
            k = int(np.argmin([v.margin for v in verdicts]))
            got = report.by_id(cid)
            assert got.min_margin == verdicts[k].margin
            assert got.worst_probe.grid_value == pairs[k][0]


class TestConeVerdictMemo:
    """Each map is cone-searched once per handle; reports read the verdicts."""

    def payloads(self, h, config):
        t2 = json.dumps(theorem2_check(h, config).to_json())
        return t2, json.dumps(theorem1_report(h, config).to_json())

    def test_shared_handle_equals_fresh_handles(self):
        gen = transpose_mixing(random_lindblad(3, 2, 5))
        first = small_config(seed=3)
        second = small_config(seed=4, t_grid=(0.2, 1.0, 5.0))
        h = handle(gen)
        shared = [self.payloads(h, first), self.payloads(h, second)]
        fresh = [self.payloads(handle(gen), first), self.payloads(handle(gen), second)]
        assert shared == fresh

    def test_theorem2_after_theorem1_searches_nothing(self, cone_searches):
        h = handle(transpose_mixing(random_lindblad(3, 2, 5)))
        config = small_config(seed=3)
        theorem1_report(h, config)
        assert cone_searches == [15]
        rep = theorem2_check(h, config)
        assert cone_searches == [15]
        # Theorem 2's positive side is semigroup_positive's search
        assert rep.positive.margin == theorem1_report(h, config).by_id(
            "semigroup_positive").min_margin

    def test_theorem2_alone_searches_the_semigroup_maps(self, cone_searches):
        h = handle(transpose_mixing(random_lindblad(3, 2, 5)))
        config = small_config(seed=3)
        theorem2_check(h, config)
        assert cone_searches == [len(config.t_grid)]
        theorem1_report(h, config)
        assert cone_searches == [len(config.t_grid), 12]  # R_lam and e^{sR_lam} only

    def test_resolvent_exp_maps_built_in_one_stacked_call(self, monkeypatch):
        shapes = []

        def counted(m):
            shapes.append(np.shape(m))
            return mat_exp(m)

        monkeypatch.setattr(criteria, "mat_exp", counted)
        h = handle(transpose_mixing(random_lindblad(3, 2, 5)))
        theorem1_report(h, small_config(seed=3))
        assert shapes == [(9, 9, 9)]  # the 3 x 3 (s, lam) pairs at once

    def test_resolvent_exp_tie_goes_to_first_s_major_pair(self, monkeypatch):
        # L = 0 gives e^{s R_lam} = e^{s/lam} 1, so the pairs (s, lam) = (1, 0.5)
        # and (2, 1) build the same map.  Scored so that exactly those two tie
        # for the least margin, the s-major, lam-minor order reports lam = 0.5
        # and a lam-major order would report lam = 1.
        def score(maps, seeds, tol):
            return [ConeVerdict(NO_VIOLATION_FOUND,
                                -float(np.isclose(m.rep[0, 0].real, np.exp(2.0))), 1)
                    for m in maps]

        monkeypatch.setattr(criteria, "positivity_checks", score)
        h = SemigroupHandle(Superoperator(2, np.zeros((4, 4), dtype=complex)))
        config = small_config(s_grid=(1.0, 2.0), lambda_multipliers=(1.0, 0.5))
        got = check_condition(h, "resolvent_exp", ProbeSet.build(2, 1, 1), config)
        assert got.min_margin == -1.0
        assert got.worst_probe.grid_value == 0.5


class TestConditionTable:
    """The nine conditions are one table of map family x evaluator."""

    def test_condition_ids_are_the_table_in_report_order(self):
        assert CONDITION_IDS == (
            "semigroup_positive",
            "resolvent_positive",
            "resolvent_sa",
            "resolvent_u",
            "semigroup_sa",
            "semigroup_u",
            "resolvent_exp",
            "generator_sa",
            "generator_u",
        )
        assert CONDITION_IDS == tuple(criteria._CONDITIONS)

    @pytest.mark.parametrize("gen", [
        transpose_mixing(random_lindblad(3, 2, 5)),
        flip_plus_lindblad(3, 6),
        random_lindblad(3, 2, 4),
    ], ids=["transpose_mixing", "flip_plus_lindblad", "cp_lindblad"])
    def test_probe_conditions_equal_looped_reference(self, gen):
        # reference: one probe at a time over each family's maps, listed by
        # hand; the first least margin wins.  A one-probe product rounds
        # apart from a stacked one, so margins agree to rounding only.  On
        # the CP instance every map ties at exactly 0 through the unit probe,
        # so the first map's grid value must win.
        config = small_config(seed=3)
        h = handle(gen)
        probes = ProbeSet.build(
            3, config.n_selfadjoint, config.n_unitary, subseed(config.seed, 11)
        )
        lams = lambda_grid(h, config.lambda_multipliers)
        families = {
            "resolvent": (lams, [(l, resolvent(h, l)) for l in lams]),
            "semigroup": (config.t_grid, [(t, evolve(h, t)) for t in config.t_grid]),
            "generator": ((), [(None, h.generator)]),
        }
        pools = {"selfadjoint": probes.selfadjoint, "unitary": probes.unitaries}
        for cid in ("resolvent_sa", "resolvent_u", "semigroup_sa", "semigroup_u",
                    "generator_sa", "generator_u"):
            family, suffix = cid.rsplit("_", 1)
            kind = "selfadjoint" if suffix == "sa" else "unitary"
            grid, maps = families[family]
            best, worst = math.inf, None
            for g, phi in maps:
                for k, a in enumerate(pools[kind]):
                    margin = float(psd_margins(dissipation(phi, a)[None])[0])
                    if margin < best:
                        best, worst = margin, {"kind": kind, "index": k, "grid_value": g}
            want = {
                "id": cid,
                "grid": list(grid),
                "verdict": "satisfied" if best >= -config.tol("predicate") else "violated",
                "worst_probe": worst,
            }
            got = check_condition(h, cid, probes, config).to_json()
            assert got.pop("min_margin") == pytest.approx(best, rel=1e-12, abs=1e-15), cid
            assert got == want, cid

    @pytest.mark.parametrize("kind", ["selfadjoint", "unitary"])
    def test_single_probe_equals_batch_row(self, kind):
        h = handle(flip_plus_lindblad(3, 6))
        probes = ProbeSet.build(3, 4, 4, seed=1)
        pool = probes.selfadjoint if kind == "selfadjoint" else probes.unitaries
        stack = np.stack(pool[-4:])  # random members, so row 0 is no structured probe
        for phi in (h.generator, evolve(h, 1.0), resolvent(h, 5.0)):
            got = dissipation(phi, stack[0])
            row = dissipation_batch(phi.rep.T, stack)[0]
            assert np.abs(got - row).max() <= 1e-13 * np.abs(row).max()
            assert not got.flags.writeable
