import json
import math

import numpy as np
import pytest

from posgen import criteria, matrixcore, semigroup, superop
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
from posgen.duality import TRACE_T_GRID, trace_preservation_check, trajectory_records
from posgen.errors import DimensionMismatch, HypothesisViolation
from posgen.instances import (
    density_from,
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
    family_maps,
    generator_certificate,
    lambda_grid,
    resolvent,
)
from posgen.superop import (
    CERTIFIED_POSITIVE,
    DEFAULT_TOL,
    NO_VIOLATION_FOUND,
    VIOLATED,
    ConeVerdict,
    Superoperator,
    apply,
    apply_stack,
    positivity_checks,
)

from conftest import (
    flip_plus_lindblad,
    forced_split,
    full_contraction_search,
    laplace_resolvent,
    rand_complex,
    root_rule_exp,
    signed_rate_rep,
)

E00 = np.diag([1.0, 0.0]).astype(complex)


PROBE_IDS = tuple(cid for cid in CONDITION_IDS if criteria._CONDITIONS[cid][1] != "cone")


def handle(spec):
    return SemigroupHandle(build_superoperator(spec))


def small_config(**kw):
    defaults = dict(samples=10)
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
        probes = ProbeSet.build(3, 8, seed=1)
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
    """Reference: the probes of ProbeSet.build, random ones drawn one at a time.

    Each class has its own count and its own substream, as when a run could
    set the two counts apart.
    """
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
    @pytest.mark.parametrize("count", [0, 12, 50])
    def test_stacked_draws_equal_looped_draws(self, n, seed, count):
        # one count for both classes draws, bit for bit, the probes that two
        # equal counts drew
        p = ProbeSet.build(n, count, seed)
        sa, us = looped_probe_set(n, count, count, seed)
        assert len(p.selfadjoint) == len(sa) and len(p.unitaries) == len(us)
        for got, want in zip([*p.selfadjoint, *p.unitaries], sa + us):
            assert np.asarray(got).tobytes() == np.asarray(want, dtype=complex).tobytes()

    def test_counts_and_structure(self):
        p = ProbeSet.build(2, samples=10, seed=0)
        # structured: unit + 2 diagonal units + 2 superposition projectors
        assert len(p.selfadjoint) == 5 + 10
        assert len(p.unitaries) == 3 + 10
        assert np.array_equal(p.selfadjoint[0], np.eye(2))
        assert np.array_equal(p.selfadjoint[1], E00)

    def test_deterministic(self):
        a = ProbeSet.build(3, 5, seed=9)
        b = ProbeSet.build(3, 5, seed=9)
        for x, y in zip([*a.selfadjoint, *a.unitaries], [*b.selfadjoint, *b.unitaries]):
            assert x.tobytes() == y.tobytes()
        c = ProbeSet.build(3, 5, seed=10)
        assert not np.array_equal(a.selfadjoint[-1], c.selfadjoint[-1])

    def test_validation_rejects_wrong_class(self):
        with pytest.raises(ValueError, match="probe"):
            ProbeSet(
                selfadjoint=(np.array([[0.0, 1.0], [0.0, 0.0]]),),
                unitaries=(),
            )

    def test_fields_are_read_only_stacks(self):
        p = ProbeSet.build(3, 4, seed=2)
        for stack in (p.selfadjoint, p.unitaries):
            assert isinstance(stack, np.ndarray) and stack.shape[1:] == (3, 3)
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 0.0

    def test_members_give_the_built_stacks(self):
        p = ProbeSet.build(3, 4, seed=2)
        q = ProbeSet(selfadjoint=list(p.selfadjoint), unitaries=list(p.unitaries))
        assert q.selfadjoint.tobytes() == p.selfadjoint.tobytes()
        assert q.unitaries.tobytes() == p.unitaries.tobytes()
        assert not q.selfadjoint.flags.writeable and not q.unitaries.flags.writeable

    @pytest.mark.parametrize("empty", ["selfadjoint", "unitaries"])
    def test_empty_class_rejected_at_construction(self, empty):
        members = {"selfadjoint": [np.eye(2)], "unitaries": [np.eye(2)], empty: []}
        with pytest.raises(ValueError, match="no .* probes"):
            ProbeSet(**members)


class TestCheckCondition:
    def test_zero_generator_satisfies_everything(self):
        h = SemigroupHandle(Superoperator(2, np.zeros((4, 4), dtype=complex)))
        cfg = small_config()
        probes = ProbeSet.build(2, cfg.samples, seed=0)
        for cid in CONDITION_IDS:
            res = check_condition(h, cid, probes, cfg)
            assert res.verdict == "satisfied", cid
            assert res.min_margin >= -1e-12, cid

    def test_lindblad_satisfies_everything(self):
        h = handle(random_lindblad(3, 2, seed=8))
        cfg = small_config()
        probes = ProbeSet.build(3, cfg.samples, seed=1)
        for cid in CONDITION_IDS:
            res = check_condition(h, cid, probes, cfg)
            assert res.verdict == "satisfied", (cid, res.min_margin)
            assert res.min_margin >= -1e-8, cid

    def test_flip_violations_and_reproducibility(self):
        h = handle(flip_nonpositive(2))
        cfg = small_config()
        probes = ProbeSet.build(2, cfg.samples, seed=2)

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
            check_condition(h, "bogus", ProbeSet.build(2, 1, 0), small_config())

    @pytest.mark.parametrize("cid", ["semigroup_sa", "semigroup_positive"])
    def test_probes_of_another_dimension_rejected(self, cid):
        # a probe condition would fail inside numpy, a cone condition would
        # ignore the probes
        h = handle(random_lindblad(3, 2, seed=8))
        with pytest.raises(DimensionMismatch,
                           match=r"^probe dimension 2 != generator dimension 3$"):
            check_condition(h, cid, ProbeSet.build(2, 5), small_config())


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
        # positive but not CP: the generator's certificate certifies it
        assert rep.positive.status == CERTIFIED_POSITIVE
        assert rep.positive.margin >= -1e-9
        assert rep.unital_margin <= 1e-10
        assert rep.direction_consistency

    @pytest.mark.parametrize("seed", [3, 15])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_transpose_mixing_certified_without_the_ascent(self, n, seed, monkeypatch):
        # every T_t is positive (the generator's certificate says so) and unital, so
        # by Russo-Dye its norm is 1 and the contraction search skips its ascent
        climbs = []
        ascend = superop._ascend
        monkeypatch.setattr(superop, "_ascend", lambda *args: climbs.append(1) or ascend(*args))
        h = handle(transpose_mixing(random_lindblad(n, 1, seed)))
        config = small_config()
        rep = theorem2_check(h, config)
        assert rep.contraction_status == "certified_contraction"
        assert climbs == []
        # the search without a stop, ascent included, proves no T_t non-contractive
        tol = config.tol("predicate")
        for s_t in semigroup.family_maps(h, "semigroup", config.t_grid):
            full = full_contraction_search(s_t, subseed(config.seed, 23), tol)[1]
            assert full.norm_lower_bound <= 1.0 + tol

    def test_hamiltonian_automorphisms(self):
        hmat = np.diag([1.0, -1.0]).astype(complex)
        rep = theorem2_check(handle(lindblad(hmat, [])), small_config())
        assert rep.unit_margin <= 1e-12
        assert rep.positive.status == CERTIFIED_POSITIVE
        assert rep.direction_consistency

    def test_flip_fails_contraction_hypothesis(self):
        with pytest.raises(HypothesisViolation, match="contract"):
            theorem2_check(handle(flip_nonpositive(2)), small_config())

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_flip_message_equals_the_full_search(self, n, monkeypatch):
        # the contraction search stops at its first sampled proof; the bound
        # it prints is the one the search without that stop prints
        config = RunConfig()
        with pytest.raises(HypothesisViolation) as early:
            theorem2_check(handle(flip_nonpositive(n)), config)
        monkeypatch.setattr(
            criteria,
            "contraction_checks",
            lambda maps, seed, tol, positive: [full_contraction_search(s, seed, tol)[1]
                                               for s in maps],
        )
        with pytest.raises(HypothesisViolation) as full:
            theorem2_check(handle(flip_nonpositive(n)), config)
        assert str(early.value) == str(full.value)
        assert "at t=0.1" in str(early.value)

    def test_witness_tie_goes_to_first_violated_map(self, monkeypatch):
        # T_t = 1 passes the contraction hypothesis; the fake search violates
        # every T_t, and the last two tie for the least margin
        def score(maps, seeds, tol, groups, generator_certified):
            return [ConeVerdict(VIOLATED, margin, 1, np.full(2, i, dtype=complex))
                    for i, margin in enumerate([-0.5, -1.0, -1.0][:len(maps)])]

        monkeypatch.setattr(criteria, "positivity_checks", score)
        h = SemigroupHandle(Superoperator(2, np.zeros((4, 4), dtype=complex)))
        rep = theorem2_check(h, small_config(t_grid=(0.5, 1.0, 2.0)))
        assert rep.positive.status == VIOLATED
        assert rep.positive.margin == -1.0
        assert np.array_equal(rep.positive.witness, np.full(2, 1, dtype=complex))

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
        flip_plus_lindblad(4, 6),
        # the CLI's flip recipe: T_10's margins reach -2.8e34, so the
        # semigroup group spans some 30 decades
        flip_nonpositive(3, 4.0),
        # signed rates on M(2): certified, unviolated and violated maps share
        # a grid
        GeneratorSpec(kind="explicit", n=2, superop=Superoperator(2, signed_rate_rep(10))),
    ], ids=["transpose_mixing", "flip_plus_lindblad", "violated_flip", "flip_nonpositive",
            "signed_rate_10"])
    def test_byte_identical_to_per_map_searches(self, gen, monkeypatch):
        config = small_config(seed=3)
        stacked = self.payloads(gen, config)

        def per_map(maps, seeds, tol, groups, generator_certified):
            return [positivity_checks([m], [seed], tol, None, generator_certified)[0]
                    for m, seed in zip(maps, seeds)]

        monkeypatch.setattr(criteria, "positivity_checks", per_map)
        assert self.payloads(gen, config) == stacked

    def test_violated_flip_descends_one_map_per_condition(self, monkeypatch):
        # every map is violated at its starters, and in each condition one
        # map's starter value lies below the Choi floors of the others, so
        # only that map descends
        sizes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            sizes.append(int(np.prod(np.shape(a)[:-2])))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        theorem1_report(handle(flip_plus_lindblad(4, 6)), RunConfig())
        assert max(sizes) <= 3 * superop._N_DESCENT
        assert sum(sizes) <= 1500


class TestScreenedScans:
    """The eigenvalue screen changes no search: a screen that keeps every
    matrix gives the same statuses, margins, witnesses and worst probes, bit
    for bit.  The generator certificate only settles maps that the search
    would find no violation in."""

    @staticmethod
    def searches(spec):
        n = spec.n
        h = handle(spec)
        config = small_config(seed=3)
        probes = ProbeSet.build(n, config.samples, 5)
        conditions = [check_condition(h, cid, probes, config) for cid in CONDITION_IDS]
        # every map of the report searched alone and without the generator's
        # certificate, so that certified maps descend too
        maps = [m for family, points in (("semigroup", config.t_grid),
                                         ("resolvent", lambda_grid(h, config.lambda_multipliers)))
                for m in family_maps(h, family, points)]
        alone = positivity_checks(maps, range(len(maps)), DEFAULT_TOL)
        certified = positivity_checks(maps, [0] * len(maps), DEFAULT_TOL, [0] * len(maps),
                                      lambda: generator_certificate(h).kind is not None)
        trace = trace_preservation_check(h, density_from(np.random.default_rng(n), n, k=6))

        def verdict(v):
            witness = None if v.witness is None else v.witness.tobytes()
            return v.status, v.margin.hex(), v.samples_used, witness

        return (
            [(c.verdict, c.min_margin.hex(), c.worst_probe) for c in conditions],
            # the report's grouped cone searches, as the handle memoized them
            {key: {p: verdict(v) for p, v in vs.items()} for key, vs in h._cone_verdicts.items()},
            [verdict(v) for v in alone + certified],
            (trace.state_min_eig.hex(), trace.state_status, trace.trace_margin.hex()),
        )

    GENERATORS = pytest.mark.parametrize("make", [
        lambda n: random_lindblad(n, 2, n),
        lambda n: transpose_mixing(random_lindblad(n, 1, n)),
        lambda n: flip_nonpositive(n),
    ], ids=["lindblad", "transpose_mixing", "flip_nonpositive"])

    @pytest.mark.parametrize("n", [2, 3, 4])
    @GENERATORS
    def test_searches_unchanged(self, make, n, monkeypatch):
        screened = self.searches(make(n))
        monkeypatch.setattr(matrixcore, "_cholesky_completes",
                            lambda a, shift: np.zeros(a.shape[2:], dtype=bool))
        assert self.searches(make(n)) == screened

    @staticmethod
    def withhold_certificate(monkeypatch):
        # a negative c fails the certificate, so no generator holds one
        monkeypatch.setattr(semigroup, "mirror_split", lambda gen: (-1.0, -math.inf))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("make, kind", [
        (lambda n: random_lindblad(n, 2, n), "ccp"),
        (lambda n: flip_nonpositive(n), None),
    ], ids=["lindblad", "flip_nonpositive"])
    def test_searches_unchanged_when_the_certificate_settles_nothing(self, make, kind, n,
                                                                     monkeypatch):
        # the Choi eigenvalues of a CP generator's maps certify each map its
        # certificate does; a flip generator holds none to withhold
        assert generator_certificate(handle(make(n))).kind == kind
        certified = self.searches(make(n))
        self.withhold_certificate(monkeypatch)
        assert self.searches(make(n)) == certified

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("make", [lambda n: transpose_mixing(random_lindblad(n, 1, n))],
                             ids=["transpose_mixing"])
    def test_a_withheld_certificate_only_uncertifies_maps(self, make, n, monkeypatch):
        # transpose mixing is positive but not CP: without its decomposable
        # certificate the maps whose Choi matrices do not certify them
        # descend, find no violation, and report a margin no higher than
        # their starters gave; every other verdict stays bit for bit
        assert generator_certificate(handle(make(n))).kind == "decomposable"
        certified = self.searches(make(n))
        self.withhold_certificate(monkeypatch)
        withheld = self.searches(make(n))
        assert [c[0] for c in withheld[0]] == [c[0] for c in certified[0]]
        assert withheld[3] == certified[3]
        assert withheld[1].keys() == certified[1].keys()
        pairs = [(a, b) for key in certified[1]
                 for a, b in zip(certified[1][key].values(), withheld[1][key].values(), strict=True)]
        pairs += list(zip(certified[2], withheld[2], strict=True))
        changed = [(a, b) for a, b in pairs if a != b]
        assert changed
        for a, b in changed:
            assert (a[0], b[0]) == (CERTIFIED_POSITIVE, NO_VIOLATION_FOUND)
            assert -DEFAULT_TOL <= float.fromhex(b[1]) <= float.fromhex(a[1])


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
        probes = ProbeSet.build(3, config.samples, subseed(config.seed, 11))
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

        def family_lists(g):
            return {
                "semigroup_positive": [(t, evolve(g, t)) for t in config.t_grid],
                "resolvent_positive": [(l, resolvent(g, l)) for l in lams],
                "resolvent_exp": [
                    (l, Superoperator(3, root_rule_exp(resolvent(g, l).rep, s)))
                    for s in criteria.S_GRID for l in lams
                ],
            }

        maps = family_lists(h)
        certified = semigroup.generator_certificate(h).kind is not None
        report = theorem1_report(handle(gen), config)
        for cid, pairs in maps.items():
            seed = subseed(config.seed, 17, CONDITION_IDS.index(cid))
            verdicts = [positivity_checks([m], [seed], DEFAULT_TOL, None, lambda: certified)[0]
                        for _, m in pairs]
            k = int(np.argmin([v.margin for v in verdicts]))
            got = report.by_id(cid)
            assert got.min_margin == verdicts[k].margin
            assert got.worst_probe.grid_value == pairs[k][0]


class TestConeVerdictMemo:
    """Each condition grid is cone-searched once per handle; reports read the verdicts."""

    def payloads(self, h, config):
        try:
            t2 = json.dumps(theorem2_check(h, config).to_json())
        except HypothesisViolation as exc:
            t2 = str(exc)
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

    def test_report_searches_once_then_checks_every_condition(self, cone_searches,
                                                               monkeypatch):
        checked = []
        check = criteria.check_condition

        def record(h, cid, probes, config):
            checked.append(cid)
            return check(h, cid, probes, config)

        monkeypatch.setattr(criteria, "check_condition", record)
        h = handle(transpose_mixing(random_lindblad(3, 2, 5)))
        config = small_config(seed=3)
        theorem1_report(h, config)
        assert cone_searches == [15]
        assert checked == list(CONDITION_IDS)
        theorem2_check(h, config)
        probes = ProbeSet.build(3, config.samples, subseed(config.seed, 11))
        for cid in ("semigroup_positive", "resolvent_positive", "resolvent_exp"):
            check(h, cid, probes, config)
        assert cone_searches == [15]

    def test_report_scans_each_probe_class_once(self, monkeypatch):
        probe_scans = []
        kernel = criteria.dissipation_batch
        monkeypatch.setattr(criteria, "dissipation_batch",
                            lambda reps_t, xs: probe_scans.append(len(reps_t))
                            or kernel(reps_t, xs))
        built = []
        build = ProbeSet.build
        monkeypatch.setattr(ProbeSet, "build",
                            staticmethod(lambda *args: built.append(build(*args)) or built[-1]))
        h = handle(transpose_mixing(random_lindblad(3, 2, 5)))
        config = small_config(seed=3)
        theorem1_report(h, config)
        assert probe_scans == [7, 7]  # T_t, R_lam and L, once per probe class
        theorem2_check(h, config)
        (probes,) = built
        for cid in PROBE_IDS:
            check_condition(h, cid, probes, config)
        assert probe_scans == [7, 7]
        # an equal ProbeSet that is another object is scanned again, and
        # takes the memo's entry from the first
        other = build(3, config.samples, subseed(config.seed, 11))
        check_condition(h, "semigroup_sa", other, config)
        check_condition(h, "semigroup_sa", other, config)
        assert probe_scans == [7, 7, 3]
        check_condition(h, "semigroup_sa", probes, config)
        assert probe_scans == [7, 7, 3, 3]

    @pytest.mark.parametrize("scan_entries", ["default", 1])
    @pytest.mark.parametrize("gen", [
        flip_plus_lindblad(3, 6),
        transpose_mixing(random_lindblad(3, 2, 5)),
    ], ids=["flip_plus_lindblad", "transpose_mixing"])
    def test_probe_check_alone_equals_report_entry(self, gen, scan_entries, monkeypatch):
        # the report scans every probe condition at once; a check on a fresh
        # handle scans its own grid alone.  Margin arrays, screened entries
        # included, and results agree bit for bit
        if scan_entries != "default":
            monkeypatch.setattr(criteria, "_SCAN_ENTRIES", scan_entries)
        config = small_config(seed=3, t_grid=(0.1, 1.0, 2.0, 1.0, 10.0))
        h = handle(gen)
        report = theorem1_report(h, config)
        probes = ProbeSet.build(3, config.samples, subseed(config.seed, 11))
        for cid in PROBE_IDS:
            alone = handle(gen)
            got, want = check_condition(alone, cid, probes, config), report.by_id(cid)
            assert (got.to_json(), got.min_margin.hex()) == (want.to_json(),
                                                             want.min_margin.hex()), cid
            ((key, (_, margins)),) = alone._probe_margins.items()
            assert margins.tobytes() == h._probe_margins[key][1].tobytes(), cid

    def test_theorem2_alone_searches_the_semigroup_maps(self, cone_searches):
        h = handle(transpose_mixing(random_lindblad(3, 2, 5)))
        config = small_config(seed=3)
        theorem2_check(h, config)
        assert cone_searches == [len(config.t_grid)]
        theorem1_report(h, config)
        assert cone_searches == [len(config.t_grid), 12]  # R_lam and e^{sR_lam} only

    def test_shared_handle_equals_fresh_handle_on_a_subgrid(self, cone_searches):
        # T_1 is bounded against T_10 in the search of (0.1, 1, 10); the
        # search of (1,) alone must not read that bounded margin
        gen = flip_plus_lindblad(4, 6)
        first = small_config(seed=3)
        second = small_config(seed=3, t_grid=(1.0,))
        h = handle(gen)
        shared = [self.payloads(h, first), self.payloads(h, second)]
        # Theorem 2 reads its three T_t verdicts before its sampled proof; the
        # R_lam and e^{sR_lam} grids are shared
        assert cone_searches == [3, 12, 1]
        fresh = [self.payloads(handle(gen), c) for c in (first, second)]
        assert shared == fresh

    def test_duplicate_grid_points_are_searched_once(self, cone_searches):
        h = handle(transpose_mixing(random_lindblad(3, 2, 5)))
        rep = theorem2_check(h, small_config(seed=3, t_grid=(1.0, 1.0, 10.0)))
        assert cone_searches == [2]
        fresh = theorem2_check(handle(transpose_mixing(random_lindblad(3, 2, 5))),
                               small_config(seed=3, t_grid=(1.0, 10.0)))
        assert (rep.positive.status, rep.positive.margin) == (fresh.positive.status,
                                                              fresh.positive.margin)

    # A cone check certifies the maps it cannot decide by the generator's
    # certificate, which builds no map.
    @pytest.mark.parametrize("check, exps, invs", [
        (lambda h: trace_preservation_check(h, density_from(np.random.default_rng(1), 3, k=2)),
         [(3, 9, 9)], []),
        (lambda h: check_condition(h, "resolvent_exp", ProbeSet.build(3, 1), small_config()),
         [(3, 9, 9)], [(3, 9, 9)]),  # one root e^{R_lam / 2} per R_lam
        (lambda h: trajectory_records(h, np.eye(3) / 3, TRACE_T_GRID), [(3, 9, 9)], []),
        (lambda h: theorem1_report(h, small_config(seed=3)),
         [(3, 9, 9), (3, 9, 9)], [(3, 9, 9)]),
        (lambda h: theorem2_check(h, small_config(seed=3)), [(3, 9, 9)], []),
    ], ids=["trace_preservation", "resolvent_exp", "trajectory", "theorem1", "theorem2"])
    def test_each_family_is_built_in_one_stacked_call(self, check, exps, invs, monkeypatch):
        built = {"exp": [], "inv": []}

        def counted(name, fn):
            return lambda m: built[name].append(np.shape(m)) or fn(m)

        monkeypatch.setattr(semigroup, "mat_exp", counted("exp", mat_exp))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        check(handle(transpose_mixing(random_lindblad(3, 2, 5))))
        assert built == {"exp": exps, "inv": invs}

    def test_resolvent_exp_maps_built_once(self, monkeypatch):
        h = handle(transpose_mixing(random_lindblad(3, 2, 5)))
        config = small_config(seed=3)
        theorem1_report(h, config)
        for module in (criteria, semigroup):  # nothing left to build anywhere
            monkeypatch.setattr(module, "mat_exp", None, raising=False)
        got = check_condition(h, "resolvent_exp", ProbeSet.build(3, 1), config)
        assert got == theorem1_report(h, config).by_id("resolvent_exp")

    def test_resolvent_exp_tie_goes_to_first_s_major_pair(self, monkeypatch):
        # L = 0 gives e^{s R_lam} = e^{s/lam} 1, so the pairs (s, lam) = (1, 0.5)
        # and (2, 1) build the same map.  Scored so that exactly those two tie
        # for the least margin, the s-major, lam-minor order reports lam = 0.5
        # and a lam-major order would report lam = 1.
        def score(maps, seeds, tol, groups, generator_certified):
            return [ConeVerdict(NO_VIOLATION_FOUND,
                                -float(np.isclose(m.rep[0, 0].real, np.exp(2.0))), 1)
                    for m in maps]

        monkeypatch.setattr(criteria, "positivity_checks", score)
        h = SemigroupHandle(Superoperator(2, np.zeros((4, 4), dtype=complex)))
        monkeypatch.setattr(criteria, "S_GRID", (1.0, 2.0))
        config = small_config(lambda_multipliers=(1.0, 0.5))
        got = check_condition(h, "resolvent_exp", ProbeSet.build(2, 1), config)
        assert got.min_margin == -1.0
        assert got.worst_probe.grid_value == 0.5


class TestGeneratorCertificates:
    """Cone maps that are positive but not CP are certified by their generator's split."""

    def payloads(self, gen, config):
        h = handle(gen)
        out = [json.dumps(theorem1_report(h, config).to_json())]
        try:
            out.append(json.dumps(theorem2_check(h, config).to_json()))
        except HypothesisViolation as exc:
            out.append(str(exc))
        return out

    @pytest.mark.parametrize("n, seed", [(3, 0), (4, 1), (6, 2)])
    def test_every_transpose_mixing_cone_map_is_certified(self, n, seed):
        h = handle(transpose_mixing(random_lindblad(n, 1, seed)))
        report = theorem1_report(h, RunConfig())
        assert all(c.verdict == "satisfied" for c in report.conditions)
        statuses = {v.status for grid in h._cone_verdicts.values() for v in grid.values()}
        assert statuses == {CERTIFIED_POSITIVE}
        assert theorem2_check(h, RunConfig()).positive.status == CERTIFIED_POSITIVE

    def test_wrong_split_leaves_the_search_verdicts(self, monkeypatch):
        # at c = 0 and at c = 40, L - c tau is far from CCP: the certificate
        # fails, and the reports are those of the search without a split
        gen = transpose_mixing(random_lindblad(3, 1, 0))
        config = small_config(seed=3)
        monkeypatch.setattr(semigroup, "mirror_split", forced_split(0.0))
        searched = self.payloads(gen, config)
        assert json.loads(searched[1])["positive"]["status"] == NO_VIOLATION_FOUND
        monkeypatch.setattr(semigroup, "mirror_split", forced_split(40.0))
        assert semigroup.generator_certificate(handle(gen)).kind is None
        assert self.payloads(gen, config) == searched

    @pytest.mark.parametrize("gen", [
        flip_plus_lindblad(4, 6),
        flip_plus_lindblad(4, 9),
    ], ids=["violated_flip", "violated_flip_9"])
    def test_violated_maps_never_ask_for_the_certificate(self, gen, monkeypatch):
        # every map is violated at its starters, so the search never asks
        # for the generator's certificate: no split and no eigh or eigvalsh
        # on its behalf
        config = small_config(seed=3)
        plain = self.payloads(gen, config)

        def unreachable(*args):
            raise AssertionError("the generator certificate was asked for")

        for module, name in ((criteria, "generator_certificate"),
                             (semigroup, "generator_certificate"), (semigroup, "mirror_split")):
            monkeypatch.setattr(module, name, unreachable)
        assert self.payloads(gen, config) == plain

    def test_cp_maps_ask_for_the_certificate_once_per_handle(self, monkeypatch):
        # no map of a CP Lindblad generator is violated at its starters, so
        # its reports ask for the certificate, once per handle
        gen = random_lindblad(3, 2, 7)
        config = small_config(seed=3)
        plain = self.payloads(gen, config)
        calls = {"generator_certificate": 0, "mirror_split": 0}

        def counted(name, fn):
            def call(arg):
                calls[name] += 1
                return fn(arg)
            return call

        for module, name in ((criteria, "generator_certificate"), (semigroup, "mirror_split")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert self.payloads(gen, config) == plain
        assert calls == {"generator_certificate": 1, "mirror_split": 1}


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
        probes = ProbeSet.build(3, config.samples, subseed(config.seed, 11))
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

    def test_probe_scan_one_map_per_call_equals_one_call(self, monkeypatch):
        # margins and worst probes bit for bit, whatever the scan's chunks
        gen = flip_plus_lindblad(3, 6)
        config = small_config(seed=3, t_grid=(0.1, 0.5, 1.0, 2.0, 10.0))
        probes = ProbeSet.build(3, config.samples, subseed(config.seed, 11))

        def scan():
            # on a fresh handle, or the memo serves the second scan
            h = handle(gen)
            return [check_condition(h, cid, probes, config).to_json() for cid in PROBE_IDS]

        monkeypatch.setattr(criteria, "_SCAN_ENTRIES", 2**62)
        whole = scan()
        maps_per_call = []
        kernel = criteria.dissipation_batch

        def counted(reps_t, xs):
            maps_per_call.append(len(reps_t))
            return kernel(reps_t, xs)

        monkeypatch.setattr(criteria, "dissipation_batch", counted)
        monkeypatch.setattr(criteria, "_SCAN_ENTRIES", 1)
        assert scan() == whole
        assert maps_per_call == [1] * (2 * (3 + 5 + 1))  # R_lam, T_t and L, two probe kinds

    @pytest.mark.parametrize("kind", ["selfadjoint", "unitary"])
    def test_single_probe_equals_batch_row(self, kind):
        h = handle(flip_plus_lindblad(3, 6))
        probes = ProbeSet.build(3, 4, seed=1)
        pool = probes.selfadjoint if kind == "selfadjoint" else probes.unitaries
        stack = np.stack(pool[-4:])  # random members, so row 0 is no structured probe
        for phi in (h.generator, evolve(h, 1.0), resolvent(h, 5.0)):
            got = dissipation(phi, stack[0])
            row = dissipation_batch(phi.rep.T, stack)[0]
            assert np.abs(got - row).max() <= 1e-13 * np.abs(row).max()
            assert not got.flags.writeable
