import json
import math

import numpy as np
import pytest

from posgen.errors import SchemaError
from posgen.instances import (
    FAMILIES,
    InstanceRecipe,
    build,
    dephasing,
    density_from,
    flip_nonpositive,
    lindblad,
    random_hermitian,
    random_lindblad,
    transpose_conjugated,
    transpose_mixing,
    unitary_from,
)
from posgen.semigroup import SemigroupHandle, build_superoperator, evolve
from posgen.superop import (
    CERTIFIED_POSITIVE,
    apply,
    cp_check,
    positivity_check,
)

from conftest import SMINUS, SX


class TestDephasing:
    def test_qubit_rep(self):
        rep = build_superoperator(dephasing(2)).rep
        assert np.array_equal(rep, np.diag([0.0, -2.0, -2.0, 0.0]).astype(complex))

    def test_qutrit_action_on_units(self):
        s = build_superoperator(dephasing(3))
        omega = np.exp(2j * np.pi / 3)
        e01 = np.zeros((3, 3), dtype=complex)
        e01[0, 1] = 1.0
        got = apply(s, e01)
        assert np.abs(got - (omega - 1.0) * e01).max() <= 1e-12

    def test_diagonal_fixed(self):
        for n in (2, 3, 4):
            s = build_superoperator(dephasing(n))
            d = np.diag(np.arange(1.0, n + 1.0)).astype(complex)
            assert np.abs(apply(s, d)).max() <= 1e-12

    def test_abscissa_zero(self):
        h = SemigroupHandle(build_superoperator(dephasing(3)))
        assert h.spectral_abscissa == pytest.approx(0.0, abs=1e-12)


class TestFlip:
    def test_qubit_rep(self):
        rep = build_superoperator(flip_nonpositive(2)).rep
        assert np.array_equal(rep, np.eye(4) - np.kron(SX, SX))

    def test_kills_unit(self):
        for n in (2, 3):
            s = build_superoperator(flip_nonpositive(n))
            assert np.abs(apply(s, np.eye(n))).max() <= 1e-14

    def test_negative_witness_closed_form(self):
        h = SemigroupHandle(build_superoperator(flip_nonpositive(2)))
        out = apply(evolve(h, 1.0), np.diag([1.0, 0.0]).astype(complex))
        w = np.linalg.eigvalsh(out)
        assert w.min() == pytest.approx(-math.e * math.sinh(1.0), abs=1e-10)
        assert w.min() == pytest.approx(-3.1945280494653251, abs=1e-10)

    def test_abscissa_scales(self):
        for scale, abscissa in ((1.0, 2.0), (0.5, 1.0)):
            h = SemigroupHandle(build_superoperator(flip_nonpositive(2, scale)))
            assert h.spectral_abscissa == pytest.approx(abscissa, abs=1e-12)


class TestTransposeConjugated:
    def test_dephasing_is_invariant(self):
        base = dephasing(2)
        conj = transpose_conjugated(base)
        assert np.abs(
            build_superoperator(conj).rep - build_superoperator(base).rep
        ).max() <= 1e-14

    def test_amplitude_damping_choi_spectrum_preserved(self):
        # two-sided transpose conjugation transposes the Choi matrix, so the
        # conjugated semigroup has exactly the base semigroup's Choi spectrum
        base = lindblad(np.zeros((2, 2)), [SMINUS])
        spec = transpose_conjugated(base)
        t1 = evolve(SemigroupHandle(build_superoperator(spec)), 1.0)
        t1_base = evolve(SemigroupHandle(build_superoperator(base)), 1.0)
        cone = positivity_check(t1)
        assert cone.status != "violated"
        assert cone.margin >= -1e-9
        cp, cp_base = cp_check(t1), cp_check(t1_base)
        assert cp.min_choi_eig >= -1e-9
        assert cp.min_choi_eig == pytest.approx(cp_base.min_choi_eig, abs=1e-10)

    def test_kills_unit(self):
        spec = transpose_conjugated(random_lindblad(3, 2, seed=11))
        s = build_superoperator(spec)
        assert np.abs(apply(s, np.eye(3))).max() <= 1e-11

    def test_requires_lindblad_input(self):
        with pytest.raises(ValueError, match="lindblad"):
            transpose_conjugated(flip_nonpositive(2))


class TestTransposeMixing:
    def test_pure_mixing_choi_closed_form(self):
        # L = tau - id evolves to a(t) id + b(t) tau with b = (1 - e^{-2t})/2;
        # the Choi matrix is a C_id + b SWAP, whose antisymmetric eigenvalue
        # is exactly -b(t): positive but certifiably not CP
        spec = transpose_mixing(lindblad(np.zeros((2, 2)), []))
        h = SemigroupHandle(build_superoperator(spec))
        for t in (0.5, 1.0, 2.0):
            b = (1 - math.exp(-2 * t)) / 2
            cp = cp_check(evolve(h, t))
            assert cp.min_choi_eig == pytest.approx(-b, abs=1e-10)
        cone = positivity_check(evolve(h, 1.0))
        assert cone.status != "violated"
        assert cone.margin >= -1e-9

    def test_pure_mixing_is_unital_contraction(self):
        from posgen.superop import contraction_check, is_unital

        spec = transpose_mixing(lindblad(np.zeros((2, 2)), []))
        t1 = evolve(SemigroupHandle(build_superoperator(spec)), 1.0)
        unital = is_unital(t1)
        assert unital.verdict and unital.margin <= 1e-12
        verdict = contraction_check(t1)
        assert 1 - 1e-12 <= verdict.norm_lower_bound <= 1 + 1e-9

    def test_random_seeds_not_cp_but_positive(self):
        for seed in range(10):
            spec = transpose_mixing(random_lindblad(2, 1, seed, scale=0.5))
            h = SemigroupHandle(build_superoperator(spec))
            t1 = evolve(h, 1.0)
            assert cp_check(t1).min_choi_eig <= -1e-3
            assert positivity_check(t1).margin >= -1e-9

    def test_kills_unit_and_symmetric(self):
        from posgen.superop import is_symmetric_map

        spec = transpose_mixing(random_lindblad(3, 2, seed=4, scale=0.5))
        s = build_superoperator(spec)
        assert np.abs(apply(s, np.eye(3))).max() <= 1e-11
        sym = is_symmetric_map(s)
        assert sym.verdict and sym.margin <= 1e-11

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="lindblad"):
            transpose_mixing(flip_nonpositive(2))


class TestRandomConstructors:
    def test_hermitian(self):
        m = random_hermitian(3, seed=5)
        assert np.abs(m - m.conj().T).max() <= 1e-9
        assert np.array_equal(random_hermitian(3, seed=5), m)
        assert np.array_equal(random_hermitian(3, seed=5, scale=2.0), 2.0 * m)

    def test_unitary(self):
        us = unitary_from(np.random.default_rng(0), 3, k=10)
        assert np.abs(us.conj().swapaxes(1, 2) @ us - np.eye(3)).max() <= 1e-10
        # a stack holds the matrices that single draws give, in order
        rng = np.random.default_rng(0)
        assert np.array_equal(us, [unitary_from(rng, 3) for _ in range(10)])

    def test_unitary_haar_first_entry(self):
        # |u_11|^2 is uniform on [0,1] for Haar U(2): mean 1/2, var 1/12
        vals = np.abs(unitary_from(np.random.default_rng(0), 2, k=10_000)[:, 0, 0]) ** 2
        se = math.sqrt(1 / 12 / len(vals))
        assert abs(vals.mean() - 0.5) <= 3 * se

    def test_density(self):
        rhos = density_from(np.random.default_rng(7), 4, k=3)
        assert np.abs(rhos - rhos.conj().swapaxes(1, 2)).max() <= 1e-9
        assert np.linalg.eigvalsh(rhos).min() >= -1e-9
        assert np.trace(rhos, axis1=1, axis2=2).real == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(7)
        assert np.array_equal(rhos, [density_from(rng, 4) for _ in range(3)])

    def test_streams_are_independent(self):
        # at n = 2, k = 1 the Lindblad Hamiltonian is not rescaled, so equal
        # substreams would draw it equal to the Hermitian one
        h = random_hermitian(2, seed=3)
        spec = random_lindblad(2, 1, seed=3)
        assert not np.allclose(h, spec.hamiltonian)

    def test_lindblad_norm_capped(self):
        for seed in range(5):
            spec = random_lindblad(3, 2, seed=seed, scale=4.0)
            rep = build_superoperator(spec).rep
            assert np.linalg.norm(rep, 2) <= 4.0 + 1e-9

    def test_lindblad_semigroup_is_cp(self):
        for seed in range(20):
            h = SemigroupHandle(build_superoperator(random_lindblad(2, 1, seed)))
            cp = cp_check(evolve(h, 1.0))
            assert cp.min_choi_eig >= -1e-9

    def test_lindblad_positivity_certified(self):
        h = SemigroupHandle(build_superoperator(random_lindblad(3, 2, seed=9)))
        cone = positivity_check(evolve(h, 0.7))
        assert cone.status == CERTIFIED_POSITIVE

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [-1.0, 0.0, math.inf, math.nan])
    def test_lindblad_rejects_a_scale_that_is_not_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="scale must be finite and > 0"):
            random_lindblad(2, 1, 0, scale=scale)

    def test_k_zero_allowed(self):
        spec = random_lindblad(2, 0, seed=1)
        assert spec.dissipators == ()
        with pytest.raises(ValueError):
            random_lindblad(2, -1, seed=1)


class TestRecipe:
    def test_round_trip(self):
        r = InstanceRecipe(family="lindblad", n=3, seed=42, k=2, scale=2.5)
        back = InstanceRecipe.from_json(r.to_json())
        assert back == r

    def test_defaults_fill_in(self):
        r = InstanceRecipe.from_json({"family": "dephasing", "n": 2})
        assert (r.seed, r.k, r.scale) == (0, 1, 4.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(SchemaError, match="family"):
            InstanceRecipe(family="bogus", n=2)

    @pytest.mark.parametrize("fields", [
        {"family": "dephasing", "n": 1},
        {"family": "flip_nonpositive", "n": 1},
        {"family": "lindblad", "n": 2, "k": -1},
        {"family": "lindblad", "n": 2, "scale": -1.0},
        {"family": "lindblad", "n": 2, "scale": 0.0},
        {"family": "hamiltonian", "n": 2, "scale": math.inf},
        {"family": "hamiltonian", "n": 2, "scale": math.nan},
        {"family": "lindblad", "n": True},
        {"family": "lindblad", "n": 2.9},
        {"family": "lindblad", "n": 2, "seed": "3"},
        {"family": "lindblad", "n": 2, "seed": -1},
        {"family": "lindblad", "n": 2, "k": True},
        {"family": "lindblad", "n": 2, "scale": "4"},
        {"family": "lindblad", "n": 2, "scale": 10**400},
    ], ids=str)
    def test_unbuildable_recipe_rejected(self, fields):
        # from_json and both commands build recipes through the same checks
        with pytest.raises(SchemaError):
            InstanceRecipe.from_json(fields)

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown"):
            InstanceRecipe.from_json({"family": "lindblad", "n": 2, "note": "x"})

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError, match="missing"):
            InstanceRecipe.from_json({"family": "lindblad"})

    def test_build_covers_every_family(self):
        kinds = {
            "lindblad": "lindblad",
            "hamiltonian": "hamiltonian",
            "dephasing": "lindblad",
            "transpose_conjugated": "explicit",
            "transpose_mixing": "explicit",
            "flip_nonpositive": "explicit",
        }
        assert set(kinds) == set(FAMILIES)
        for family, kind in kinds.items():
            spec = build(InstanceRecipe(family=family, n=2, seed=1))
            assert spec.kind == kind
            assert spec.n == 2

    def test_build_bit_identical(self):
        r = InstanceRecipe(family="lindblad", n=3, seed=13, k=2)
        a, b = build(r), build(r)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )
        assert a.hamiltonian.tobytes() == b.hamiltonian.tobytes()
        for va, vb in zip(a.dissipators, b.dissipators):
            assert va.tobytes() == vb.tobytes()
