import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posgen import semigroup
from posgen.duality import trajectory_records
from posgen.errors import (
    PropagatorOverflow,
    ResolventPoleError,
    SchemaError,
)
from posgen.instances import (
    FAMILIES,
    InstanceRecipe,
    build,
    flip_nonpositive,
    random_lindblad,
    transpose_mixing,
)
from posgen.matrixcore import mat_exp, rounding_slack, spectral_norm
from posgen.semigroup import (
    GeneratorSpec,
    SemigroupHandle,
    build_maps,
    build_superoperator,
    euler_product,
    evolve,
    family_maps,
    generator_certificate,
    lindblad_rep,
    mirror_split,
    resolvent,
    yosida_generator,
    yosida_semigroup,
)
from posgen.superop import Superoperator, _unit_scale, apply, vec

from conftest import (
    SX,
    SZ,
    DecayFailureError,
    decay_horizon,
    laplace_resolvent,
    predual_evolve,
    rand_complex,
    root_rule_exp,
)


def zero_gen(n=2):
    return SemigroupHandle(Superoperator(n, np.zeros((n * n, n * n), dtype=complex)))


def dephasing_handle():
    return SemigroupHandle(Superoperator(2, lindblad_rep(np.zeros((2, 2)), [SZ])))


def flip_handle():
    # L(x) = x - sigma_x x sigma_x, the canonical non-positive generator
    return SemigroupHandle(Superoperator(2, np.eye(4) - np.kron(SX, SX)))


def small_lindblad(seed=0, n=3, k=1, scale=1.0):
    rng = np.random.default_rng(seed)
    g = rand_complex(rng, n, n)
    h = (g + g.conj().T) / 2 * scale
    vs = [rand_complex(rng, n, n) * scale / np.sqrt(n) for _ in range(k)]
    return SemigroupHandle(Superoperator(n, lindblad_rep(h, vs)))


def dephasing_evolved(t):
    """Closed form: diagonal fixed, off-diagonal damped by e^{-2t}."""
    d = np.exp(-2.0 * t)
    return np.array(
        [
            [1.0, 0, 0, 0],
            [0, d, 0, 0],
            [0, 0, d, 0],
            [0, 0, 0, 1.0],
        ],
        dtype=complex,
    )


def kron_lindblad_rep(h, vs):
    """Reference: the generator's rep summed from ``np.kron`` products."""
    eye = np.eye(h.shape[0])
    rep = 1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for v in vs:
        w = v.conj().T @ v
        rep = rep + np.kron(v.T, v.conj().T)
        rep = rep - 0.5 * (np.kron(eye, w) + np.kron(w.T, eye))
    return rep


class TestBuild:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rep_equals_kron_products_bitwise(self, n):
        # each entry of a Kronecker product is one product, so the rep matches
        # the np.kron formula bit for bit, signed zeros included; a real
        # Hamiltonian with no jump or an imaginary diagonal one makes -0.0s
        # for n >= 2
        rng = np.random.default_rng(n)
        g = rand_complex(rng, n, n)
        a = rng.standard_normal((n, n))
        real_h = (a + a.T) / 2
        cases = [((g + g.conj().T) / 2, [rand_complex(rng, n, n) for _ in range(k)]) for k in range(4)]
        cases += [(real_h, []), (real_h, [1j * np.diag(rng.standard_normal(n))])]
        negative_zeros = 0
        for h, vs in cases:
            rep = lindblad_rep(h, vs)
            assert rep.tobytes() == kron_lindblad_rep(h, vs).tobytes()
            parts = rep.view(float)
            negative_zeros += int((np.signbit(parts) & (parts == 0)).sum())
        assert negative_zeros > 0 or n == 1

    def test_dephasing_rep_is_diagonal(self):
        rep = lindblad_rep(np.zeros((2, 2)), [SZ])
        assert np.allclose(rep, np.diag([0.0, -2.0, -2.0, 0.0]), atol=1e-14)

    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            lindblad_rep(np.array([[0.0, 1.0], [0.0, 0.0]]), [])

    def test_build_kills_unit(self):
        h = small_lindblad(seed=5, n=4, k=2)
        margin = np.abs(h.generator.rep @ vec(np.eye(4))).max()
        assert margin <= 1e-12

    def test_hamiltonian_action(self):
        rng = np.random.default_rng(1)
        g = rand_complex(rng, 3, 3)
        hmat = (g + g.conj().T) / 2
        rep = lindblad_rep(hmat, [])
        x = rand_complex(rng, 3, 3)
        expected = 1j * (hmat @ x - x @ hmat)
        s = Superoperator(3, rep)
        assert np.abs(apply(s, x) - expected).max() <= 1e-12


class TestEvolve:
    def test_zero_generator(self):
        h = zero_gen(3)
        for t in (0.0, 0.5, 4.0):
            assert np.allclose(evolve(h, t).rep, np.eye(9), atol=1e-13)

    def test_time_zero_is_identity(self):
        h = small_lindblad()
        assert np.array_equal(evolve(h, 0.0).rep, np.eye(9))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="t >= 0"):
            evolve(zero_gen(), -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        # a non-finite T_t is not an overflow: each entry point names the time
        h = dephasing_handle()
        rho = np.eye(2) / 2
        calls = [
            lambda: evolve(h, t),
            lambda: h.evolve_rep(np.array([0.5, t])),
            lambda: predual_evolve(h, t, rho),
            lambda: trajectory_records(h, rho, [0.5, t]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"finite, got t={t:g}$"):
                call()

    def test_dephasing_closed_form(self):
        h = dephasing_handle()
        for t in (0.1, 1.0, 3.0):
            assert np.abs(evolve(h, t).rep - dephasing_evolved(t)).max() <= 1e-12

    def test_hamiltonian_is_conjugation(self):
        rng = np.random.default_rng(2)
        g = rand_complex(rng, 3, 3)
        hmat = (g + g.conj().T) / 2
        h = SemigroupHandle(Superoperator(3, lindblad_rep(hmat, [])))
        x = rand_complex(rng, 3, 3)
        t = 0.7
        u = mat_exp(1j * t * hmat)
        expected = u @ x @ u.conj().T
        assert np.abs(apply(evolve(h, t), x) - expected).max() <= 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_semigroup_law(self, seed):
        h = small_lindblad(seed=seed % 100, n=2, k=1)
        rng = np.random.default_rng(seed)
        s, t = rng.uniform(0.0, 5.0, size=2)
        lhs = evolve(h, s + t).rep
        rhs = evolve(h, s).rep @ evolve(h, t).rep
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_defective_generator_falls_back(self):
        rep = np.zeros((4, 4), dtype=complex)
        rep[0, 1] = 1.0
        h = SemigroupHandle(Superoperator(2, rep))
        t = 1.7
        assert np.abs(evolve(h, t).rep - (np.eye(4) + t * rep)).max() <= 1e-12


    @pytest.mark.parametrize("spec", [
        random_lindblad(3, 2, seed=5),
        transpose_mixing(random_lindblad(3, 2, seed=5)),
        flip_nonpositive(3),
    ], ids=["lindblad", "transpose_mixing", "flip"])
    def test_every_time_is_one_pade_exponential(self, spec):
        h = SemigroupHandle(spec)
        for t in (0.1, 1.0, 10.0):
            assert np.array_equal(evolve(h, t).rep, mat_exp(t * h.generator.rep))

    def test_memoized_per_handle(self):
        h = small_lindblad(seed=2)
        first = evolve(h, 0.5)
        assert evolve(h, 0.5) is first
        fresh = evolve(small_lindblad(seed=2), 0.5)
        assert fresh is not first
        assert np.array_equal(fresh.rep, first.rep)

    def test_overflow_names_time(self):
        h = SemigroupHandle(Superoperator(2, 100.0 * (np.eye(4) - np.kron(SX, SX))))
        assert np.isfinite(evolve(h, 1.0).rep).all()
        with pytest.raises(PropagatorOverflow, match="t=10"):
            evolve(h, 10.0)

    def test_overflowing_tL_comes_back_nonfinite(self, monkeypatch):
        # t L is -inf at t = 1e10 and 1e20: those matrices are left non-finite,
        # and only the finite t L reach the exponential
        h = SemigroupHandle(Superoperator(2, -1e300 * np.eye(4)))
        calls = []

        def counted(m):
            calls.append(np.shape(m))
            return mat_exp(m)

        monkeypatch.setattr(semigroup, "mat_exp", counted)
        with np.errstate(over="ignore"):
            out = h.evolve_rep(np.array([1e10, 1e-300, 1e20]))
            assert not np.isfinite(h.evolve_rep(np.array([1e10]))).all()
        assert np.isfinite(out).all(axis=(1, 2)).tolist() == [False, True, False]
        assert np.array_equal(out[1], mat_exp(1e-300 * h.generator.rep))
        assert calls == [(1, 4, 4)]  # none for the stack with no finite t L
        with pytest.raises(PropagatorOverflow, match=r"^T_t at t=1e\+10 overflows"):
            evolve(h, 1e10)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_nonfinite_time_is_a_value_error(self, t):
        with pytest.raises(ValueError, match=f"must be finite, got t={t:g}"):
            small_lindblad().evolve_rep(np.array([0.5, t]))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("approximation", [
        lambda h, t: euler_product(h, t, 3),
        lambda h, t: yosida_semigroup(h, 10.0, t),
    ], ids=["euler_product", "yosida_semigroup"])
    def test_approximations_reject_nonfinite_times(self, approximation, t):
        with pytest.raises(ValueError, match=f"^semigroup times must be finite, got t={t:g}$"):
            approximation(small_lindblad(), t)

    def test_empty_times_give_an_empty_stack(self):
        assert small_lindblad().evolve_rep(np.array([])).shape == (0, 9, 9)

    @pytest.mark.parametrize("ts", [[[0.5, 1.0]], 0.5], ids=["2-D", "0-D"])
    def test_times_must_be_one_dimensional(self, ts):
        shape = np.shape(ts)
        with pytest.raises(ValueError, match=f"1-D array, got shape {re.escape(str(shape))}"):
            small_lindblad().evolve_rep(np.array(ts))

    def test_built_maps_are_the_ones_evolve_returns(self, monkeypatch):
        h = small_lindblad(seed=2)
        build_maps(h, "semigroup", (1.0, 0.0, 0.5, 1.0))
        assert sorted(h._maps["semigroup"]) == [0.0, 0.5, 1.0]
        built = dict(h._maps["semigroup"])
        monkeypatch.setattr(semigroup, "mat_exp", None)  # nothing left to build
        for t, s in built.items():
            assert evolve(h, t) is s
            assert np.array_equal(s.rep, mat_exp(t * h.generator.rep))
        build_maps(h, "semigroup", (0.5,))

    def test_overflow_is_left_for_evolve_to_report(self):
        h = SemigroupHandle(Superoperator(2, 100.0 * (np.eye(4) - np.kron(SX, SX))))
        build_maps(h, "semigroup", (1.0, 10.0))
        assert h._maps["semigroup"][10.0] is None  # memoized as not fitting
        with pytest.raises(PropagatorOverflow, match="t=10"):
            evolve(h, 10.0)


class TestResolventExp:
    def test_overflow_is_built_once(self, monkeypatch):
        # L = 0 gives e^{s R_lam} = e^{s / lam} 1, beyond double precision at
        # s / lam = 1000; every request names that point, and none rebuilds it
        h = zero_gen()
        calls = []

        def counted(m):
            calls.append(np.shape(m))
            return mat_exp(m)

        monkeypatch.setattr(semigroup, "mat_exp", counted)
        points = [(1.0, 1.0), (1000.0, 1.0)]
        for request in (points, points, points[1:]):
            with pytest.raises(PropagatorOverflow) as exc:
                family_maps(h, "resolvent_exp", request)
            assert str(exc.value) == "e^(s R_lam) at s=1000, lam=1 overflows double precision"
        assert family_maps(h, "resolvent_exp", points[:1])[0] is h._maps["resolvent_exp"][1.0, 1.0]
        assert calls == [(2, 4, 4)]  # the roots e^{R/2} and e^{(1000/1024) R}

    # s = 0, s < 1/2, the S_GRID values and s = 3 = (3/4) 2^2
    S = (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 1.5, 0.75)

    def points(self, h):
        lams = [h.spectral_abscissa + d for d in (0.5, 2.0, 8.0)]
        return [(s, lam) for s in self.S for lam in lams]

    @pytest.mark.parametrize("family", ["lindblad", "transpose_mixing", "flip_nonpositive"])
    def test_each_map_is_its_root_squared(self, family, monkeypatch):
        spec = build(InstanceRecipe(family=family, n=3, seed=4))
        h = SemigroupHandle(spec)
        roots = []

        def counted(m):
            roots.extend(np.array(m))  # m may be a view that the result overwrites
            return mat_exp(m)

        monkeypatch.setattr(semigroup, "mat_exp", counted)
        points = self.points(h)
        maps = dict(zip(points, family_maps(h, "resolvent_exp", points)))
        # one root per distinct (m, lam): 0, 1/4, 1/2 and 3/4 at each lam
        assert len(roots) == 4 * 3
        for (s, lam), e in maps.items():
            r = resolvent(h, lam).rep
            assert np.array_equal(e.rep, root_rule_exp(r, s))
            if s >= 1:
                half = maps[s / 2, lam].rep
                assert np.array_equal(e.rep, half @ half)
        for s, lam in points:
            m = math.frexp(s)[0] if s >= 0.5 else s
            assert any(np.array_equal(m * resolvent(h, lam).rep, root) for root in roots)
        for lam in {lam for _, lam in points}:
            assert np.array_equal(maps[0.0, lam].rep, np.eye(9))

    @pytest.mark.parametrize("family", ["lindblad", "flip_nonpositive"])
    def test_bits_do_not_depend_on_the_other_points(self, family):
        spec = build(InstanceRecipe(family=family, n=3, seed=4))
        whole = SemigroupHandle(spec)
        points = self.points(whole)
        one_call = family_maps(whole, "resolvent_exp", points)
        alone, reverse = SemigroupHandle(spec), SemigroupHandle(spec)
        singles = [family_maps(alone, "resolvent_exp", [p])[0] for p in points]
        reversed_ = family_maps(reverse, "resolvent_exp", points[::-1])[::-1]
        for a, b, c in zip(one_call, singles, reversed_):
            assert np.array_equal(a.rep, b.rep)
            assert np.array_equal(a.rep, c.rep)


class TestResolvent:
    def test_zero_generator(self):
        r = resolvent(zero_gen(), 2.0)
        assert np.allclose(r.rep, np.eye(4) / 2.0, atol=1e-13)

    def test_dephasing_eigenvalues(self):
        r = resolvent(dephasing_handle(), 1.0)
        assert np.allclose(r.rep, np.diag([1.0, 1 / 3, 1 / 3, 1.0]), atol=1e-12)

    def test_unit_maps_to_inverse_lambda(self):
        # (lam - L)^{-1}(1) = 1/lam for any unital-dual generator
        h = small_lindblad(seed=3, n=3, k=2)
        for lam in (1.0, 10.0, 100.0):
            out = apply(resolvent(h, lam), np.eye(3))
            assert np.abs(out - np.eye(3) / lam).max() <= 1e-12

    def test_pole_rejected(self):
        with pytest.raises(ResolventPoleError):
            resolvent(dephasing_handle(), 0.0)
        with pytest.raises(ResolventPoleError):
            resolvent(flip_handle(), 2.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_resolvent_identity(self, seed):
        h = small_lindblad(seed=seed % 50, n=2)
        rng = np.random.default_rng(seed)
        l1, l2 = rng.uniform(0.5, 20.0, size=2)
        r1, r2 = resolvent(h, l1).rep, resolvent(h, l2).rep
        lhs = r1 - r2
        rhs = (l2 - l1) * (r1 @ r2)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_memoized_per_handle(self):
        h = small_lindblad(seed=3)
        first = resolvent(h, 4.0)
        assert resolvent(h, 4.0) is first
        assert resolvent(h, 5.0) is not first
        assert np.array_equal(resolvent(small_lindblad(seed=3), 4.0).rep, first.rep)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_stacked_grid_equals_one_lambda_at_a_time(self, family):
        # a report builds its R_lam grid in one stacked inverse; each map must
        # be the one a lone resolvent(h, lam) builds, bit for bit
        spec = build(InstanceRecipe(family=family, n=3, seed=7))
        stacked, single = SemigroupHandle(spec), SemigroupHandle(spec)
        lams = [stacked.spectral_abscissa + d for d in (0.5, 2.0, 8.0)]
        build_maps(stacked, "resolvent", lams)
        for lam in lams:
            assert np.array_equal(resolvent(stacked, lam).rep, resolvent(single, lam).rep)

    def test_defect_residual(self):
        h = small_lindblad(seed=4, n=3, k=2)
        lam = 5.0
        r = resolvent(h, lam).rep
        residual = (lam * np.eye(9) - h.generator.rep) @ r - np.eye(9)
        assert np.abs(residual).max() <= 1e-10


class TestOneBuildRule:
    """build_maps decides which points have a map; family_maps names why one has none."""

    POLE = "resolvent point 4.5 does not clear the spectral abscissa 8"

    def flip(self):
        # the CLI's flip instance: abscissa 8, so lam = 4.5 is a pole
        return SemigroupHandle(build(InstanceRecipe(family="flip_nonpositive", n=3)))

    @pytest.mark.parametrize("family, points", [
        ("resolvent", [900.0, 4.5]),
        ("resolvent_exp", [(0.5, 900.0), (0.5, 4.5)]),
    ])
    def test_pole_after_a_clearing_point(self, family, points, monkeypatch):
        h = self.flip()
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: calls.append(np.shape(m)) or inv(m))
        with pytest.raises(ResolventPoleError) as exc:
            family_maps(h, family, points)
        assert str(exc.value) == self.POLE
        # the clearing map is built and memoized, by one inverse of its row only
        assert calls == [(1, 9, 9)]
        assert h._maps[family][points[0]] is not None
        assert h._maps[family][points[1]] is None
        assert h._maps["resolvent"][4.5] is None
        with pytest.raises(ResolventPoleError, match=re.escape(self.POLE)):
            family_maps(h, family, points[1:])
        assert len(calls) == 1

    def test_resolvent_exp_chunks_equal_one_call(self, monkeypatch):
        points = [(s, lam) for s in (0.5, 1.0, 2.0) for lam in (1.0, 10.0, 100.0)]
        one = family_maps(small_lindblad(seed=5), "resolvent_exp", points)
        calls = []

        def counted(m):
            calls.append(len(m))
            return mat_exp(m)

        monkeypatch.setattr(semigroup, "mat_exp", counted)
        monkeypatch.setattr(semigroup, "_EXP_CHUNK", 81)  # one 9 x 9 matrix
        chunked = family_maps(small_lindblad(seed=5), "resolvent_exp", points)
        assert calls == [1] * 3  # one root e^{R_lam / 2} per lam
        for a, b in zip(one, chunked):
            assert np.array_equal(a.rep, b.rep)


class TestLaplace:
    def test_zero_generator(self):
        r = laplace_resolvent(zero_gen(), 1.0)
        assert np.abs(r.rep - np.eye(4)).max() <= 1e-8

    def test_matches_algebraic_resolvent(self):
        for h in (dephasing_handle(), small_lindblad(seed=6, n=2, k=1)):
            lam = 10.0
            alg = resolvent(h, lam).rep
            quad = laplace_resolvent(h, lam).rep
            rel = spectral_norm(quad - alg) / spectral_norm(alg)
            assert rel <= 1e-6

    def test_hamiltonian_oscillatory_case(self):
        rng = np.random.default_rng(7)
        g = rand_complex(rng, 2, 2)
        hmat = (g + g.conj().T) / 2
        h = SemigroupHandle(Superoperator(2, lindblad_rep(hmat, [])))
        lam = 10.0
        rel = spectral_norm(
            laplace_resolvent(h, lam).rep - resolvent(h, lam).rep
        ) / spectral_norm(resolvent(h, lam).rep)
        assert rel <= 1e-6

    def test_no_decay_rejected(self):
        with pytest.raises(DecayFailureError):
            laplace_resolvent(flip_handle(), 1.0)

    def test_decay_horizon(self):
        # at the horizon T the tail bound e^{-gap T} / gap is 1e-10, unless
        # the floor T >= 1e-2 binds; within 1e-9 of the abscissa nothing decays
        shifted = SemigroupHandle(Superoperator(2, -3.0 * np.eye(4)))
        for h in (zero_gen(), dephasing_handle(), flip_handle(), shifted):
            a = h.spectral_abscissa
            floored = 0
            for gap in (1e-8, 1e-4, 1e-2, 0.5, 3.0, 1e3, 1e6, 1e12):
                lam = a + gap
                t_star = decay_horizon(h, lam)
                assert t_star >= 1e-2
                if t_star == 1e-2:
                    floored += 1
                else:
                    seen = lam - a  # the gap as decay_horizon rounds it
                    assert np.exp(-seen * t_star) / seen == pytest.approx(1e-10, rel=1e-12)
            assert floored == 2
            for lam in (a - 1.0, a, a + 5e-10):
                with pytest.raises(DecayFailureError):
                    decay_horizon(h, lam)
        with pytest.raises(DecayFailureError):
            decay_horizon(zero_gen(), 1e-9)

    @pytest.mark.parametrize("n, shapes", [
        (3, [(512, 9, 9)]),  # 512 * 81 entries fit in one stacked call
        (6, [(47, 36, 36)] * 6 + [(46, 36, 36)] * 5),  # 11 calls of <= 2^16 entries
    ])
    def test_defective_generator_exponentiates_in_bounded_stacks(self, monkeypatch, n, shapes):
        # a Jordan block under a unitary similarity: no usable eigendecomposition
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rand_complex(rng, n * n, n * n))
        jordan = -np.eye(n * n) + np.diag(np.ones(n * n - 1), 1)
        h = SemigroupHandle(Superoperator(n, q @ jordan @ q.conj().T))
        calls = []

        def counted(m):
            calls.append(np.shape(m))
            return mat_exp(m)

        monkeypatch.setattr(semigroup, "mat_exp", counted)
        quad = laplace_resolvent(h, 2.0).rep
        assert calls == shapes
        ts = np.linspace(0.0, 3.0, 5)
        assert np.array_equal(h.evolve_rep(ts), np.array([mat_exp(t * h.generator.rep) for t in ts]))
        alg = resolvent(h, 2.0).rep
        assert spectral_norm(quad - alg) / spectral_norm(alg) <= 1e-6


class TestEulerProduct:
    def test_zero_generator_exact(self):
        for m in (1, 5, 50):
            assert np.abs(euler_product(zero_gen(), 1.0, m).rep - np.eye(4)).max() <= 1e-12

    def test_unitality_exact(self):
        for h in (dephasing_handle(), small_lindblad(seed=8, n=3, k=2)):
            out = apply(euler_product(h, 1.0, 64), np.eye(h.n))
            assert np.abs(out - np.eye(h.n)).max() <= 1e-12

    def test_dephasing_error_halves(self):
        h = dephasing_handle()
        target = evolve(h, 1.0).rep
        errs = [
            spectral_norm(euler_product(h, 1.0, m).rep - target)
            for m in (8, 16, 32, 64)
        ]
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        assert all(0.4 <= r <= 0.6 for r in ratios), ratios

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            euler_product(zero_gen(), 0.0, 4)
        with pytest.raises(ValueError):
            euler_product(zero_gen(), 1.0, 0)


class TestYosida:
    def test_zero_generator(self):
        ly = yosida_generator(zero_gen(), 5.0)
        assert np.abs(ly.rep).max() <= 1e-12
        u = yosida_semigroup(zero_gen(), 5.0, 1.0)
        assert np.abs(u.rep - np.eye(4)).max() <= 1e-10

    def test_dephasing_eigenvalue(self):
        # eigenvalue mu of L turns into lam*mu/(lam - mu); at lam=10, mu=-2
        # this is -5/3, and the kernel directions stay put
        ly = yosida_generator(dephasing_handle(), 10.0)
        assert np.allclose(ly.rep, np.diag([0.0, -5 / 3, -5 / 3, 0.0]), atol=1e-12)

    def test_generator_converges(self):
        h = small_lindblad(seed=9, n=2, k=1)
        errs = [
            spectral_norm(yosida_generator(h, lam).rep - h.generator.rep)
            for lam in (10.0, 100.0, 1000.0)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-1 * max(1.0, spectral_norm(h.generator.rep))

    def test_semigroup_converges_monotonically(self):
        h = dephasing_handle()
        target = evolve(h, 1.0).rep
        errs = [
            spectral_norm(yosida_semigroup(h, lam, 1.0).rep - target)
            for lam in (10.0, 100.0, 1000.0)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-2

    def test_factorization_survives_large_lambda(self):
        # lam * t = 1000: the naive scalar prefactor would underflow to zero
        h = small_lindblad(seed=10, n=2, k=1)
        lam, t = 1000.0, 1.0
        u = yosida_semigroup(h, lam, t)
        direct = mat_exp(t * yosida_generator(h, lam).rep)
        assert np.abs(u.rep - direct).max() <= 1e-9
        assert np.isfinite(u.rep).all()


class TestMirrorSplit:
    """The search for c in the generator split L = (L - c tau) + c tau."""

    @pytest.mark.parametrize("n, k, seed", [(3, 1, 0), (3, 2, 5), (4, 1, 1), (6, 2, 2), (8, 1, 3)])
    def test_finds_c_one_on_transpose_mixing(self, n, k, seed, monkeypatch):
        # L - tau is a Lindblad generator minus the identity, so f peaks at
        # c = 1; two tangents at the ends of the bracket meet there
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(1) or eigh(*a, **kw))
        c, f = mirror_split(build_superoperator(transpose_mixing(random_lindblad(n, k, seed))))
        assert abs(c - 1.0) <= 1e-12
        assert abs(f) <= 1e-12
        assert len(calls) == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_one_eigh_on_flip(self, n, monkeypatch):
        # f(0) < 0 and f falls from c = 0: no split, no second step
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(1) or eigh(*a, **kw))
        c, f = mirror_split(build_superoperator(flip_nonpositive(n)))
        assert c == 0.0 and f < -0.1
        assert len(calls) == 1

    def test_zero_on_a_ccp_generator(self):
        c, f = mirror_split(build_superoperator(random_lindblad(3, 2, 4)))
        assert c == 0.0 and abs(f) <= 1e-12

    def test_searches_past_a_margin_within_tol_of_zero(self):
        # f(0) = -tol/2: a split within tol of CCP is still searched, and the
        # kink at c = delta is found to rounding
        rep = build_superoperator(random_lindblad(3, 1, 0)).rep
        delta = 0.5e-9 / float(_unit_scale(rep))
        gen = Superoperator(3, rep + delta * semigroup.transpose_map(3).rep)
        c, f = mirror_split(gen)
        assert c == pytest.approx(delta, rel=1e-6)
        assert abs(f) <= 1e-14

    def test_converges_to_rounding_where_the_search_stopped_at_tol(self):
        # f peaks at f(1) = 0 here; a search that stopped within 1e-9 of
        # that peak would leave f = -2.9e-11, which the certificate rejects
        c, f = mirror_split(build_superoperator(transpose_mixing(random_lindblad(2, 1, 0))))
        assert abs(c - 1.0) <= 1e-12
        assert f >= -rounding_slack(2)

    def test_no_c_reaches_zero(self):
        # L(x) = 2 x^T - Z x Z on M(2): on the complement of Omega, Choi(L -
        # c tau) is c - 2 on the antisymmetric vector and -c on vec(Z), so f
        # rises from c = 0 but peaks at f(1) = -1 (times the unit scale)
        z = np.diag([1.0, -1.0]).astype(complex)
        gen = Superoperator(2, 2.0 * semigroup.transpose_map(2).rep - np.kron(z, z))
        _, f = mirror_split(gen)
        assert f <= -0.5 * float(_unit_scale(gen.rep))


class TestGeneratorCertificate:
    """The split L = A + c tau, A CCP and c >= 0, checked once at the generator."""

    def test_kinds_of_the_instance_families(self):
        # n in {2, 3}, seeds 0 and 1, two dissipators: the transpose_mixing
        # instances need c > 0, the flips have no split and the rest are CCP
        kinds = {}
        for family in FAMILIES:
            for n in (2, 3):
                for seed in (0, 1):
                    h = SemigroupHandle(build(InstanceRecipe(family, n, seed, k=2)))
                    kind = generator_certificate(h).kind
                    kinds.setdefault(family, set()).add(kind)
                    kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds == {
            "lindblad": {"ccp"}, "hamiltonian": {"ccp"}, "dephasing": {"ccp"},
            "transpose_conjugated": {"ccp"}, "transpose_mixing": {"decomposable"},
            "flip_nonpositive": {None}, "ccp": 16, "decomposable": 4, None: 4,
        }

    def test_split_zero_on_a_ccp_generator_certifies_it(self):
        cert = generator_certificate(SemigroupHandle(random_lindblad(3, 2, 4)))
        assert (cert.kind, cert.c) == ("ccp", 0.0)
        assert abs(cert.margin) <= 1e-12

    def test_split_zero_on_a_flip_certifies_nothing(self):
        # mirror_split gives 0 here too, but L is not CCP: f(0) is -4/3 at
        # unit scale
        cert = generator_certificate(SemigroupHandle(flip_nonpositive(3)))
        assert (cert.kind, cert.c) == (None, 0.0)
        assert cert.margin == pytest.approx(-4.0 / 3.0, rel=1e-12)

    def test_no_split_certifies_nothing(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        gen = Superoperator(2, 2.0 * semigroup.transpose_map(2).rep - np.kron(z, z))
        assert generator_certificate(SemigroupHandle(gen)).kind is None

    def test_decomposable_margin_at_c(self):
        h = SemigroupHandle(transpose_mixing(random_lindblad(3, 1, 0)))
        cert = generator_certificate(h)
        assert cert.kind == "decomposable"
        assert abs(cert.c - 1.0) <= 1e-12
        assert abs(cert.margin) <= 1e-12

    @pytest.mark.parametrize("l, kind", [(-2.0, "ccp"), (0.0, "ccp"), (-2.0 + 1e-3j, None)])
    def test_one_dimensional_generator_needs_only_hermiticity(self, l, kind):
        # M(1) has no complement of Omega: L = l is certified iff l is real
        cert = generator_certificate(SemigroupHandle(Superoperator(1, np.array([[l]]))))
        assert (cert.kind, cert.c, cert.margin) == (kind, 0.0, np.inf)

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_non_hermitian_choi_certifies_nothing(self, scale):
        # a CCP generator plus i times a CCP generator: the added part has a
        # zero hermitian compressed Choi matrix, but breaks hermiticity, also
        # when it is within tol of zero at unit scale
        rep = build_superoperator(random_lindblad(2, 1, 0)).rep
        rep = rep + 1j * scale * build_superoperator(random_lindblad(2, 1, 1)).rep
        cert = generator_certificate(SemigroupHandle(Superoperator(2, rep)))
        assert cert.kind is None
        assert abs(cert.margin) <= 1e-12

    def test_memoized(self, monkeypatch):
        splits = []
        split = semigroup.mirror_split
        monkeypatch.setattr(semigroup, "mirror_split", lambda g: splits.append(g) or split(g))
        h = SemigroupHandle(transpose_mixing(random_lindblad(3, 1, 0)))
        cert = generator_certificate(h)
        assert generator_certificate(h) is cert
        assert splits == [h.generator]


class TestSpectralData:
    def test_abscissa_values(self):
        assert zero_gen().spectral_abscissa == pytest.approx(0.0, abs=1e-12)
        assert dephasing_handle().spectral_abscissa == pytest.approx(0.0, abs=1e-12)
        assert flip_handle().spectral_abscissa == pytest.approx(2.0, abs=1e-12)

    def test_flip_spectrum(self):
        h = flip_handle()
        w = sorted(np.linalg.eigvals(h.generator.rep).real)
        assert np.allclose(w, [0.0, 0.0, 2.0, 2.0], atol=1e-12)
        assert h.spectral_abscissa == max(w)


class TestGeneratorSpecJson:
    def test_lindblad_round_trip(self):
        spec = GeneratorSpec(
            kind="lindblad",
            n=2,
            hamiltonian=SZ / 2,
            dissipators=(SX / 3,),
        )
        back = GeneratorSpec.from_json(spec.to_json())
        assert back.kind == "lindblad"
        assert np.abs(back.hamiltonian - spec.hamiltonian).max() <= 1e-15
        s1, s2 = build_superoperator(spec), build_superoperator(back)
        assert np.abs(s1.rep - s2.rep).max() <= 1e-15

    def test_explicit_round_trip(self):
        spec = GeneratorSpec(kind="explicit", n=2, superop=flip_handle().generator)
        back = GeneratorSpec.from_json(spec.to_json())
        assert np.abs(build_superoperator(back).rep - flip_handle().generator.rep).max() <= 1e-15

    def test_hamiltonian_round_trip(self):
        spec = GeneratorSpec(kind="hamiltonian", n=2, hamiltonian=SX)
        back = GeneratorSpec.from_json(spec.to_json())
        assert np.abs(back.hamiltonian - SX).max() <= 1e-15

    def test_unknown_field_rejected(self):
        payload = GeneratorSpec(kind="hamiltonian", n=2, hamiltonian=SX).to_json()
        payload["comment"] = "x"
        with pytest.raises(SchemaError, match="comment"):
            GeneratorSpec.from_json(payload)

    def test_missing_payload_rejected(self):
        with pytest.raises(SchemaError, match="missing"):
            GeneratorSpec.from_json({"n": 2, "kind": "lindblad", "H": None})

    def test_bool_dimension_rejected(self):
        payload = GeneratorSpec(kind="hamiltonian", n=1, hamiltonian=np.eye(1)).to_json()
        payload["n"] = True
        with pytest.raises(SchemaError, match="positive integer"):
            GeneratorSpec.from_json(payload)

    def test_bad_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            GeneratorSpec.from_json({"n": 2, "kind": "unitary"})
