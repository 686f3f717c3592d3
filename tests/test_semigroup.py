import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posgen import semigroup
from posgen.errors import (
    DecayFailureError,
    PropagatorOverflow,
    ResolventPoleError,
    SchemaError,
)
from posgen.matrixcore import mat_exp, spectral_norm
from posgen.semigroup import (
    GeneratorSpec,
    SemigroupHandle,
    build_superoperator,
    decay_horizon,
    euler_product,
    evolve,
    laplace_resolvent,
    lindblad_rep,
    resolvent,
    yosida_generator,
    yosida_semigroup,
)
from posgen.superop import Superoperator, apply, vec

from conftest import SX, SZ, rand_complex


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


class TestBuild:
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
        assert h._eig is None
        t = 1.7
        assert np.abs(evolve(h, t).rep - (np.eye(4) + t * rep)).max() <= 1e-12


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

    def test_defect_residual(self):
        h = small_lindblad(seed=4, n=3, k=2)
        lam = 5.0
        r = resolvent(h, lam).rep
        residual = (lam * np.eye(9) - h.generator.rep) @ r - np.eye(9)
        assert np.abs(residual).max() <= 1e-10


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
        assert h._eig is None
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


class TestSpectralData:
    def test_abscissa_values(self):
        assert zero_gen().spectral_abscissa == pytest.approx(0.0, abs=1e-12)
        assert dephasing_handle().spectral_abscissa == pytest.approx(0.0, abs=1e-12)
        assert flip_handle().spectral_abscissa == pytest.approx(2.0, abs=1e-12)

    def test_flip_spectrum(self):
        h = flip_handle()
        w = sorted(v.real for v in h.eigenvalues)
        assert np.allclose(w, [0.0, 0.0, 2.0, 2.0], atol=1e-12)


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

    def test_bad_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            GeneratorSpec.from_json({"n": 2, "kind": "unitary"})
