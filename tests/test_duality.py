import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posgen.duality import (
    DensityMatrix,
    TracePreservationReport,
    as_density,
    purity,
    trace_preservation_check,
    trajectory_records,
)
from posgen.errors import SchemaError
from posgen.matrixcore import psd_margins
from posgen.semigroup import SemigroupHandle, evolve, lindblad_rep
from posgen.superop import (
    NO_VIOLATION_FOUND,
    VIOLATED,
    Superoperator,
    apply,
    apply_stack,
)

from conftest import SMINUS, SX, SZ, hs_adjoint, predual_evolve, rand_complex


def handle_of(rep):
    return SemigroupHandle(Superoperator(int(math.isqrt(rep.shape[0])), rep))


def pairing(rho, a):
    """The duality pairing <rho, a> = Tr(rho^dag a)."""
    return complex(np.trace(rho.conj().T @ a))


def rand_density(rng, n):
    g = rand_complex(rng, n, n)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestPredualGenerator:
    # the state-side generator is the Hilbert-Schmidt adjoint of L
    def test_zero(self):
        s = Superoperator(2, np.zeros((4, 4), dtype=complex))
        assert np.abs(hs_adjoint(s).rep).max() == 0.0

    def test_hamiltonian_flips_sign(self):
        rng = np.random.default_rng(0)
        g = rand_complex(rng, 3, 3)
        hmat = (g + g.conj().T) / 2
        s = Superoperator(3, lindblad_rep(hmat, []))
        rho = rand_density(rng, 3)
        got = apply(hs_adjoint(s), rho)
        expected = -1j * (hmat @ rho - rho @ hmat)
        assert np.abs(got - expected).max() <= 1e-12

    def test_dephasing_self_adjoint(self):
        rep = lindblad_rep(np.zeros((2, 2)), [SZ])
        s = Superoperator(2, rep)
        assert np.abs(hs_adjoint(s).rep - rep).max() <= 1e-14

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_pairing_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        s = Superoperator(n, rand_complex(rng, n * n, n * n))
        rho, a = rand_complex(rng, n, n), rand_complex(rng, n, n)
        lhs = pairing(apply(hs_adjoint(s), rho), a)
        rhs = pairing(rho, apply(s, a))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestPredualEvolve:
    def test_zero_generator_fixes_states(self):
        rng = np.random.default_rng(1)
        rho = rand_density(rng, 2)
        h = handle_of(np.zeros((4, 4), dtype=complex))
        assert np.abs(predual_evolve(h, 2.0, rho) - rho).max() <= 1e-13

    def test_dephasing_closed_form(self):
        h = handle_of(lindblad_rep(np.zeros((2, 2)), [SZ]))
        rho0 = (np.eye(2) + SX) / 2
        for t in (0.3, 1.0, 2.5):
            got = predual_evolve(h, t, rho0)
            expected = (np.eye(2) + math.exp(-2 * t) * SX) / 2
            assert np.abs(got - expected).max() <= 1e-12

    def test_amplitude_damping_population(self):
        h = handle_of(lindblad_rep(np.zeros((2, 2)), [SMINUS]))
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        for t in (0.5, 1.0, 3.0):
            rho_t = predual_evolve(h, t, rho0)
            assert rho_t[1, 1].real == pytest.approx(math.exp(-t), abs=1e-12)
            assert rho_t[0, 0].real == pytest.approx(1 - math.exp(-t), abs=1e-12)
            assert np.trace(rho_t).real == pytest.approx(1.0, abs=1e-12)

    def test_hamiltonian_orbit(self):
        rng = np.random.default_rng(2)
        g = rand_complex(rng, 3, 3)
        hmat = (g + g.conj().T) / 2
        h = handle_of(lindblad_rep(hmat, []))
        rho = rand_density(rng, 3)
        from posgen.matrixcore import mat_exp

        t = 0.9
        u = mat_exp(-1j * t * hmat)
        expected = u @ rho @ u.conj().T
        got = predual_evolve(h, t, rho)
        assert np.abs(got - expected).max() <= 1e-10
        assert purity(got) == pytest.approx(purity(rho), abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_pairing_duality(self, seed):
        from posgen.semigroup import evolve

        rng = np.random.default_rng(seed)
        g = rand_complex(rng, 2, 2)
        hmat = (g + g.conj().T) / 2
        v = rand_complex(rng, 2, 2)
        h = handle_of(lindblad_rep(hmat, [v]))
        rho, a = rand_density(rng, 2), rand_complex(rng, 2, 2)
        t = float(rng.uniform(0.0, 2.0))
        lhs = pairing(predual_evolve(h, t, rho), a)
        rhs = pairing(rho, apply(evolve(h, t), a))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_dimension_mismatch(self):
        h = handle_of(np.zeros((4, 4), dtype=complex))
        with pytest.raises(ValueError, match="dimension"):
            predual_evolve(h, 1.0, np.eye(3) / 3)


class TestDensityValidation:
    def test_accepts_maximally_mixed(self):
        d = DensityMatrix(np.eye(3) / 3)
        assert d.n == 3

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="hermitian"):
            as_density(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive"):
            as_density(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            as_density(np.eye(2))

    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        d = DensityMatrix(rand_density(rng, 2))
        back = DensityMatrix.from_json(d.to_json())
        assert np.abs(back.rho - d.rho).max() <= 1e-15

    def test_from_json_rejects_non_state(self):
        from posgen.matrixcore import CMatrix

        payload = CMatrix(np.eye(2)).to_json()
        with pytest.raises(SchemaError, match="density"):
            DensityMatrix.from_json(payload)

    def test_frozen_array(self):
        d = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            d.rho[0, 0] = 9.0


class TestTracePreservation:
    def test_lindblad_consistent(self):
        rng = np.random.default_rng(4)
        g = rand_complex(rng, 2, 2)
        hmat = (g + g.conj().T) / 2
        h = handle_of(lindblad_rep(hmat, [rand_complex(rng, 2, 2)]))
        states = [rand_density(rng, 2) for _ in range(10)]
        rep = trace_preservation_check(h, states)
        assert rep.trace_margin <= 1e-10
        assert rep.unit_margin <= 1e-10
        assert rep.state_min_eig >= -1e-9
        assert rep.state_status == NO_VIOLATION_FOUND
        assert rep.consistent
        assert rep.samples_used == 30

    def test_dilation_control_fails_both_sides(self):
        # L(x) = x scales everything by e^t: trace grows AND L(1) != 0,
        # so the two margins fail together and the report stays consistent
        h = handle_of(np.eye(4, dtype=complex))
        states = [np.eye(2) / 2]
        rep = trace_preservation_check(h, states)
        assert rep.trace_margin >= math.exp(0.5) - 1 - 1e-9
        assert rep.unit_margin == pytest.approx(1.0, abs=1e-12)
        assert rep.consistent
        assert rep.state_status == NO_VIOLATION_FOUND  # scaling keeps positivity

    def test_flip_preserves_trace_but_not_positivity(self):
        h = handle_of(np.eye(4) - np.kron(SX, SX))
        states = [np.diag([1.0, 0.0]).astype(complex)]
        rep = trace_preservation_check(h, states, t_grid=(1.0,))
        assert rep.trace_margin <= 1e-10
        assert rep.unit_margin <= 1e-10
        assert rep.consistent
        assert rep.state_status == VIOLATED
        assert rep.state_min_eig == pytest.approx(-math.e * math.sinh(1.0), abs=1e-9)

    def test_empty_probe_list_rejected(self):
        with pytest.raises(ValueError, match="probe"):
            trace_preservation_check(handle_of(np.zeros((4, 4))), [])

    def test_empty_time_grid_rejected(self):
        # no evolved state means no least eigenvalue; inf is not JSON
        with pytest.raises(ValueError, match="at least one time"):
            trace_preservation_check(handle_of(np.zeros((4, 4))), [np.eye(2) / 2], t_grid=())

    def test_wrong_dimension_state_rejected(self):
        # a valid state of M(3) for a generator on M(2) is named before any evolution
        with pytest.raises(ValueError, match=r"^state dimension 3 != generator dimension 2$"):
            trace_preservation_check(handle_of(np.zeros((4, 4))), [np.eye(3) / 3])

    @pytest.mark.parametrize("which", ["lindblad", "flip", "dilation"])
    def test_stacked_grid_equals_a_loop_over_times(self, which):
        rng = np.random.default_rng(6)
        rep = {
            "lindblad": lambda: lindblad_rep(np.zeros((2, 2)), [rand_complex(rng, 2, 2)]),
            "flip": lambda: np.eye(4) - np.kron(SX, SX),
            "dilation": lambda: np.eye(4, dtype=complex),
        }[which]()
        h = handle_of(rep)
        states = [rand_density(rng, 2) for _ in range(5)]
        grid = (0.5, 0.0, 2.0, 1.0)
        out = trace_preservation_check(h, states, t_grid=grid)
        probes = np.array(states)
        traces_in = np.trace(probes, axis1=1, axis2=2)
        trace_margin, state_min = 0.0, np.inf
        for t in grid:
            evolved = apply_stack(evolve(h, t).rep.conj(), probes)
            traces = np.einsum("mii->m", evolved)
            trace_margin = max(trace_margin, float(np.abs(traces - traces_in).max()))
            state_min = min(state_min, float(psd_margins(evolved).min()))
        assert out.trace_margin == trace_margin
        assert out.state_min_eig == state_min
        assert out.samples_used == 20

    def test_report_json_types(self):
        h = handle_of(np.zeros((4, 4), dtype=complex))
        rep = trace_preservation_check(h, [np.eye(2) / 2])
        payload = rep.to_json()
        assert isinstance(payload["trace_margin"], float)
        assert isinstance(payload["consistent"], bool)
        assert payload["state_status"] == NO_VIOLATION_FOUND


class TestStackedStateValidation:
    """The states of a trace-preservation check are validated as one stack."""

    @pytest.mark.parametrize("bad, message", [
        (np.array([[0.5, 0.25], [0.0, 0.5]]), "state is not hermitian (deviation 2.500e-01)"),
        (np.diag([1.5, -0.5]), "state is not positive (min eigenvalue -5.000e-01)"),
        (np.eye(2) * 0.75, "state trace differs from 1 by 5.000e-01"),
    ], ids=["hermitian", "psd", "trace"])
    def test_first_bad_state_names_its_deviation(self, bad, message):
        rng = np.random.default_rng(8)
        good = [rand_density(rng, 2) for _ in range(4)]
        # a later state fails another check; the first failing state is named
        states = good[:2] + [bad] + good[2:] + [np.eye(2)]
        with pytest.raises(ValueError) as stacked:
            trace_preservation_check(handle_of(np.zeros((4, 4))), states)
        assert str(stacked.value) == message
        with pytest.raises(ValueError) as single:
            as_density(bad)
        assert str(single.value) == message


class TestTrajectory:
    def test_dephasing_snapshots(self):
        h = handle_of(lindblad_rep(np.zeros((2, 2)), [SZ]))
        rho0 = (np.eye(2) + SX) / 2
        recs = trajectory_records(h, rho0, [0.0, 1.0])
        assert recs[0]["t"] == 0.0
        assert recs[0]["purity"] == pytest.approx(1.0, abs=1e-12)
        r1 = recs[1]
        off = r1["rho"]["re"][0][1]
        assert off == pytest.approx(0.5 * math.exp(-2.0), abs=1e-12)
        assert off == pytest.approx(0.06766764161830635, abs=1e-12)
        assert r1["trace"] == pytest.approx(1.0, abs=1e-12)
        assert r1["min_eig"] == pytest.approx((1 - math.exp(-2.0)) / 2, abs=1e-12)
        assert r1["purity"] == pytest.approx((1 + math.exp(-4.0)) / 2, abs=1e-12)

    def test_constant_for_zero_generator(self):
        recs = trajectory_records(
            handle_of(np.zeros((4, 4), dtype=complex)), np.eye(2) / 2, [0.5, 5.0]
        )
        for r in recs:
            assert r["trace"] == pytest.approx(1.0, abs=1e-13)
            assert r["purity"] == pytest.approx(0.5, abs=1e-13)

    def test_no_times_give_no_records(self):
        h = handle_of(np.zeros((4, 4), dtype=complex))
        assert trajectory_records(h, np.eye(2) / 2, ()) == []
        assert h._maps["semigroup"] == {}
