"""State-picture evolution via the trace pairing.

The observable-side semigroup T_t acts on matrices; its predual acts on
states (density matrices) through Tr(rho^dag T_t(a)) = Tr((T_t^*(rho))^dag a).
In the Hilbert-Schmidt representation the predual is just the conjugate
transpose of the vectorized propagator, so nothing here is constructed
independently of the observable picture -- the two sides cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import SchemaError
from .matrixcore import (
    CMatrix,
    as_matrix,
    as_matrix_stack,
    frozen,
    hermitian_part,
    psd_margins,
    spectral_norm,
)
from .semigroup import SemigroupHandle, family_maps
from .superop import NO_VIOLATION_FOUND, VIOLATED, apply, apply_stack

STATE_TOL = 1e-9
_TRACE_TOL = 1e-10

# The times at which a report tests trace preservation, and the times
# `posgen evolve` reports when given none.
TRACE_T_GRID = (0.5, 1.0, 2.0)


def _validated_states(a: np.ndarray) -> np.ndarray:
    """Validate a (m, n, n) stack of density matrices as one stack.

    The first state that fails raises, naming its first failing check and
    that check's deviation.
    """
    ah = a.conj().swapaxes(-1, -2)
    herm_dev = np.abs(a - ah).max(axis=(-2, -1))
    min_eig = np.linalg.eigvalsh(0.5 * (a + ah))[:, 0]
    tr_dev = np.abs(np.trace(a, axis1=-2, axis2=-1) - 1.0)
    bad = (herm_dev > STATE_TOL) | (min_eig < -STATE_TOL) | (tr_dev > _TRACE_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        if herm_dev[i] > STATE_TOL:
            raise ValueError(f"state is not hermitian (deviation {herm_dev[i]:.3e})")
        if min_eig[i] < -STATE_TOL:
            raise ValueError(f"state is not positive (min eigenvalue {min_eig[i]:.3e})")
        raise ValueError(f"state trace differs from 1 by {tr_dev[i]:.3e}")
    return frozen(a)


def as_density(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD at ``STATE_TOL``, unit trace."""
    return _validated_states(as_matrix(rho)[None])[0]


@dataclass(frozen=True)
class DensityMatrix:
    """A validated state: Hermitian, positive semidefinite, trace one."""

    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", as_density(self.rho))

    @property
    def n(self) -> int:
        return self.rho.shape[0]

    def to_json(self) -> dict:
        return CMatrix(self.rho).to_json()

    @classmethod
    def from_json(cls, payload: dict) -> "DensityMatrix":
        try:
            return cls(CMatrix.from_json(payload).a)
        except ValueError as exc:
            raise SchemaError(f"not a density matrix: {exc}") from exc


def purity(rho) -> float:
    a = as_matrix(rho)
    return float(np.trace(a @ a.conj().T).real)


def _predual(h: SemigroupHandle, ts, a: np.ndarray):
    """T_t^*(a) at every t of ``ts`` as one stack, t first; [] for no times.

    ``a`` is one matrix or an (m, n, n) stack.  conj(rep) is the transposed
    rep of the predual.
    """
    if a.shape[-1] != h.n:
        raise ValueError(f"state dimension {a.shape[-1]} != generator dimension {h.n}")
    maps = family_maps(h, "semigroup", ts)
    return apply_stack(np.stack([s_t.rep.conj() for s_t in maps]), a) if maps else []


@dataclass(frozen=True)
class TracePreservationReport:
    """Two-sided test of: predual preserves traces  <=>  L(1) = 0.

    trace_margin   worst |Tr T_t^*(rho) - Tr rho| over states x t-grid
    unit_margin    ||L(1)|| (spectral norm) -- the dual formulation
    state_min_eig  worst min-eigenvalue of an evolved state (skew-penalized)
    state_status   cone verdict for the evolved states
    consistent     both margins pass or both fail at the tolerance
    """

    trace_margin: float
    unit_margin: float
    state_min_eig: float
    state_status: str
    consistent: bool
    samples_used: int
    tol: float

    def to_json(self) -> dict:
        return {
            "trace_margin": float(self.trace_margin),
            "unit_margin": float(self.unit_margin),
            "state_min_eig": float(self.state_min_eig),
            "state_status": self.state_status,
            "consistent": bool(self.consistent),
            "samples_used": int(self.samples_used),
            "tol": float(self.tol),
        }


def trace_preservation_check(
    h: SemigroupHandle,
    states,
    t_grid=TRACE_T_GRID,
    tol: float = DEFAULT_TOLERANCES["trace"],
) -> TracePreservationReport:
    """Check trace preservation of the handle's predual against the unit-kill margin.

    `states` is an explicit list of density matrices (probes); the check is
    deterministic given the probes.  The two sides of the equivalence are
    evaluated independently and compared, never collapsed into one another.
    """
    if not len(states):
        raise ValueError("need at least one probe state")
    if not len(t_grid):
        raise ValueError("need at least one time")
    probes = _validated_states(as_matrix_stack(states))
    traces_in = np.trace(probes, axis1=1, axis2=2)

    # every probe at every t as one (t, probe) stack
    evolved = _predual(h, t_grid, probes)
    traces = np.einsum("tmii->tm", evolved)
    trace_margin = float(np.abs(traces - traces_in).max())
    state_min = float(psd_margins(evolved.reshape(-1, h.n, h.n)).min())

    unit_margin = float(spectral_norm(apply(h.generator, np.eye(h.n))))
    state_status = NO_VIOLATION_FOUND if state_min >= -STATE_TOL else VIOLATED
    consistent = (trace_margin <= tol) == (unit_margin <= tol)
    return TracePreservationReport(
        trace_margin=trace_margin,
        unit_margin=unit_margin,
        state_min_eig=state_min,
        state_status=state_status,
        consistent=consistent,
        samples_used=len(probes) * len(t_grid),
        tol=tol,
    )


def trajectory_records(h: SemigroupHandle, rho, ts) -> list[dict]:
    """Per-time snapshots {t, rho, trace, min_eig, purity} of a state orbit under the handle."""
    ts = [float(t) for t in ts]
    records = []
    for t, out in zip(ts, _predual(h, ts, as_density(rho))):
        records.append(
            {
                "t": t,
                "rho": CMatrix(out).to_json(),
                "trace": float(np.trace(out).real),
                "min_eig": float(np.linalg.eigvalsh(hermitian_part(out)).min()),
                "purity": purity(out),
            }
        )
    return records
