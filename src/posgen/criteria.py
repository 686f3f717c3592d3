"""The condition engine: margin-bearing reports for every characterization.

A symmetric semigroup T_t = e^{tL} on M(n) is positive iff any (hence all)
of these hold:

  semigroup_positive    T_t maps the PSD cone into itself for all t >= 0
  resolvent_positive    (lam - L)^{-1} is positive for large lam
  resolvent_sa          R(a^2) + a R(1) a >= R(a) a + a R(a), self-adjoint a
  resolvent_u           R(1) + u* R(1) u >= R(u*) u + u* R(u), unitary u
  semigroup_sa          same dissipation shape with T_t in place of R
  semigroup_u           ditto for unitaries
  resolvent_exp         e^{s (lam-L)^{-1}} is positive for s >= 0, large lam
  generator_sa          L(a^2) + a L(1) a >= L(a) a + a L(a)  (bounded case)
  generator_u           L(1) + u* L(1) u >= L(u*) u + u* L(u)

Each condition is evaluated over probe sets and grids, aggregated as minimum
margins, and the cross-condition agreement is itself the test oracle: a report
where one condition is comfortably satisfied and another comfortably violated
means the toolkit is broken, not the mathematics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, subseed
from .errors import HypothesisViolation
from .instances import hermitian_from, unitary_from
from .matrixcore import as_matrix_stack, frozen, mat_exp, max_entry, psd_margins, spectral_norm
from .semigroup import _as_handle, _finite_map, evolve, lambda_grid, resolvent
from .superop import (
    CERTIFIED_POSITIVE,
    NO_VIOLATION_FOUND,
    VIOLATED,
    ConeVerdict,
    Superoperator,
    apply,
    apply_stack,
    contraction_check,
    is_symmetric_map,
    is_unital,
    positivity_checks,
)

# Theorem 1 asks one thing, positivity, of four families of maps.  Each
# condition pairs a family with an evaluator: a cone search, or the
# dissipation inequality over self-adjoint or unitary probes.
_CONDITIONS = {
    "semigroup_positive": ("semigroup", "cone"),
    "resolvent_positive": ("resolvent", "cone"),
    "resolvent_sa": ("resolvent", "selfadjoint"),
    "resolvent_u": ("resolvent", "unitary"),
    "semigroup_sa": ("semigroup", "selfadjoint"),
    "semigroup_u": ("semigroup", "unitary"),
    "resolvent_exp": ("resolvent_exp", "cone"),
    "generator_sa": ("generator", "selfadjoint"),
    "generator_u": ("generator", "unitary"),
}
CONDITION_IDS = tuple(_CONDITIONS)

SATISFIED = "satisfied"
VIOLATED_VERDICT = "violated"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# probe sets
# ---------------------------------------------------------------------------


def _structured_selfadjoint(n: int) -> list:
    probes = [np.eye(n, dtype=complex)]
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        probes.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            for phase in (1.0, 1.0j):
                v = np.zeros(n, dtype=complex)
                v[i] = 1.0
                v[j] = phase
                v /= np.sqrt(2.0)
                probes.append(np.outer(v, v.conj()))
    return probes


def _structured_unitaries(n: int) -> list:
    omega = np.exp(2j * np.pi / n)
    clock = np.diag(omega ** np.arange(n))
    shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    return [np.eye(n, dtype=complex), clock, shift]


@dataclass(frozen=True)
class ProbeSet:
    """Deterministic quantifier instances: the 'for all a / for all u' probes.

    Structured members (the unit, rank-one projectors, clock and shift) are
    always present; the rest are seeded Gaussian Hermitians and Haar
    unitaries.  Every member is validated for its declared class at 1e-9.
    """

    selfadjoint: tuple
    unitaries: tuple
    seed: int

    def __post_init__(self):
        if self.selfadjoint:
            a = as_matrix_stack(self.selfadjoint)
            if max_entry(a - a.conj().swapaxes(1, 2)) > 1e-9:
                raise ValueError("self-adjoint probe fails its class check")
        if self.unitaries:
            u = as_matrix_stack(self.unitaries)
            if max_entry(u.conj().swapaxes(1, 2) @ u - np.eye(u.shape[-1])) > 1e-9:
                raise ValueError("unitary probe fails its class check")

    @classmethod
    def build(
        cls, n: int, n_selfadjoint: int = 50, n_unitary: int = 50, seed: int = 0
    ) -> "ProbeSet":
        sa_rng = np.random.default_rng(np.random.SeedSequence((int(seed), 31)))
        u_rng = np.random.default_rng(np.random.SeedSequence((int(seed), 32)))
        # one read-only stack per class; the members are views into it
        sa = frozen(np.concatenate(
            [_structured_selfadjoint(n), hermitian_from(sa_rng, n, k=n_selfadjoint)]
        ))
        us = frozen(np.concatenate(
            [_structured_unitaries(n), unitary_from(u_rng, n, k=n_unitary)]
        ))
        return cls(selfadjoint=tuple(sa), unitaries=tuple(us), seed=int(seed))


# ---------------------------------------------------------------------------
# the dissipation kernel
# ---------------------------------------------------------------------------


def dissipation_batch(rep_t: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Phi(x*x) + x* Phi(1) x - Phi(x*) x - x* Phi(x) for a stack of x.

    ``rep_t`` is Phi's transposed rep, or an (m, n^2, n^2) stack of them; the
    result is (b, n, n) for one map and (m, b, n, n) for a stack.  At a
    self-adjoint a this is the self-adjoint condition's Phi(a^2) + a Phi(1) a
    - Phi(a) a - a Phi(a); at a unitary u, where u*u = 1, the unitary one's.
    """
    xh = xs.conj().swapaxes(-1, -2)
    # Phi(1) by its own matrix-vector product; as a row of the larger product
    # below it would round differently
    phi1 = apply_stack(rep_t, np.eye(xs.shape[-1], dtype=complex))[..., None, :, :]
    imgs = apply_stack(rep_t, np.concatenate([xh @ xs, xh, xs]))
    phi_xx, phi_xh, phi_x = np.split(imgs, 3, axis=-3)
    return phi_xx + xh @ phi1 @ xs - phi_xh @ xs - xh @ phi_x


def dissipation(phi: Superoperator, x) -> np.ndarray:
    """The dissipation operator Phi(x*x) + x* Phi(1) x - Phi(x*) x - x* Phi(x)."""
    return frozen(dissipation_batch(phi.rep.T, np.asarray(x, dtype=complex)[None])[0])


# ---------------------------------------------------------------------------
# condition evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeRef:
    """Pointer to the probe/grid point that achieved a condition's margin."""

    kind: str | None  # "selfadjoint" | "unitary" | None for map-level checks
    index: int | None
    grid_value: float | None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "index": self.index,
            "grid_value": None if self.grid_value is None else float(self.grid_value),
        }


@dataclass(frozen=True)
class ConditionResult:
    condition_id: str
    grid: tuple
    min_margin: float
    worst_probe: ProbeRef | None
    verdict: str

    def to_json(self) -> dict:
        return {
            "id": self.condition_id,
            "grid": [float(g) for g in self.grid],
            "min_margin": float(self.min_margin),
            "verdict": self.verdict,
            "worst_probe": None if self.worst_probe is None else self.worst_probe.to_json(),
        }


def _verdict(min_margin: float, tol: float, evaluated: bool) -> str:
    if not evaluated:
        return INCONCLUSIVE
    return SATISFIED if min_margin >= -tol else VIOLATED_VERDICT


def _resolvent_maps(h, config):
    lams = lambda_grid(h, config.lambda_multipliers)
    return lams, [(l, l, resolvent(h, l)) for l in lams]


def _resolvent_exp_maps(h, config):
    # s-major, lambda-minor: a margin tie goes to the first pair in this order
    lams = lambda_grid(h, config.lambda_multipliers)
    points = [(s, l) for s in config.s_grid for l in lams]
    reps = mat_exp(np.stack([s * resolvent(h, l).rep for s, l in points]))
    return lams, [
        ((s, l), l, _finite_map(h.n, rep, f"e^(s R_lam) at s={s:g}, lam={l:g}"))
        for (s, l), rep in zip(points, reps)
    ]


# Each family returns the grid a condition reports and its maps, each with its
# grid point (t, lam or (s, lam)) and the grid value a violation there reports.
_FAMILIES = {
    "semigroup": lambda h, config: (
        config.t_grid, [(t, t, evolve(h, t)) for t in config.t_grid]
    ),
    "resolvent": _resolvent_maps,
    "resolvent_exp": _resolvent_exp_maps,
    "generator": lambda h, config: ((), [(None, None, h.generator)]),
}


def _condition_result(condition_id, grid, margin, worst, tol) -> ConditionResult:
    evaluated = np.isfinite(margin)
    return ConditionResult(
        condition_id=condition_id,
        grid=tuple(float(g) for g in grid),
        min_margin=float(margin) if evaluated else float("nan"),
        worst_probe=worst,
        verdict=_verdict(margin, tol, evaluated),
    )


def _cone_verdicts(h, plans: dict, config: RunConfig) -> list:
    """The per-map verdicts of the cone conditions among ``plans``, in plan order.

    Verdicts are memoized on the handle by family, grid point, seed and
    tolerance; the maps not yet searched go through one stacked search.
    """
    tol = config.tol("predicate")
    keyed = []
    for cid, (_, maps) in plans.items():
        if _CONDITIONS[cid][1] == "cone":
            seed = subseed(config.seed, 17, CONDITION_IDS.index(cid))
            keyed += [((_CONDITIONS[cid][0], point, seed, tol), phi) for point, _, phi in maps]
    missing = {k: phi for k, phi in keyed if k not in h._cone_verdicts}
    if missing:
        seeds = [k[2] for k in missing]
        h._cone_verdicts.update(zip(missing, positivity_checks(missing.values(), seeds, tol)))
    return [h._cone_verdicts[k] for k, _ in keyed]


def _evaluate(h, condition_ids, probes: ProbeSet, config: RunConfig) -> dict:
    """Evaluate the given conditions; returns a ConditionResult per id.

    The maps of all cone conditions are searched at most once per handle, each
    condition under its own seed, so its margin is the one a search of
    that condition alone finds.  A probe condition scans every probe of its
    class at every map in one kernel call.  Margins aggregate as minima; the
    first minimum in map-major order wins.
    """
    tol = config.tol("predicate")
    plans = {cid: _FAMILIES[_CONDITIONS[cid][0]](h, config) for cid in condition_ids}
    verdicts = iter(_cone_verdicts(h, plans, config))

    results = {}
    for cid, (grid, maps) in plans.items():
        kind = _CONDITIONS[cid][1]
        if kind == "cone":
            margins = np.array([next(verdicts).margin for _ in maps])[:, None]
        else:
            pool = np.stack(probes.selfadjoint if kind == "selfadjoint" else probes.unitaries)
            d = dissipation_batch(np.stack([phi.rep for _, _, phi in maps]).swapaxes(1, 2), pool)
            margins = psd_margins(d.reshape(-1, *pool.shape[1:])).reshape(len(maps), -1)
        i, k = np.unravel_index(np.argmin(margins), margins.shape)
        ref = ProbeRef(*((None, None) if kind == "cone" else (kind, int(k))), maps[i][1])
        results[cid] = _condition_result(cid, grid, margins[i, k], ref, tol)
    return results


def check_condition(h, condition_id: str, probes: ProbeSet, config: RunConfig) -> ConditionResult:
    """Evaluate one condition over its grid, aggregating margins as minima."""
    if condition_id not in _CONDITIONS:
        raise ValueError(f"unknown condition id {condition_id!r}")
    return _evaluate(_as_handle(h), (condition_id,), probes, config)[condition_id]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem1Report:
    """All equivalent conditions with margins, plus the agreement flag."""

    conditions: tuple
    consistency_flag: bool
    tolerances: dict

    def by_id(self, condition_id: str) -> ConditionResult:
        for c in self.conditions:
            if c.condition_id == condition_id:
                return c
        raise KeyError(condition_id)

    def to_json(self) -> dict:
        return {
            "conditions": [c.to_json() for c in self.conditions],
            "consistency": bool(self.consistency_flag),
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
        }


def theorem1_report(h, config: RunConfig = RunConfig()) -> Theorem1Report:
    """Evaluate every condition; hypothesis: the semigroup is symmetric."""
    h = _as_handle(h)
    for t in config.t_grid:
        s_t = evolve(h, t)
        # no contraction hypothesis here, so entries of T_t can be huge;
        # judge the symmetry deviation relative to the map's own scale
        scale = max(1.0, float(np.abs(s_t.rep).max()))
        sym = is_symmetric_map(s_t, tol=config.tol("predicate") * scale)
        if not sym.verdict:
            raise HypothesisViolation(
                f"semigroup is not symmetric at t={t:g}: deviation {sym.margin:.3e}"
            )
    probes = ProbeSet.build(
        h.n, config.n_selfadjoint, config.n_unitary, subseed(config.seed, 11)
    )
    # the cone conditions share one stacked descent; each probe condition goes
    # through check_condition, so a profile shows each under its own call
    cones = _evaluate(
        h, [cid for cid in CONDITION_IDS if _CONDITIONS[cid][1] == "cone"], probes, config
    )
    conditions = tuple(
        cones[cid] if cid in cones else check_condition(h, cid, probes, config)
        for cid in CONDITION_IDS
    )
    margins = [c.min_margin for c in conditions if np.isfinite(c.min_margin)]
    ctol = config.tol("consistency")
    consistency_flag = not (
        margins and max(margins) > ctol and min(margins) < -ctol
    )
    return Theorem1Report(
        conditions=conditions,
        consistency_flag=consistency_flag,
        tolerances=dict(config.tolerances),
    )


@dataclass(frozen=True)
class Theorem2Report:
    """Both sides of: L(1) = 0 and L symmetric  <=>  T_t positive and unital.

    Hypothesis: T_t is a contraction semigroup (checked, not assumed).
    """

    unit_margin: float
    symmetry_margin: float
    contraction_status: str
    contraction_bound: float
    positive: ConeVerdict
    unital_margin: float
    direction_consistency: bool

    def to_json(self) -> dict:
        return {
            "unit_margin": float(self.unit_margin),
            "symmetry_margin": float(self.symmetry_margin),
            "contraction": {
                "status": self.contraction_status,
                "norm_lower_bound": float(self.contraction_bound),
            },
            "positive": {
                "status": self.positive.status,
                "margin": float(self.positive.margin),
            },
            "unital_margin": float(self.unital_margin),
            "direction_consistency": bool(self.direction_consistency),
        }


def _aggregate_cone(verdicts) -> ConeVerdict:
    verdicts = list(verdicts)
    margin = min(v.margin for v in verdicts)
    samples = sum(v.samples_used for v in verdicts)
    witness = None
    if any(v.status == VIOLATED for v in verdicts):
        status = VIOLATED
        for v in verdicts:
            if v.status == VIOLATED and v.margin == margin:
                witness = v.witness
    elif all(v.status == CERTIFIED_POSITIVE for v in verdicts):
        status = CERTIFIED_POSITIVE
    else:
        status = NO_VIOLATION_FOUND
    return ConeVerdict(status=status, margin=margin, samples_used=samples, witness=witness)


def theorem2_check(h, config: RunConfig = RunConfig()) -> Theorem2Report:
    """Generator-side margins versus semigroup-side positivity and unitality."""
    h = _as_handle(h)
    tol = config.tol("predicate")
    cseed = subseed(config.seed, 23)
    bound = 0.0
    statuses = []
    for t in config.t_grid:
        verdict = contraction_check(evolve(h, t), cseed, tol)
        bound = max(bound, verdict.norm_lower_bound)
        if verdict.status == VIOLATED:
            raise HypothesisViolation(
                f"semigroup is not contractive: sampled norm {verdict.norm_lower_bound:.6g} "
                f"at t={t:g}"
            )
        statuses.append(verdict.status)
    contraction_status = (
        statuses[0] if all(s == statuses[0] for s in statuses) else NO_VIOLATION_FOUND
    )

    unit_margin = float(spectral_norm(apply(h.generator, np.eye(h.n))))
    symmetry_margin = float(is_symmetric_map(h.generator).margin)

    plan = {"semigroup_positive": _FAMILIES["semigroup"](h, config)}
    cone = _aggregate_cone(_cone_verdicts(h, plan, config))
    unital_margin = max(float(is_unital(evolve(h, t)).margin) for t in config.t_grid)

    left_holds = unit_margin <= tol and symmetry_margin <= tol
    right_holds = cone.status != VIOLATED and unital_margin <= tol
    return Theorem2Report(
        unit_margin=unit_margin,
        symmetry_margin=symmetry_margin,
        contraction_status=contraction_status,
        contraction_bound=float(bound),
        positive=cone,
        unital_margin=unital_margin,
        direction_consistency=left_holds == right_holds,
    )
