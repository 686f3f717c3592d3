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
from functools import lru_cache

import numpy as np

from .config import RunConfig, subseed
from .errors import DimensionMismatch, HypothesisViolation
from .instances import hermitian_from, unitary_from
from .matrixcore import (as_matrix_stack, frozen, hermitian_split, max_entry, psd_margins,
                         spectral_norm)
from .semigroup import SemigroupHandle, family_maps, generator_certificate, lambda_grid
from .superop import (
    CERTIFIED_POSITIVE,
    NO_VIOLATION_FOUND,
    VIOLATED,
    ConeVerdict,
    Superoperator,
    _element,
    apply,
    apply_stack,
    contraction_checks,
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

# The s of every e^{s R_lam} that resolvent_exp searches.
S_GRID = (0.5, 1.0, 2.0)

# Probe entries (probes x n^2) times maps per probe-scan call: a call holds
# several temporaries of that many complex entries (16 MiB each).
_SCAN_ENTRIES = 1 << 20

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
    unitaries.  Each class is one read-only (k, n, n) stack, k >= 1, and
    every member is validated for its class at 1e-9.
    """

    selfadjoint: np.ndarray
    unitaries: np.ndarray

    def __post_init__(self):
        def validate(name, label, deviation, tol=1e-9):
            members = getattr(self, name)
            if not len(members):
                raise ValueError(f"no {label} probes")
            stack = as_matrix_stack(members)
            if deviation(stack) > tol:
                raise ValueError(f"{label} probe fails its class check")
            object.__setattr__(self, name, frozen(stack))

        # max|a - a*| at 1e-9 is the skew, which cannot overflow, at half of it
        validate("selfadjoint", "self-adjoint", lambda a: hermitian_split(a)[1].max(), 1e-9 / 2)
        validate("unitaries", "unitary",
                 lambda u: max_entry(u.conj().swapaxes(1, 2) @ u - np.eye(u.shape[-1])))

    @classmethod
    def build(cls, n: int, samples: int, seed: int = 0) -> "ProbeSet":
        """The structured probes and ``samples`` random ones of each class."""
        if n < 1:
            raise ValueError(f"ProbeSet.build needs n >= 1, got {n}")
        if samples < 0:
            raise ValueError(f"ProbeSet.build needs samples >= 0, got {samples}")
        sa_rng = np.random.default_rng(np.random.SeedSequence((int(seed), 31)))
        u_rng = np.random.default_rng(np.random.SeedSequence((int(seed), 32)))
        return cls(
            selfadjoint=np.concatenate(
                [_structured_selfadjoint(n), hermitian_from(sa_rng, n, k=samples)]),
            unitaries=np.concatenate(
                [_structured_unitaries(n), unitary_from(u_rng, n, k=samples)]),
        )


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
    return frozen(dissipation_batch(phi.rep.T, _element(phi, x)[None])[0])


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


def _plan(h, family: str, config: RunConfig):
    """The grid a condition of ``family`` reports and its maps, with their points.

    Each map comes as (grid point: t, lam or (s, lam); the grid value a
    violation there reports; the map), all read by one ``family_maps`` call.
    """
    if family == "generator":
        return (), [(None, None, h.generator)]
    grid = config.t_grid if family == "semigroup" else lambda_grid(h, config.lambda_multipliers)
    points = values = grid
    if family == "resolvent_exp":
        # s-major, lambda-minor: a margin tie goes to the first pair in this order
        points = [(s, l) for s in S_GRID for l in grid]
        values = [l for _, l in points]
    return grid, list(zip(points, values, family_maps(h, family, points)))


@lru_cache(maxsize=256)
def _cone_seed(seed: int, condition_id: str) -> int:
    """The seed a cone condition's search runs under."""
    return subseed(seed, 17, CONDITION_IDS.index(condition_id))


def _cone_verdicts(h, plans: dict, config: RunConfig) -> dict:
    """The per-map verdicts of cone conditions, by id, in grid order.

    ``plans`` gives each condition id its maps, as ``_plan`` lists them.  A
    condition's maps are one group of the search (see ``positivity_checks``),
    so a map's verdict depends on the rest of its grid.  Verdicts are
    memoized on the handle per grid, by family, grid points, seed and
    tolerance; the distinct points of the grids not yet searched go through
    one stacked search, each condition under its own seed, so its verdicts
    are the ones a search of that condition alone finds.  The search
    certifies the maps it cannot decide at their starters by the handle's
    ``generator_certificate``, which it asks for only then.
    """
    tol = config.tol("predicate")
    keys, missing = {}, {}
    for cid, maps in plans.items():
        family = _CONDITIONS[cid][0]
        key = keys[cid] = (family, tuple(point for point, _, _ in maps),
                           _cone_seed(config.seed, cid), tol)
        if key not in h._cone_verdicts:
            missing[key] = {point: phi for point, _, phi in maps}
    if missing:
        stacked = [(key, point, phi) for key, distinct in missing.items()
                   for point, phi in distinct.items()]
        verdicts = positivity_checks([phi for _, _, phi in stacked],
                                     [key[2] for key, _, _ in stacked], tol,
                                     [key for key, _, _ in stacked],
                                     lambda: generator_certificate(h).kind is not None)
        for (key, point, _), verdict in zip(stacked, verdicts):
            h._cone_verdicts.setdefault(key, {})[point] = verdict
    return {cid: [h._cone_verdicts[key][point] for point in key[1]]
            for cid, key in keys.items()}


def _probe_margins(plans: dict, probes: ProbeSet) -> dict:
    """The (maps x probes) margins of probe conditions, by id.

    ``plans`` gives each condition id its maps, as ``_plan`` lists them.  One
    scan per probe class evaluates them all, their maps stacked and cut into
    the kernel's ``_SCAN_ENTRIES`` chunks.  ``psd_margins`` screens the probes
    of each map as a row of their own, so each entry is the one a scan of its
    condition alone finds.
    """
    by_kind, out = {}, {}
    for cid, maps in plans.items():
        by_kind.setdefault(_CONDITIONS[cid][1], {})[cid] = [phi.rep for _, _, phi in maps]
    for kind, reps in by_kind.items():
        pool = probes.selfadjoint if kind == "selfadjoint" else probes.unitaries
        reps_t = np.stack([rep for grid in reps.values() for rep in grid]).swapaxes(1, 2)
        k = min(len(reps_t), -(-len(reps_t) * pool.size // _SCAN_ENTRIES))
        margins = np.concatenate([psd_margins(dissipation_batch(c, pool))
                                  for c in np.array_split(reps_t, k)])
        ends = np.cumsum([len(grid) for grid in reps.values()])[:-1]
        out.update(zip(reps, np.split(margins, ends)))
    return out


def _check_conditions(h: SemigroupHandle, ids, probes: ProbeSet,
                      config: RunConfig) -> list:
    """Evaluate the conditions ``ids`` on the handle, each over its grid, aggregating margins as minima.

    Each condition is planned once.  The maps of the cone conditions go
    through one stacked search (``_cone_verdicts``), those of the probe
    conditions through one scan per probe class (``_probe_margins``).  A
    condition's result takes the first minimum in map-major order.
    """
    plans = {cid: _plan(h, _CONDITIONS[cid][0], config) for cid in ids}
    cone = {cid: maps for cid, (_, maps) in plans.items() if _CONDITIONS[cid][1] == "cone"}
    margins = {cid: np.array([v.margin for v in verdicts])[:, None]
               for cid, verdicts in _cone_verdicts(h, cone, config).items()}
    margins.update(_probe_margins(
        {cid: maps for cid, (_, maps) in plans.items() if cid not in cone}, probes))
    tol = config.tol("predicate")
    results = []
    for cid in ids:
        kind = _CONDITIONS[cid][1]
        grid, maps = plans[cid]
        i, k = np.unravel_index(np.argmin(margins[cid]), margins[cid].shape)
        margin = margins[cid][i, k]
        evaluated = np.isfinite(margin)
        results.append(ConditionResult(
            condition_id=cid,
            grid=tuple(float(g) for g in grid),
            min_margin=float(margin) if evaluated else float("nan"),
            worst_probe=ProbeRef(*((None, None) if kind == "cone" else (kind, int(k))),
                                 maps[i][1]),
            verdict=(INCONCLUSIVE if not evaluated
                     else SATISFIED if margin >= -tol else VIOLATED_VERDICT),
        ))
    return results


def check_condition(
    h: SemigroupHandle, condition_id: str, probes: ProbeSet, config: RunConfig
) -> ConditionResult:
    """Evaluate one condition on the handle over its grid, aggregating margins as minima.

    The single-condition case of ``_check_conditions``, which evaluates all
    of a report's conditions with the same results.  A cone condition's
    verdicts come from the handle's memo, which ``_cone_verdicts`` fills by
    a search of the planned grid if it is not there yet.
    """
    if condition_id not in _CONDITIONS:
        raise ValueError(f"unknown condition id {condition_id!r}")
    dims = {probes.selfadjoint.shape[-1], probes.unitaries.shape[-1]}
    if dims != {h.n}:
        raise DimensionMismatch(f"probe dimension {max(dims - {h.n})} != generator dimension {h.n}")
    return _check_conditions(h, (condition_id,), probes, config)[0]


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


def theorem1_report(h: SemigroupHandle, config: RunConfig = RunConfig()) -> Theorem1Report:
    """Evaluate every condition on the handle; hypothesis: the semigroup is symmetric.

    Every T_t is symmetric iff L is, so the hypothesis is checked at L, with
    the deviation judged relative to L's own scale.
    """
    sym = is_symmetric_map(h.generator,
                           tol=config.tol("predicate") * max(1.0, max_entry(h.generator.rep)))
    if not sym.verdict:
        raise HypothesisViolation(f"generator is not symmetric: deviation {sym.margin:.3e}")
    probes = ProbeSet.build(h.n, config.samples, subseed(config.seed, 11))
    conditions = tuple(_check_conditions(h, CONDITION_IDS, probes, config))
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
        # the first violated map that holds the minimum, as in
        # check_condition; None when a map that is not violated at its own
        # scale holds it
        witness = next((v.witness for v in verdicts
                        if v.status == VIOLATED and v.margin == margin), None)
    elif all(v.status == CERTIFIED_POSITIVE for v in verdicts):
        status = CERTIFIED_POSITIVE
    else:
        status = NO_VIOLATION_FOUND
    return ConeVerdict(status=status, margin=margin, samples_used=samples, witness=witness)


def theorem2_check(h: SemigroupHandle, config: RunConfig = RunConfig()) -> Theorem2Report:
    """The handle's generator-side margins versus semigroup-side positivity and unitality.

    The contraction hypothesis is checked by ``contraction_checks`` on the
    ``T_t`` of the time grid, given ``semigroup_positive``'s cone verdicts,
    which a report has already searched: a witness v of a violated ``T_t``
    is scored as the unitary 1 - 2vv*, and a certified one (by its CP test
    or its generator's certificate) may be a certified contraction.  The
    first ``T_t`` whose bound exceeds 1 + tol raises HypothesisViolation.
    """
    plan = _plan(h, "semigroup", config)[1]
    maps = [phi for _, _, phi in plan]
    tol = config.tol("predicate")
    cone_verdicts = _cone_verdicts(h, {"semigroup_positive": plan}, config)["semigroup_positive"]

    verdicts = contraction_checks(maps, subseed(config.seed, 23), tol, cone_verdicts)
    # the search stops at its first violated map, where this loop raises
    for t, verdict in zip(config.t_grid, verdicts):
        if verdict.status == VIOLATED:
            raise HypothesisViolation(
                f"semigroup is not contractive: sampled norm {verdict.norm_lower_bound:.6g} "
                f"at t={t:g}"
            )
    statuses = {v.status for v in verdicts}
    contraction_status = statuses.pop() if len(statuses) == 1 else NO_VIOLATION_FOUND

    unit_margin = float(spectral_norm(apply(h.generator, np.eye(h.n))))
    symmetry_margin = float(is_symmetric_map(h.generator).margin)

    cone = _aggregate_cone(cone_verdicts)
    unital_margin = max(float(is_unital(s_t).margin) for s_t in maps)

    left_holds = unit_margin <= tol and symmetry_margin <= tol
    right_holds = cone.status != VIOLATED and unital_margin <= tol
    return Theorem2Report(
        unit_margin=unit_margin,
        symmetry_margin=symmetry_margin,
        contraction_status=contraction_status,
        contraction_bound=max(v.norm_lower_bound for v in verdicts),
        positive=cone,
        unital_margin=unital_margin,
        direction_consistency=left_holds == right_holds,
    )
