"""Linear maps on M(n, C) as n^2 x n^2 matrices over column-stacked vectors.

Conventions fixed project-wide:

* ``vec`` stacks columns: entry (i, j) of a matrix lands at index ``i + n*j``.
* ``vec(A X B) = (B^T kron A) vec(X)``.
* A map is *symmetric* when it commutes with the adjoint, ``S(x^*) = S(x)^*``,
  iff its Choi matrix is hermitian (Choi 1975); that one reshuffle of the rep
  serves the symmetry test, the CP test and the cone search's Choi floor.
* Positivity verdicts are three-valued and never bluff: ``certified_positive``
  is backed by the map's complete positivity or by a certificate of the
  generator it was built from, ``no_violation_found`` is an
  absence-of-counterexample claim, ``violated`` carries a reproducible witness.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SchemaError
from .matrixcore import (DEFAULT_TOL, CMatrix, as_matrix, frozen, json_dimension, json_object,
                         max_entry, rounding_slack, screened_least_eigvals)

CERTIFIED_POSITIVE = "certified_positive"
NO_VIOLATION_FOUND = "no_violation_found"
VIOLATED = "violated"

CERTIFIED_CONTRACTION = "certified_contraction"


def vec(x) -> np.ndarray:
    """Column-stack a matrix into a vector: ``vec(x)[i + n*j] = x[i, j]``."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def devec(v, n: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=complex).reshape((n, n), order="F")


@dataclass(frozen=True)
class Superoperator:
    """A linear map on M(n, C), stored as its matrix on column-stacked vectors.

    JSON form: ``{"n": int, "rep": <matrix payload>, "vec": "column-stacking"}``;
    the ``vec`` field is mandatory and validated so serialized maps can never be
    silently reinterpreted under a different stacking convention.
    """

    n: int
    rep: np.ndarray

    def __post_init__(self):
        rep = as_matrix(self.rep)
        if self.n < 1 or rep.shape != (self.n * self.n, self.n * self.n):
            raise DimensionMismatch(
                f"superoperator on M({self.n}) needs a "
                f"{self.n**2} x {self.n**2} matrix, got {rep.shape}"
            )
        object.__setattr__(self, "rep", frozen(rep))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rep": CMatrix(self.rep).to_json(),
            "vec": "column-stacking",
        }

    @classmethod
    def from_json(cls, obj) -> "Superoperator":
        json_object(obj, "superoperator", ("n", "rep", "vec"))
        if obj["vec"] != "column-stacking":
            raise SchemaError(
                "field 'vec' must be the literal string 'column-stacking'"
            )
        n = json_dimension(obj["n"])
        rep = CMatrix.from_json(obj["rep"]).a
        if rep.shape != (n * n, n * n):
            raise SchemaError(f"field 'rep' must be {n*n} x {n*n}, got {rep.shape}")
        return cls(n=n, rep=rep)


# ---------------------------------------------------------------------------
# construction and algebra
# ---------------------------------------------------------------------------

def transpose_map(n: int) -> Superoperator:
    """The transpose ``x -> x^T``; a positive map that is not completely positive."""
    rep = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            rep[i + n * j, j + n * i] = 1.0
    return Superoperator(n, rep)


def apply(s: Superoperator, x) -> np.ndarray:
    x = as_matrix(x)
    if x.shape[0] != s.n:
        raise DimensionMismatch(
            f"map acts on M({s.n}), element lives in M({x.shape[0]})"
        )
    return devec(s.rep @ vec(x), s.n)


def apply_stack(rep_t: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """S(x) for every x of a (..., n, n) stack, given S's transposed rep.

    The one place that knows how a stack of matrices lies as rows of
    column-stacked vectors.  ``rep_t`` is ``s.rep.T`` (a view, no copy), or a
    (..., n^2, n^2) stack of transposed reps that matmul broadcasts against
    the (..., b, n, n) sub-stacks of ``xs``.  ``s.rep.conj()`` is the
    transposed rep of the Hilbert-Schmidt adjoint of S.
    """
    n = xs.shape[-1]
    out = xs.swapaxes(-1, -2).reshape(*xs.shape[:-2], n * n) @ rep_t
    return out.reshape(*out.shape[:-1], n, n).swapaxes(-1, -2)


def compose(s1: Superoperator, s2: Superoperator) -> Superoperator:
    """Function composition ``s1 after s2``."""
    if s1.n != s2.n:
        raise DimensionMismatch("cannot compose maps on different algebras")
    return Superoperator(s1.n, s1.rep @ s2.rep)


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapCheck:
    verdict: bool
    margin: float


def is_symmetric_map(s: Superoperator, tol: float = DEFAULT_TOL) -> MapCheck:
    """Does ``S(x^*) = S(x)^*`` hold?  Iff its Choi matrix C is hermitian: margin max|C - C*|."""
    c = choi_matrix(s)
    margin = max_entry(c - c.conj().T)
    return MapCheck(verdict=margin <= tol, margin=margin)


def is_unital(s: Superoperator, tol: float = DEFAULT_TOL) -> MapCheck:
    margin = max_entry(apply(s, np.eye(s.n)) - np.eye(s.n))
    return MapCheck(verdict=margin <= tol, margin=margin)


def choi_matrix(s: Superoperator) -> np.ndarray:
    """Unnormalized Choi matrix ``sum_ij E_ij kron S(E_ij)``."""
    return _choi_stack(s.rep[None], s.n)[0]


def _choi_stack(reps: np.ndarray, n: int) -> np.ndarray:
    return np.ascontiguousarray(
        reps.reshape(-1, n, n, n, n).transpose(0, 4, 2, 3, 1)
    ).reshape(-1, n * n, n * n)


@dataclass(frozen=True)
class CPCheck:
    verdict: bool
    min_choi_eig: float


def _cp_checks(reps: np.ndarray, n: int, tol):
    """CP verdicts, least Choi eigenvalues and Choi hermiticity deviations.

    ``reps`` is an (m, n^2, n^2) stack; ``tol`` is one tolerance, or one per
    map.  The deviation of a map is ``max|C - C*|`` of its Choi matrix C, and
    a map is CP-certified when it is at most ``tol`` and the least eigenvalue
    of herm(C) is at least ``-tol``.
    """
    c = _choi_stack(reps, n)
    ch = c.conj().swapaxes(-1, -2)
    herm_dev = np.abs(c - ch).max(axis=(-2, -1))
    # halves first, so that herm(C) of a map with entries near the largest double stays finite
    min_eig = np.linalg.eigvalsh(c / 2 + ch / 2)[:, 0]
    return (herm_dev <= tol) & (min_eig >= -tol), min_eig, herm_dev


def cp_check(s: Superoperator, tol: float = DEFAULT_TOL) -> CPCheck:
    """Complete positivity via the Choi matrix.

    ``verdict`` holds iff the Choi matrix is hermitian at ``tol`` and its least
    eigenvalue clears ``-tol``.  A true verdict certifies positivity of the map.
    """
    verdict, min_eig, _ = _cp_checks(s.rep[None], s.n, tol)
    return CPCheck(verdict=bool(verdict[0]), min_choi_eig=float(min_eig[0]))


# ---------------------------------------------------------------------------
# sampled positivity
# ---------------------------------------------------------------------------

# The search's effort: seeded random unit vectors join the structured
# starters, and the worst few descend for a fixed number of seesaw steps.
_N_RANDOM = 64
_N_DESCENT = 8
_DESCENT_ITERS = 30


@dataclass(frozen=True)
class ConeVerdict:
    """Outcome of a positivity search over rank-one inputs.

    margin is the most negative value of ``f(v) = min_eig(S(v v^*))`` observed
    (with a penalty for non-hermitian images); witness is present iff violated
    and re-evaluating f at the witness reproduces the margin.  samples_used
    counts the vectors scored: the starters, plus the descent's vectors when
    the map descended (a certified map, or one bounded within its group by
    :func:`positivity_checks`, counts only its starters).
    """

    status: str
    margin: float
    samples_used: int
    witness: np.ndarray | None = None


def _structured_unit_vectors(n: int) -> np.ndarray:
    vs = [np.eye(n, dtype=complex)[i] for i in range(n)]
    vs.append(np.ones(n, dtype=complex) / np.sqrt(n))
    if n > 1:
        phases = np.exp(2j * np.pi * np.arange(n) / n)
        vs.append(phases / np.sqrt(n))
    return np.array(vs)


def _image_parts(rep_t: np.ndarray, v: np.ndarray):
    """herm(S(vv*)) and max|S(vv*) - S(vv*)*|, twice the skew part's, for a stack of vectors.

    ``rep_t`` is the transposed rep of S, or a stack of them matching the
    leading axes of ``v``.
    """
    m = apply_stack(rep_t, v[..., :, None] * v.conj()[..., None, :])
    mh = m.conj().swapaxes(-1, -2)
    return (m + mh) / 2, np.abs(m - mh).max(axis=(-2, -1))


def _f_batch(rep_t: np.ndarray, v: np.ndarray):
    """f(v) = min_eig(herm(S(vv*))) - max|S(vv*) - S(vv*)*| for a stack of vectors.

    The penalty, twice the largest entry of the skew part, makes f faithful
    for maps that do not preserve hermiticity: a PSD image requires both a
    nonnegative hermitian part and a vanishing skew part.  Returns f and the
    least eigenvectors, one per vector.
    """
    herm, skew = _image_parts(rep_t, v)
    w, u = np.linalg.eigh(herm)
    return w[..., 0] - skew, u[..., :, 0]


def _seeded_starters(n: int, seed: int) -> np.ndarray:
    """The standard basis, two structured vectors, then seeded random ones."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x705)))
    g = rng.standard_normal((_N_RANDOM, n)) + 1j * rng.standard_normal((_N_RANDOM, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return np.concatenate([_structured_unit_vectors(n), g])


def _unit_scale(reps: np.ndarray) -> np.ndarray:
    """Per-map power of two bringing the largest entry into [1/2, 1); exact.

    A largest entry below 2**-1024 gets the largest finite power, 2**1023.
    """
    _, exponent = np.frexp(np.abs(reps).max(axis=(-2, -1)))
    return np.ldexp(1.0, np.minimum(-exponent, 1023))


def _descend(reps, v, best_val, best_vec):
    """Seesaw over a (maps, b, n) stack of unit vectors v and their partners w.

    By the trace pairing ``w* S(vv*) w = v* S^*(ww*) v`` (S^* the
    Hilbert-Schmidt adjoint), each half-step minimizes the hermitian part of
    one value exactly: w becomes the least eigenvector of herm S(vv*), then v
    the least eigenvector of herm S^*(ww*).  So ``min_eig herm S(vv*)`` never
    rises, and no step size is needed.

    ``best_val``/``best_vec`` hold one entry per map and are lowered in place
    wherever that map's batch finds a smaller f; they are also returned.
    No arithmetic mixes two maps, so each map's numbers are the ones a stack
    of that map alone would give.
    """
    rows = np.arange(len(v))
    reps_t = reps.swapaxes(-1, -2)

    def track(f):
        k = np.argmin(f, axis=1)
        fk = f[rows, k]
        better = fk < best_val
        best_val[better] = fk[better]
        best_vec[better] = v[rows[better], k[better]]

    for _ in range(_DESCENT_ITERS):
        f, wmin = _f_batch(reps_t, v)
        track(f)
        # S^* has transposed rep conj(rep); conj(apply_stack(rep, conj(x)))
        # rounds the same and needs no conjugated copy of the reps.
        ww_c = wmin.conj()[..., :, None] * wmin[..., None, :]
        gm = apply_stack(reps, ww_c).conj()
        v = np.linalg.eigh((gm + gm.conj().swapaxes(-1, -2)) / 2)[1][..., :, 0]
    track(_f_batch(reps_t, v)[0])
    return best_val, best_vec


def _bounded(groups, start, floor, slack, violated) -> np.ndarray:
    """The maps whose descent cannot change what their group reports.

    ``start`` is each map's least starter value and ``floor`` a lower bound
    on every value f can take on it.  A map is bounded when it is violated
    at its starters and some map of its group has a starter value below its
    floor by more than the slacks of both: that map's margin can then rise
    above its starter value only by rounding, and the bounded map's, with or
    without a descent, cannot fall below its floor but by rounding.  So it
    neither holds nor ties its group's least margin, and its status stays
    violated.  A map's own starters never lie that far below its floor.
    """
    index = {}
    code = np.array([index.setdefault(g, len(index)) for g in groups])
    group_top = np.full(len(index), np.inf)
    np.minimum.at(group_top, code, start + slack)
    return violated & (group_top[code] < floor - slack)


def positivity_checks(maps, seeds, tol: float = DEFAULT_TOL, groups=None,
                      generator_certified=None) -> list:
    """Search each map for a rank-one input whose image leaves the PSD cone.

    The maps must act on the same M(n); one ConeVerdict is returned per map.
    ``seeds`` holds one int seed per map.  Seeded unit vectors (plus the
    standard basis and two structured vectors), drawn once per distinct
    seed, are scored by f for every map in one stacked call that computes
    eigenvalues only (the seesaw and the final re-score take eigenvectors).
    That call is screened (see ``matrixcore.screened_least_eigvals``): it
    eigensolves only the images that can hold their map's least starter
    value, which is all a map that does not descend needs.  Each map that
    descends has its whole row of starters eigensolved, from the same
    hermitian parts, and its worst starters seed at most 30 steps of a
    seesaw over the trace pairing (see ``_descend``).  Each map is judged
    at unit scale, scaled by the power of two that brings its largest
    entry into [1/2, 1): the seesaw runs on that copy, and the CP
    certificate and the violation threshold compare against ``tol``
    divided by that power, which is ``tol`` on the copy.  So no verdict
    depends on the map's scale; margins are reported at the map's own
    scale.  The seesaws of all maps run as one stacked descent.  A
    certificate takes its map out of the stack: the certificate already
    implies positivity, so only the cheap sampling pass runs to report an
    honest margin.

    ``generator_certified``, when given, is a callable of no arguments,
    called at most once and only when some map is not violated at its
    starters.  It returns whether the generator all the maps were built
    from holds a certificate that makes each of them positive (see
    ``semigroup.generator_certificate``).  If it does, every map not
    violated at its starters is certified.  The other maps, or all of them
    when there is no such certificate, are CP-certified or not by the
    eigenvalues of their Choi matrices (see ``_cp_checks``).

    ``groups`` holds one hashable label per map, by default a group of its
    own for each; a group is the maps whose least margin a caller reports.
    Choi's correspondence ``w* S(vv*) w = (conj(v) kron w)* C (conj(v) kron
    w)``, C the Choi matrix, bounds every f(v) below by the floor
    ``min_eig(herm C) - n^2 max|C - C*|``, which the CP test's eigensolve
    gives.  A map that is violated at its starters, and whose floor lies
    above another starter value of its group, skips its descent (see
    ``_bounded``): its margin is its best starter's, its samples_used counts
    only its starters, and its status is violated either way.  Each group's
    least margin and the first map that holds it, and every status, equal
    bit for bit those of separate searches under each map's seed.  A map
    alone in its group is never bounded, so its verdict equals its separate
    search's.
    """
    maps = list(maps)
    if not maps:
        raise ValueError("positivity_checks needs at least one map")
    n = maps[0].n
    if any(s.n != n for s in maps):
        raise DimensionMismatch("positivity_checks needs maps on one algebra")
    seeds = list(seeds)
    if len(seeds) != len(maps):
        raise ValueError(f"positivity_checks got {len(seeds)} seeds for {len(maps)} maps")
    groups = range(len(maps)) if groups is None else list(groups)
    if len(groups) != len(maps):
        raise ValueError(f"positivity_checks got {len(groups)} groups for {len(maps)} maps")
    starters_by_seed = {seed: _seeded_starters(n, seed) for seed in dict.fromkeys(seeds)}
    starters = np.stack([starters_by_seed[seed] for seed in seeds])
    reps = np.stack([s.rep for s in maps])
    reps_t = reps.swapaxes(-1, -2)
    rows = np.arange(len(maps))
    herm, skew = _image_parts(reps_t, starters)
    fvals = screened_least_eigvals(herm, skew)
    k = np.argmin(fvals, axis=1)
    best_val, best_vec = fvals[rows, k], starters[rows, k]
    unit = _unit_scale(reps)
    # tol on the unit-scale copy is tol / unit on the map, since scaling by a
    # power of two is exact
    unit_tol = tol / unit
    violated_at_start = best_val < -unit_tol
    certified = np.zeros(len(maps), dtype=bool)
    if generator_certified is not None and not violated_at_start.all() and generator_certified():
        certified = ~violated_at_start
    # the floors of the maps violated at their starters are the only least
    # Choi eigenvalues read
    min_eig, herm_dev = np.full((2, len(maps)), np.nan)
    rest = np.flatnonzero(~certified)
    if len(rest):
        certified[rest], min_eig[rest], herm_dev[rest] = _cp_checks(reps[rest], n, unit_tol[rest])
    # the slack also covers rounding, so that the bound holds at tol = 0 too
    slack = (tol + rounding_slack(n)) / unit
    bounded = _bounded(groups, best_val, min_eig - n * n * herm_dev, slack,
                       violated_at_start)
    # the maps that descend from their worst starters
    live = np.flatnonzero(~certified & ~bounded)

    evals = np.full(len(maps), starters.shape[1])
    if len(live):
        # the screen left only each row's least values; a descent needs its
        # map's whole row
        full = np.linalg.eigvalsh(herm[live])[..., 0] - skew[live]
        first = starters[live[:, None], np.argsort(full, axis=1)[:, :_N_DESCENT]]
        vals, best_vec[live] = _descend(
            reps[live] * unit[live, None, None], first, best_val[live] * unit[live], best_vec[live]
        )
        best_val[live] = vals / unit[live]
        evals[live] += (_DESCENT_ITERS + 1) * _N_DESCENT

    # each map's final vector re-scored as its own row, so that a witness
    # reproduces its margin
    score = _f_batch(reps_t, best_vec[:, None])[0][:, 0]
    margin = np.where(best_val < score, best_val, score)  # min(), ties to score
    violated = ~certified & (margin < -unit_tol)
    margin[violated] = score[violated]
    status = np.select([certified, violated], [CERTIFIED_POSITIVE, VIOLATED], NO_VIOLATION_FOUND)
    return [
        ConeVerdict(st, m, int(used), frozen(v) if st == VIOLATED else None)
        for st, m, used, v in zip(status.tolist(), margin.tolist(), evals, best_vec)
    ]


def positivity_check(s: Superoperator, seed: int = 0, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Search one map for a rank-one input whose image leaves the PSD cone.

    The single-map case of :func:`positivity_checks`, which runs the searches
    of many maps as one stacked descent with the same verdicts.
    """
    return positivity_checks([s], [seed], tol)[0]


# ---------------------------------------------------------------------------
# contraction bounds
# ---------------------------------------------------------------------------

# The contraction search's fixed effort: seeded random inputs, then a power
# ascent from the best four.
_CONTRACTION_SAMPLES = 64
_ASCENT_ITERS = 30


@dataclass(frozen=True)
class ContractionVerdict:
    """Sampled lower bound on the operator norm of a map (spectral-to-spectral).

    certified_contraction is only issued for symmetric unital maps with the
    positivity certificate their caller passes -- whose norm is exactly one
    by the Russo-Dye fact -- and even then the sampled bound must not
    exceed 1 + tol; the fact is verified, never assumed.
    A violated verdict carries the first bound that exceeds 1 + tol: the
    sampled one when sampling already proves the map is no contraction,
    otherwise the bound after the power ascent.
    """

    status: str
    norm_lower_bound: float


def _top_singular(xs: np.ndarray) -> np.ndarray:
    """Spectral norm of every matrix of a stack."""
    return np.linalg.svd(xs, compute_uv=False)[..., 0]


def _ratios(s_out: np.ndarray, s_in: np.ndarray) -> np.ndarray:
    """``||S(x)|| / ||x||`` from spectral norms, batched along the last axis.

    An input whose norm is negligible next to the batch's largest (or next
    to 1) scores 0.
    """
    ok = s_in > 1e-12 * np.maximum(1.0, s_in.max(axis=-1, keepdims=True))
    return np.where(ok, s_out / np.where(ok, s_in, 1.0), 0.0)


def _ascend(reps: np.ndarray, v: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Power ascent of an (m, b, n, n) stack of unit inputs, one map each.

    Each step takes two SVD calls: the full SVD of S(v) gives both the
    ratio of v and the gradient u_1 w_1^*, and a values-only SVD gives the
    norms of v.  Returns ``bounds`` raised to the best ratio of each map.
    """
    reps_t = reps.swapaxes(-1, -2)
    reps_c = reps.conj()
    for _ in range(_ASCENT_ITERS):
        u, sv, wh = np.linalg.svd(apply_stack(reps_t, v))
        bounds = np.fmax(bounds, _ratios(sv[..., 0], _top_singular(v)).max(axis=-1))
        # the gradient goes back through the adjoint map
        v = apply_stack(reps_c, u[..., :, :1] @ wh[..., :1, :])
        norms = np.linalg.norm(v, axis=(-2, -1), keepdims=True)
        norms[norms == 0] = 1.0
        v /= norms
    return bounds


def contraction_checks(maps, seed: int, tol: float, positive) -> list:
    """Lower-bound ``sup ||S(x)|| / ||x||`` for each of a list of maps on one M(n).

    The effort per map is fixed: the unit, 64 Gaussian inputs drawn from
    ``seed`` (shared by all maps, so their norms are computed once) and
    inputs built from the map's top singular vectors are scored, then the
    best four climb 30 steps of a power ascent.  One pass samples the maps
    in order and decides each where it is sampled: a sampled ratio above
    ``1 + tol`` makes the map violated with that bound and ends the pass; a
    map with the Russo-Dye certificate is a certified contraction with its
    sampled bound; every other map joins one stacked ascent (see
    ``_ascend``), which only raises a bound.  Returns one verdict per map up
    to the first violated one in order, and None after it.

    ``positive`` holds one positivity certificate (a bool) per map.  A map
    has the Russo-Dye certificate when it is certified positive, symmetric
    and unital at ``tol``: a positive unital map has norm ||S(1)|| = 1.
    """
    maps = list(maps)
    if not maps:
        raise ValueError("contraction_checks needs at least one map")
    n = maps[0].n
    if any(s.n != n for s in maps):
        raise DimensionMismatch("contraction_checks needs maps on one algebra")
    if len(positive) != len(maps):
        raise ValueError(f"contraction_checks got {len(positive)} flags for {len(maps)} maps")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
    shape = (_CONTRACTION_SAMPLES, n, n)
    gauss = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    shared = np.concatenate([np.eye(n, dtype=complex)[None], gauss])
    shared_norms = _top_singular(shared)

    verdicts, climb, starts, sampled = [], [], [], []
    for s, certified in zip(maps, positive):
        # top right-singular vectors of the rep seed the search near the
        # maximizer of the Hilbert-Schmidt-induced norm, a guaranteed
        # lower-bound direction
        _, _, vh = np.linalg.svd(s.rep)
        tops = vh[: min(3, len(vh))].conj().reshape(-1, n, n).swapaxes(1, 2)
        own = np.concatenate([tops, (tops + tops.conj().transpose(0, 2, 1)) / 2])
        xs = np.concatenate([shared, own])
        # one call gives the norms of the images and of the map's own inputs
        sv = _top_singular(np.concatenate([apply_stack(s.rep.T, xs), own]))
        ratios = _ratios(sv[: len(xs)], np.concatenate([shared_norms, sv[len(xs):]]))
        bound = float(np.max(ratios))
        if bound > 1.0 + tol:
            verdicts.append(ContractionVerdict(VIOLATED, bound))
            break
        if certified and is_symmetric_map(s, tol).verdict and is_unital(s, tol).verdict:
            verdicts.append(ContractionVerdict(CERTIFIED_CONTRACTION, bound))
            continue
        climb.append(len(verdicts))
        verdicts.append(None)
        starts.append(xs[np.argsort(ratios)[::-1][:4]])
        sampled.append(bound)

    if climb:
        starts = np.stack(starts)
        starts /= np.linalg.norm(starts, axis=(-2, -1), keepdims=True)
        bounds = _ascend(np.stack([maps[k].rep for k in climb]), starts, np.array(sampled))
        for k, bound in zip(climb, bounds.tolist()):
            verdicts[k] = ContractionVerdict(
                VIOLATED if bound > 1.0 + tol else NO_VIOLATION_FOUND, bound)
    # the first violated map in order ends the list
    stop = next((k + 1 for k, v in enumerate(verdicts) if v.status == VIOLATED), len(verdicts))
    return verdicts[:stop] + [None] * (len(maps) - stop)


def contraction_check(
    s: Superoperator, seed: int = 0, tol: float = DEFAULT_TOL
) -> ContractionVerdict:
    """Lower-bound ``sup ||S(x)|| / ||x||`` by sampling plus local ascent.

    The single-map case of :func:`contraction_checks`, with the map's own CP
    test (:func:`cp_check` at ``tol``) as its positivity certificate.  The
    CP test always runs; when a sampled ratio already exceeds ``1 + tol``
    the map is returned as violated with that sampled bound and the ascent
    does not run.
    """
    return contraction_checks([s], seed, tol, [cp_check(s, tol).verdict])[0]
