"""Linear maps on M(n, C) as n^2 x n^2 matrices over column-stacked vectors.

Conventions fixed project-wide:

* ``vec`` stacks columns: entry (i, j) of a matrix lands at index ``i + n*j``.
* ``vec(A X B) = (B^T kron A) vec(X)``.
* A map is *symmetric* when it commutes with the adjoint, ``S(x^*) = S(x)^*``.
* Positivity verdicts are three-valued and never bluff: ``certified_positive``
  is backed by a complete-positivity certificate, ``no_violation_found`` is an
  absence-of-counterexample claim, ``violated`` carries a reproducible witness.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SchemaError
from .matrixcore import DEFAULT_TOL, as_matrix, frozen, max_entry

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
        from .matrixcore import CMatrix

        return {
            "n": self.n,
            "rep": CMatrix(self.rep).to_json(),
            "vec": "column-stacking",
        }

    @classmethod
    def from_json(cls, obj) -> "Superoperator":
        from .matrixcore import CMatrix

        if not isinstance(obj, dict):
            raise SchemaError("superoperator payload must be an object")
        extra = set(obj) - {"n", "rep", "vec"}
        if extra:
            raise SchemaError(f"unknown superoperator field(s): {sorted(extra)}")
        for field in ("n", "rep", "vec"):
            if field not in obj:
                raise SchemaError(f"superoperator payload missing field '{field}'")
        if obj["vec"] != "column-stacking":
            raise SchemaError(
                "field 'vec' must be the literal string 'column-stacking'"
            )
        n = obj["n"]
        if not isinstance(n, int) or n < 1:
            raise SchemaError("field 'n' must be a positive integer")
        rep = CMatrix.from_json(obj["rep"]).a
        if rep.shape != (n * n, n * n):
            raise SchemaError(f"field 'rep' must be {n*n} x {n*n}, got {rep.shape}")
        return cls(n=n, rep=rep)


# ---------------------------------------------------------------------------
# construction and algebra
# ---------------------------------------------------------------------------

def identity_superop(n: int) -> Superoperator:
    return Superoperator(n, np.eye(n * n, dtype=complex))


def sandwich(a, b) -> Superoperator:
    """The map ``x -> a x b`` with rep ``b^T kron a``."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch("sandwich factors must act on the same algebra")
    return Superoperator(a.shape[0], np.kron(b.T, a))


def conjugation(u) -> Superoperator:
    """Conjugation ``x -> u^* x u`` (observable picture)."""
    u = as_matrix(u)
    return sandwich(u.conj().T, u)


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


def hs_adjoint(s: Superoperator) -> Superoperator:
    """Adjoint for the Hilbert-Schmidt pairing ``<a, b> = tr(a^* b)``."""
    return Superoperator(s.n, s.rep.conj().T)


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapCheck:
    verdict: bool
    margin: float


def _images_tensor(s: Superoperator) -> np.ndarray:
    """T[i, j] = S(E_ij) as an (n, n, n, n) tensor, straight from rep columns."""
    n = s.n
    return s.rep.reshape(n, n, n, n).transpose(3, 2, 1, 0)


def is_symmetric_map(s: Superoperator, tol: float = DEFAULT_TOL) -> MapCheck:
    """Does ``S(x^*) = S(x)^*`` hold on all matrix units?"""
    t = _images_tensor(s)
    # S(E_ji) versus S(E_ij)^*
    dev = t.transpose(1, 0, 2, 3) - t.conj().transpose(0, 1, 3, 2)
    margin = float(np.abs(dev).max())
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


def _cp_checks(reps: np.ndarray, n: int, tol: float):
    """CP verdicts and least Choi eigenvalues of an (m, n^2, n^2) stack of reps."""
    c = _choi_stack(reps, n)
    ch = c.conj().swapaxes(-1, -2)
    herm_dev = np.abs(c - ch).max(axis=(-2, -1))
    min_eig = np.linalg.eigvalsh(0.5 * (c + ch))[:, 0]
    return (herm_dev <= tol) & (min_eig >= -tol), min_eig


def cp_check(s: Superoperator, tol: float = DEFAULT_TOL) -> CPCheck:
    """Complete positivity via the Choi matrix.

    ``verdict`` holds iff the Choi matrix is hermitian at ``tol`` and its least
    eigenvalue clears ``-tol``.  A true verdict certifies positivity of the map.
    """
    verdict, min_eig = _cp_checks(s.rep[None], s.n, tol)
    return CPCheck(verdict=bool(verdict[0]), min_choi_eig=float(min_eig[0]))


# ---------------------------------------------------------------------------
# sampled positivity
# ---------------------------------------------------------------------------

# The search's fixed effort: seeded random unit vectors join the structured
# starters, and the worst few descend for a fixed number of seesaw steps.
_N_RANDOM = 64
_N_DESCENT = 8
_DESCENT_ITERS = 30


@dataclass(frozen=True)
class ConeVerdict:
    """Outcome of a positivity search over rank-one inputs.

    margin is the most negative value of ``f(v) = min_eig(S(v v^*))`` observed
    (with a penalty for non-hermitian images); witness is present iff violated
    and re-evaluating f at the witness reproduces the margin.
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


def _f_batch(rep_t: np.ndarray, v: np.ndarray):
    """f(v) = min_eig(herm(S(vv*))) - max|skew(S(vv*))| for a stack of vectors.

    ``rep_t`` is the transposed rep of S, or a stack of them matching the
    leading axes of ``v``.  The skew penalty makes f faithful for maps that
    do not preserve hermiticity: a PSD image requires both a nonnegative
    hermitian part and a vanishing skew part.  Returns f and the least
    eigenvectors, one per vector.
    """
    m = apply_stack(rep_t, v[..., :, None] * v.conj()[..., None, :])
    mh = m.conj().swapaxes(-1, -2)
    skew = np.abs(m - mh).max(axis=(-2, -1))
    w, u = np.linalg.eigh((m + mh) / 2)
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


def positivity_checks(maps, seeds, tol: float = DEFAULT_TOL) -> list:
    """Search each map for a rank-one input whose image leaves the PSD cone.

    The maps must act on the same M(n); one ConeVerdict is returned per map.
    ``seeds`` holds one int seed per map; the effort is fixed.  Seeded unit
    vectors (plus the standard basis and two structured vectors), drawn once
    per distinct seed, are scored by f for every map in one stacked call; each
    map's worst starters seed 30 steps of a seesaw over the trace pairing (see
    ``_descend``), run on the map scaled by the power of two of its largest
    entry, so the search does not depend on the map's scale.  The seesaws of
    all maps run as one stacked descent.  A CP certificate (one stacked Choi
    eigendecomposition for all maps) takes its map out of the stack: the
    certificate already implies positivity, so only the cheap sampling pass
    runs to report an honest margin.  The verdicts equal, bit for bit, those
    of separate searches under each map's seed.
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
    starters_by_seed = {seed: _seeded_starters(n, seed) for seed in dict.fromkeys(seeds)}
    starters = np.stack([starters_by_seed[seed] for seed in seeds])
    reps = np.stack([s.rep for s in maps])
    reps_t = reps.swapaxes(-1, -2)
    rows = np.arange(len(maps))
    fvals, _ = _f_batch(reps_t, starters)
    k = np.argmin(fvals, axis=1)
    best_val, best_vec = fvals[rows, k], starters[rows, k]
    certified, _ = _cp_checks(reps, n, tol)
    live = np.flatnonzero(~certified)  # the maps that descend from their worst starters

    evals = np.full(len(maps), starters.shape[1])
    if len(live):
        first = starters[live[:, None], np.argsort(fvals[live], axis=1)[:, :_N_DESCENT]]
        unit = _unit_scale(reps[live])
        vals, best_vec[live] = _descend(
            reps[live] * unit[:, None, None], first, best_val[live] * unit, best_vec[live]
        )
        best_val[live] = vals / unit
        evals[live] += (_DESCENT_ITERS + 1) * _N_DESCENT

    # each map's final vector re-scored as its own row, so that a witness
    # reproduces its margin
    score = _f_batch(reps_t, best_vec[:, None])[0][:, 0]
    margin = np.where(best_val < score, best_val, score)  # min(), ties to score
    violated = ~certified & (margin < -tol)
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

    certified_contraction is only issued for symmetric unital CP maps -- whose
    norm is exactly one by the Russo-Dye fact -- and even then the sampled
    bound must not exceed 1 + tol; the fact is verified, never assumed.
    """

    status: str
    norm_lower_bound: float


def _ratio_batch(rep: np.ndarray, xs: np.ndarray) -> np.ndarray:
    s_out = np.linalg.svd(apply_stack(rep.T, xs), compute_uv=False)[:, 0]
    s_in = np.linalg.svd(xs, compute_uv=False)[:, 0]
    ok = s_in > 1e-12 * max(1.0, float(s_in.max(initial=0.0)))
    return np.where(ok, s_out / np.where(ok, s_in, 1.0), 0.0)


def contraction_check(
    s: Superoperator, seed: int = 0, tol: float = DEFAULT_TOL
) -> ContractionVerdict:
    """Lower-bound ``sup ||S(x)|| / ||x||`` by sampling plus local ascent.

    The effort is fixed: the unit, 64 seeded Gaussian inputs and inputs built
    from the rep's top singular vectors are scored, then the best four climb
    30 steps of a power ascent.  ``seed`` is the only per-call setting.
    """
    n = s.n
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
    shape = (_CONTRACTION_SAMPLES, n, n)
    gauss = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # top right-singular vectors of the rep seed the search near the maximizer
    # of the Hilbert-Schmidt-induced norm, a guaranteed lower-bound direction
    _, _, vh = np.linalg.svd(s.rep)
    tops = vh[: min(3, len(vh))].conj().reshape(-1, n, n).swapaxes(1, 2)
    xs = np.concatenate(
        [np.eye(n, dtype=complex)[None], gauss, tops, (tops + tops.conj().transpose(0, 2, 1)) / 2]
    )
    ratios = _ratio_batch(s.rep, xs)
    bound = float(np.max(ratios))

    symmetric = is_symmetric_map(s, tol).verdict
    unital = is_unital(s, tol).verdict
    if symmetric and unital and cp_check(s, tol).verdict and bound <= 1.0 + tol:
        return ContractionVerdict(CERTIFIED_CONTRACTION, bound)

    v = xs[np.argsort(ratios)[::-1][:4]].copy()
    v /= np.linalg.norm(v, axis=(1, 2), keepdims=True)
    for _ in range(_ASCENT_ITERS):
        u, _, wh = np.linalg.svd(apply_stack(s.rep.T, v))
        # the gradient u_1 w_1^* goes back through the adjoint map
        v = apply_stack(s.rep.conj(), u[:, :, :1] @ wh[:, :1, :])
        norms = np.linalg.norm(v, axis=(1, 2), keepdims=True)
        norms[norms == 0] = 1.0
        v /= norms
        bound = max(bound, float(np.max(_ratio_batch(s.rep, v))))

    if bound > 1.0 + tol:
        return ContractionVerdict(VIOLATED, bound)
    return ContractionVerdict(NO_VIOLATION_FOUND, bound)
