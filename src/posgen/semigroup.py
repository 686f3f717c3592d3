"""One-parameter semigroups e^{tL} on M(n, C) and their resolvent calculus.

A generator is described either explicitly (by its superoperator matrix) or
by Hamiltonian / Lindblad payloads, from which the superoperator is built and
checked at construction time.  A :class:`SemigroupHandle` memoizes the maps
built from its generator, so each T_t, R_lam and e^{s R_lam} is computed once,
and the generator's certificate (see :func:`generator_certificate`): a split
L = A + c tau, A CCP and c >= 0, that makes every one of those maps positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    PropagatorOverflow,
    ResolventPoleError,
    SchemaError,
)
from .matrixcore import (CMatrix, as_matrix, frozen, hermitian_split, json_dimension,
                         json_object, mat_exp, max_entry, rounding_slack)
from .superop import (Superoperator, _scaled, _unit_exponent, choi_matrix,
                      is_symmetric_map, transpose_map, vec)

GENERATOR_KINDS = ("explicit", "hamiltonian", "lindblad")

# Construction-time guarantees for hamiltonian/lindblad payloads.
_BUILD_TOL = 1e-12

# Matrix entries per stacked mat_exp call (1 MiB of complex entries per
# temporary).
_EXP_CHUNK = 1 << 16

_POLE_GAP = 1e-9

# The most cutting-plane steps of the generator split's search for c.
_SPLIT_STEPS = 60


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two n x n matrices, bit for bit, without its overhead."""
    n = a.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * n, n * n)


def lindblad_rep(h, vs) -> np.ndarray:
    """Superoperator of ``L(x) = i[H,x] + sum_k (V_k* x V_k - {V_k* V_k, x}/2)``."""
    h = as_matrix(h)
    n = h.shape[0]
    # max|h - h*| > 1e-10, read from the skew, which cannot overflow
    if hermitian_split(h)[1] > 1e-10 / 2:
        raise ValueError("Hamiltonian payload must be hermitian")
    eye = np.eye(n)
    rep = 1j * (_kron(eye, h) - _kron(h.T, eye))
    for v in vs:
        v = as_matrix(v)
        if v.shape[0] != n:
            raise DimensionMismatch("dissipator dimension differs from Hamiltonian")
        w = v.conj().T @ v
        rep = rep + _kron(v.T, v.conj().T)
        rep = rep - 0.5 * (_kron(eye, w) + _kron(w.T, eye))
    return rep


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of a generator.

    JSON form: ``{"n", "kind", ...payload}`` where the payload is ``superop``
    for explicit generators, ``H`` for hamiltonian ones, and ``H`` + ``V``
    (a list) for lindblad ones.  Unknown fields are rejected.
    """

    kind: str
    n: int
    superop: Superoperator | None = None
    hamiltonian: np.ndarray | None = None
    dissipators: tuple = ()

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise SchemaError(f"unknown generator kind '{self.kind}'")
        if self.kind == "explicit":
            if self.superop is None or self.superop.n != self.n:
                raise SchemaError("explicit generator needs a matching superop")
        else:
            h = as_matrix(self.hamiltonian)
            if h.shape[0] != self.n:
                raise DimensionMismatch("Hamiltonian size disagrees with n")
            object.__setattr__(self, "hamiltonian", frozen(h))
            object.__setattr__(
                self, "dissipators", tuple(frozen(as_matrix(v)) for v in self.dissipators)
            )
            if self.kind == "hamiltonian" and self.dissipators:
                raise SchemaError("hamiltonian generator takes no dissipators")

    def to_json(self) -> dict:
        out: dict = {"n": self.n, "kind": self.kind}
        if self.kind == "explicit":
            out["superop"] = self.superop.to_json()
        else:
            out["H"] = CMatrix(self.hamiltonian).to_json()
            if self.kind == "lindblad":
                out["V"] = [CMatrix(v).to_json() for v in self.dissipators]
        return out

    @classmethod
    def from_json(cls, obj) -> "GeneratorSpec":
        if not isinstance(obj, dict):
            raise SchemaError("generator payload must be an object")
        kind = obj.get("kind")
        if kind not in GENERATOR_KINDS:
            raise SchemaError(f"field 'kind' must be one of {GENERATOR_KINDS}")
        payload = {"explicit": ("superop",), "hamiltonian": ("H",), "lindblad": ("H", "V")}
        json_object(obj, f"{kind} generator", ("n", "kind", *payload[kind]))
        n = json_dimension(obj["n"])
        if kind == "explicit":
            return cls(kind=kind, n=n, superop=Superoperator.from_json(obj["superop"]))
        h = CMatrix.from_json(obj["H"]).a
        if kind == "hamiltonian":
            return cls(kind=kind, n=n, hamiltonian=h)
        if not isinstance(obj["V"], list):
            raise SchemaError("field 'V' must be a list of matrix payloads")
        vs = tuple(CMatrix.from_json(v).a for v in obj["V"])
        return cls(kind=kind, n=n, hamiltonian=h, dissipators=vs)


def build_superoperator(spec: GeneratorSpec) -> Superoperator:
    """Materialize the superoperator of a GeneratorSpec.

    Hamiltonian and lindblad payloads are checked at construction: the result
    must kill the unit (L(1) = 0) and preserve hermiticity, both to 1e-12.
    """
    if spec.kind == "explicit":
        return spec.superop
    rep = lindblad_rep(spec.hamiltonian, spec.dissipators)
    s = Superoperator(spec.n, rep)
    unit_margin = max_entry(rep @ vec(np.eye(spec.n)))
    if unit_margin > _BUILD_TOL:
        raise ConsistencyError(f"built generator has L(1) != 0, margin {unit_margin:g}")
    sym = is_symmetric_map(s, _BUILD_TOL)
    if not sym.verdict:
        raise ConsistencyError(
            f"built generator is not hermiticity-preserving, margin {sym.margin:g}"
        )
    return s


class SemigroupHandle:
    """A generator, its spectral abscissa, and memos of the maps built from it.

    Each T_t, R_lam and e^{s R_lam} is built once per handle, T_t and the
    roots of e^{s R_lam} by stacked :func:`mat_exp` calls of bounded size
    (see :func:`_resolvent_exp_reps`): :func:`build_maps`
    memoizes them by family and point, which is safe because a Superoperator
    is immutable.  Next to them the criteria module memoizes the cone-search
    verdicts of each condition grid, so every grid is searched once per
    handle, and so is the :func:`generator_certificate`.
    """

    def __init__(self, gen):
        if isinstance(gen, GeneratorSpec):
            self.generator = build_superoperator(gen)
        elif isinstance(gen, Superoperator):
            self.generator = gen
        else:
            raise TypeError("expected a GeneratorSpec or Superoperator")
        self.n = self.generator.n
        self.spectral_abscissa = float(np.linalg.eigvals(self.generator.rep).real.max())
        self._maps = {family: {} for family in _FAMILIES}
        self._cone_verdicts = {}
        self._certificate = None

    def evolve_rep(self, ts: np.ndarray) -> np.ndarray:
        """Stack of e^{t rep} for a 1-D array of finite t >= 0; non-finite where t rep is."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ValueError(f"semigroup times must be a 1-D array, got shape {ts.shape}")
        _require_finite(ts)
        if np.any(ts < 0):
            raise ValueError("semigroup is defined for t >= 0 only")
        return _exp_finite(np.multiply.outer(ts, self.generator.rep))


def _require_finite(ts) -> None:
    bad = np.asarray(ts, dtype=float)[~np.isfinite(ts)]
    if bad.size:
        raise ValueError(f"semigroup times must be finite, got t={bad[0]:g}")


def _exp_finite(out: np.ndarray) -> np.ndarray:
    """Exponentiate the finite matrices of a stack in place; the rest stay non-finite."""
    idx = np.flatnonzero(np.isfinite(out).all(axis=(1, 2)))
    # stacked calls of at most _EXP_CHUNK entries (or one matrix) each: one
    # call on a long grid would hold several temporaries of one n^2 x n^2
    # matrix per point, and one call per point is slow
    k = min(idx.size, -(-idx.size * out.shape[-1] ** 2 // _EXP_CHUNK))
    for c in np.array_split(idx, k) if k else ():
        # a run of consecutive rows goes in as a view, not as a copy
        c = slice(c[0], c[-1] + 1) if c[-1] - c[0] + 1 == len(c) else c
        out[c] = mat_exp(out[c])
    return out


# The largest entry a built map may have: 2^32 below the largest double.  The
# images and products the checks take of a map grow its entries by far less;
# the probe scans, which grow them most, by about 2^9 at n = 8 with 10 000
# probes.  So nothing a check computes from a built map overflows.
_LARGEST_ENTRY = np.finfo(float).max / 2.0**32


def _fits(rep: np.ndarray) -> bool:
    """Whether a map's entries are finite and at most ``_LARGEST_ENTRY``."""
    return max_entry(rep) <= _LARGEST_ENTRY  # False for NaN too


def _resolvent_reps(h: SemigroupHandle, lams) -> np.ndarray:
    """(lam - L)^{-1} for the lams that clear the spectral abscissa; non-finite at the rest."""
    lams = np.asarray(lams, dtype=float)
    out = np.full((len(lams), h.n**2, h.n**2), np.nan, dtype=complex)
    clear = lams > h.spectral_abscissa + _POLE_GAP  # False for NaN too
    out[clear] = np.linalg.inv(np.multiply.outer(lams[clear], np.eye(h.n**2)) - h.generator.rep)
    return out


def _resolvent_exp_reps(h: SemigroupHandle, points) -> np.ndarray:
    """e^{s R_lam}, R_lam read through ``build_maps``; non-finite where R_lam is missing.

    s = m 2^k with m in [1/2, 1) (for s < 1/2, m = s and k = 0): the root
    e^{m R_lam} of each distinct (m, lam) is exponentiated once, and squared
    k times, since e^{2sR} = (e^{sR})^2.  So a map's bits depend on (s, lam)
    alone, not on the other points asked for, and e^{2sR} is e^{sR} squared
    bit for bit.  A non-finite root or an overflowing square stays non-finite.
    Raises ValueError at an s that is negative or not finite.
    """
    for s, _ in points:
        if not 0 <= s < math.inf:  # False for NaN too
            raise ValueError(f"e^(s R_lam) is defined for finite s >= 0 only, got s={s:g}")
    build_maps(h, "resolvent", [lam for _, lam in points])
    rs = h._maps["resolvent"]
    missing = np.full((h.n**2, h.n**2), np.nan)
    roots, index, powers = {}, [], []
    for s, lam in points:
        m, k = math.frexp(s) if s >= 0.5 else (s, 0)
        index.append(roots.setdefault((m, lam), len(roots)))
        powers.append(k)
    exps = _exp_finite(np.stack([m * (missing if rs[lam] is None else rs[lam].rep)
                                 for m, lam in roots]))
    index, powers = np.array(index), np.array(powers)
    # the squarings each root needs: the most of any of its points
    top = np.zeros(len(roots), dtype=int)
    np.maximum.at(top, index, powers)
    out = np.empty((len(points), *exps.shape[1:]), dtype=complex)
    for j in range(int(top.max()) + 1):
        if j:
            sq = top >= j
            exps[sq] = exps[sq] @ exps[sq]
        at = powers == j
        out[at] = exps[index[at]]
    return out


# Theorem 1's families of maps: how one stacked call builds the maps at a list
# of points, how an overflow names a point, and a point's lam (None for T_t).
_FAMILIES = {
    "semigroup": (SemigroupHandle.evolve_rep, lambda t: f"T_t at t={t:g}", lambda t: None),
    "resolvent": (_resolvent_reps, lambda lam: f"R_lam at lam={lam:g}", lambda lam: lam),
    "resolvent_exp": (
        _resolvent_exp_reps,
        lambda p: f"e^(s R_lam) at s={p[0]:g}, lam={p[1]:g}",
        lambda p: p[1],
    ),
}


def build_maps(h: SemigroupHandle, family: str, points) -> None:
    """Memoize the maps of ``family`` at the points not built yet; None where there is none.

    A point has no map when its map does not fit (``_fits``) or its lam does
    not clear the spectral abscissa.  Raises nothing; checks use :func:`family_maps`.
    """
    memo = h._maps[family]
    missing = [p for p in dict.fromkeys(points) if p not in memo]
    if missing:
        # an overflow is reported as PropagatorOverflow, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            reps = _FAMILIES[family][0](h, missing)
        for p, rep in zip(missing, reps):
            memo[p] = Superoperator(h.n, rep) if _fits(rep) else None


def family_maps(h: SemigroupHandle, family: str, points) -> list:
    """The maps of ``family`` at ``points``, built by one stacked call where not built yet.

    At the first point with no map, raises ResolventPoleError when its lam
    does not clear the spectral abscissa and PropagatorOverflow otherwise.
    """
    build_maps(h, family, points)
    for p in points:
        if h._maps[family][p] is None:
            lam = _FAMILIES[family][2](p)
            if lam is not None and not lam > h.spectral_abscissa + _POLE_GAP:
                raise ResolventPoleError(f"resolvent point {lam:g} does not clear the "
                                         f"spectral abscissa {h.spectral_abscissa:g}")
            raise PropagatorOverflow(f"{_FAMILIES[family][1](p)} overflows double precision")
    return [h._maps[family][p] for p in points]


def _complement_of_omega(n: int) -> np.ndarray:
    """Orthonormal real columns spanning the complement of Omega = sum_i e_i kron e_i.

    The Householder reflection that swaps e_0 and Omega / sqrt(n) maps
    e_1, ..., e_{n^2-1} onto them.  Needs n >= 2.
    """
    w = -np.eye(n).reshape(-1) / np.sqrt(n)
    w[0] += 1.0
    return (np.eye(n * n) - (2.0 / (w @ w)) * np.outer(w, w))[:, 1:]


def mirror_split(gen: Superoperator) -> tuple[float, float]:
    """The c >= 0 that brings L - c tau, tau the transpose, closest to a CCP generator, and f(c).

    f(c) is the least eigenvalue of the hermitian part of Choi(L - c tau),
    L scaled to unit scale (see ``superop._unit_exponent``), compressed to the
    complement of Omega = sum_i e_i kron e_i.  A hermiticity-preserving
    L - c tau generates a CP semigroup where f(c) >= 0, and f is concave in
    c with supergradient ``-u* Choi(tau) u`` at its least eigenvector u.
    The search steps to the intersection of the tangent lines at the ends
    of a bracket of the maximizer, each step one ``eigh``; where they meet
    bounds f above.  It stops when the best f seen clears -slack (see
    :func:`matrixcore.rounding_slack`), or when that bound drops below
    -slack (no c gives a split) or lies within slack of the best f seen.

    Returns (0, f(0)) when f(0) >= -slack (L itself is CCP) or f falls from
    c = 0, and otherwise the best c seen and its f.  f is inf on M(1),
    where the complement of Omega is empty.
    """
    n = gen.n
    if n == 1:
        return 0.0, math.inf
    slack = rounding_slack(n)
    exp = int(_unit_exponent(gen.rep))
    v = _complement_of_omega(n)
    choi = choi_matrix(Superoperator(n, _scaled(gen.rep, -exp)))
    a = v.T @ hermitian_split(choi)[0] @ v
    b = v.T @ choi_matrix(transpose_map(n)).real @ v

    def cut(c):
        w, u = np.linalg.eigh(a - c * b)
        u = u[:, 0]
        return c, float(w[0]), -float((u.conj() @ b @ u).real)

    lo = cut(0.0)
    if lo[1] >= -slack or lo[2] <= 0:
        return 0.0, lo[1]
    # on the vectors Choi(tau) fixes f(c) <= |a| - c, so the maximizer lies
    # below |a| - f(0); past 2 |a| the least eigenvector is mostly such a
    # vector, so the supergradient there is negative
    hi = cut(2.0 * float(np.linalg.norm(a)) - lo[1])
    for _ in range(_SPLIT_STEPS):
        (c0, f0, g0), (c1, f1, g1) = lo, hi
        best = max(f0, f1)
        # the tangents meet at x; rounding may put x outside the bracket
        x = min(max((f1 - f0 + g0 * c0 - g1 * c1) / (g0 - g1), c0), c1)
        bound = min(f0 + g0 * (x - c0), f1 + g1 * (x - c1))
        if best >= -slack or bound < -slack or bound - best <= slack:
            break
        step = cut(x)
        if step[2] > 0:
            lo = step
        else:
            hi = step
    c, f, _ = max(lo, hi, key=lambda cut: cut[1])
    return float(np.ldexp(c, exp)), f


@dataclass(frozen=True)
class GeneratorCertificate:
    """Whether L = A + c tau with A CCP and c >= 0, so that every map built from L is positive.

    ``kind`` is ``"ccp"`` (c = 0), ``"decomposable"`` (c > 0) or None (no
    certificate).  ``margin`` is :func:`mirror_split`'s f(c): the least
    eigenvalue of the hermitian part of Choi(L - c tau), L at unit scale, on
    the complement of Omega; it is inf on M(1), where that complement is
    empty.
    """

    kind: str | None
    c: float
    margin: float


def generator_certificate(h: SemigroupHandle) -> GeneratorCertificate:
    """The handle's generator certificate, memoized on h.

    c and the margin are :func:`mirror_split`'s.  The certificate holds when
    c >= 0 and, at the generator's unit scale, L is symmetric (its Choi
    matrix hermitian) and the margin is nonnegative, both up to rounding (see
    :func:`matrixcore.rounding_slack`): then A = L - c tau is CCP (Lindblad
    1976; Evans 1977), each e^{tA} is CP and each T_t a Trotter limit of
    products of e^{tA/k} and e^{c t tau/k}, which is positive.  So every
    T_t, every R_lam past the spectral abscissa (the Laplace transform of
    T_t) and every e^{s R_lam}, s >= 0, is positive.  No tolerance enters: a margin
    of -tol at the generator bounds nothing at the maps, whose negative
    part can grow with t and with the scale of L.
    """
    if h._certificate is None:
        c, margin = mirror_split(h.generator)
        slack = rounding_slack(h.n)
        # slack at unit scale is slack * 2**exp on L, since scaling by a power of two is exact
        exp = _unit_exponent(h.generator.rep)
        holds = (c >= 0 and margin >= -slack
                 and is_symmetric_map(h.generator, np.ldexp(slack, exp)).verdict)
        h._certificate = GeneratorCertificate(
            ("decomposable" if c else "ccp") if holds else None, c, margin)
    return h._certificate


def evolve(h: SemigroupHandle, t: float) -> Superoperator:
    """The handle's semigroup element T_t = e^{tL}, at a finite t >= 0."""
    return family_maps(h, "semigroup", (t,))[0]


def resolvent(h: SemigroupHandle, lam: float) -> Superoperator:
    """(lam - L)^{-1} of the handle ``h``, for lam beyond the spectral abscissa."""
    return family_maps(h, "resolvent", (lam,))[0]


def euler_product(h: SemigroupHandle, t: float, m: int) -> Superoperator:
    """Backward-Euler approximation ((m/t)(m/t - L)^{-1})^m of the handle's e^{tL}."""
    _require_finite(t)
    if t <= 0:
        raise ValueError("euler_product needs t > 0")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"euler_product needs an integer m >= 1, got m={m!r}")
    lam = m / t
    r = resolvent(h, lam)
    return Superoperator(h.n, np.linalg.matrix_power(lam * r.rep, m))


def lambda_grid(h: SemigroupHandle, multipliers) -> tuple:
    """Decade-spaced admissible resolvent parameters for the handle's generator.

    Anchored at max(1, spectral_abscissa + 1) so every grid point clears the
    spectrum with a unit gap; the spread exposes tolerance-sensitivity in
    "large lambda" claims.
    """
    base = max(1.0, h.spectral_abscissa + 1.0)
    return tuple(float(m) * base for m in multipliers)


def yosida_generator(h: SemigroupHandle, lam: float) -> Superoperator:
    """Bounded approximation L_lam = lam^2 (lam - L)^{-1} - lam of the handle's L.

    Computed two ways -- the displayed formula and lam * L (lam - L)^{-1} --
    and cross-checked; disagreement raises ConsistencyError.
    """
    r = resolvent(h, lam).rep
    n2 = h.n * h.n
    primary = lam * lam * r - lam * np.eye(n2)
    alternate = lam * (h.generator.rep @ r)
    dev = max_entry(primary - alternate)
    if dev > 1e-10 * max(1.0, abs(lam)):
        raise ConsistencyError(
            f"two routes to the Yosida generator disagree by {dev:g} at lam={lam:g}"
        )
    return Superoperator(h.n, primary)


def yosida_semigroup(h: SemigroupHandle, lam: float, t: float) -> Superoperator:
    """The handle's e^{t L_lam}: one exponential of t times the Yosida generator."""
    _require_finite(t)
    if t < 0:
        raise ValueError("semigroup times must be nonnegative")
    return Superoperator(h.n, mat_exp(t * yosida_generator(h, lam).rep))
