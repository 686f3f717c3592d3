"""One-parameter semigroups e^{tL} on M(n, C) and their resolvent calculus.

A generator is described either explicitly (by its superoperator matrix) or
by Hamiltonian / Lindblad payloads, from which the superoperator is built and
checked at construction time.  A :class:`SemigroupHandle` caches spectral data
so that evaluating the semigroup on a grid of times is cheap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DecayFailureError,
    DimensionMismatch,
    PropagatorOverflow,
    ResolventPoleError,
    SchemaError,
)
from .matrixcore import CMatrix, as_matrix, frozen, mat_exp, max_entry
from .superop import Superoperator, identity_superop, is_symmetric_map, vec

GENERATOR_KINDS = ("explicit", "hamiltonian", "lindblad")

# Construction-time guarantees for hamiltonian/lindblad payloads.
_BUILD_TOL = 1e-12

# Eigenvector condition number above which the cached-diagonalization fast
# path is abandoned in favor of the Pade exponential.
_EIG_COND_LIMIT = 1e4

# Matrix entries per stacked mat_exp call on that fallback path (1 MiB of
# complex entries per temporary).
_EXP_CHUNK = 1 << 16

_POLE_GAP = 1e-9


def lindblad_rep(h, vs) -> np.ndarray:
    """Superoperator of ``L(x) = i[H,x] + sum_k (V_k* x V_k - {V_k* V_k, x}/2)``."""
    h = as_matrix(h)
    n = h.shape[0]
    if max_entry(h - h.conj().T) > 1e-10:
        raise ValueError("Hamiltonian payload must be hermitian")
    eye = np.eye(n)
    rep = 1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for v in vs:
        v = as_matrix(v)
        if v.shape[0] != n:
            raise DimensionMismatch("dissipator dimension differs from Hamiltonian")
        w = v.conj().T @ v
        rep = rep + np.kron(v.T, v.conj().T)
        rep = rep - 0.5 * (np.kron(eye, w) + np.kron(w.T, eye))
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
        required = {
            "explicit": {"n", "kind", "superop"},
            "hamiltonian": {"n", "kind", "H"},
            "lindblad": {"n", "kind", "H", "V"},
        }[kind]
        if set(obj) != required:
            missing = sorted(required - set(obj))
            extra = sorted(set(obj) - required)
            parts = []
            if missing:
                parts.append(f"missing field(s) {missing}")
            if extra:
                parts.append(f"unknown field(s) {extra}")
            raise SchemaError(f"generator kind '{kind}': " + ", ".join(parts))
        n = obj["n"]
        if not isinstance(n, int) or n < 1:
            raise SchemaError("field 'n' must be a positive integer")
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
    """A generator plus cached spectral data for fast e^{tL} evaluation.

    Diagonalizable generators (eigenvector condition number below 1e4) use the
    cached eigendecomposition for every time point, which also serves the
    quadrature routes' batches of T_t; anything worse falls back to stacked
    :func:`mat_exp` calls of bounded size, trading speed for accuracy.
    Each T_t and R_lam is built once per handle: :func:`evolve` and
    :func:`resolvent` memoize them by t and lam, which is safe because a
    Superoperator is immutable.  Next to them the criteria module memoizes
    each map's cone-search verdict, so every map is searched once per handle.
    """

    def __init__(self, gen):
        if isinstance(gen, GeneratorSpec):
            self.spec: GeneratorSpec | None = gen
            self.generator = build_superoperator(gen)
        elif isinstance(gen, Superoperator):
            self.spec = None
            self.generator = gen
        else:
            raise TypeError("expected a GeneratorSpec or Superoperator")
        rep = self.generator.rep
        self.n = self.generator.n
        w, p = np.linalg.eig(rep)
        order = np.lexsort((w.imag, w.real))
        self.eigenvalues = tuple(complex(v) for v in w[order])
        self.spectral_abscissa = float(max(v.real for v in self.eigenvalues))
        self._eig = None
        self._evolved = {}
        self._resolvents = {}
        self._cone_verdicts = {}
        try:
            pinv = np.linalg.inv(p)
            cond = np.linalg.norm(p, 2) * np.linalg.norm(pinv, 2)
            if np.isfinite(cond) and cond <= _EIG_COND_LIMIT:
                self._eig = (p, w, pinv)
        except np.linalg.LinAlgError:
            pass

    def evolve_rep(self, ts: np.ndarray) -> np.ndarray:
        """Stack of e^{t rep} matrices for an array of times t >= 0."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0):
            raise ValueError("semigroup times must be nonnegative")
        if self._eig is not None:
            p, w, pinv = self._eig
            phases = np.exp(np.multiply.outer(ts, w))
            return np.einsum("ij,tj,jk->tik", p, phases, pinv)
        # stacked calls of at most _EXP_CHUNK entries (or one matrix) each:
        # one call on a quadrature's 512 nodes would hold several temporaries
        # of 512 n^2 x n^2 matrices each, and one call per node is slow
        rep = self.generator.rep
        k = min(ts.size, -(-ts.size * rep.size // _EXP_CHUNK))
        return np.concatenate([mat_exp(np.multiply.outer(c, rep)) for c in np.array_split(ts, k)])


def _as_handle(h) -> SemigroupHandle:
    return h if isinstance(h, SemigroupHandle) else SemigroupHandle(h)


def _finite_map(n: int, rep: np.ndarray, what: str) -> Superoperator:
    if not np.isfinite(rep).all():
        raise PropagatorOverflow(f"{what} overflows double precision")
    return Superoperator(n, rep)


def evolve(h, t: float) -> Superoperator:
    """The semigroup element T_t = e^{tL}; t must be nonnegative.

    Raises PropagatorOverflow when T_t does not fit in double precision.
    """
    h = _as_handle(h)
    if t < 0:
        raise ValueError("semigroup is defined for t >= 0 only")
    if t == 0:
        return identity_superop(h.n)
    s = h._evolved.get(t)
    if s is None:
        # an overflow is reported as PropagatorOverflow, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            rep = h.evolve_rep(np.array([t]))[0]
        s = _finite_map(h.n, rep, f"T_t at t={t:g}")
        h._evolved[t] = s
    return s


def resolvent(h, lam: float) -> Superoperator:
    """(lam - L)^{-1}, defined for lam beyond the spectral abscissa."""
    h = _as_handle(h)
    if lam <= h.spectral_abscissa + _POLE_GAP:
        raise ResolventPoleError(
            f"resolvent point {lam:g} does not clear the spectral abscissa "
            f"{h.spectral_abscissa:g}"
        )
    s = h._resolvents.get(lam)
    if s is None:
        n2 = h.n * h.n
        rep = np.linalg.solve(lam * np.eye(n2) - h.generator.rep, np.eye(n2))
        s = _finite_map(h.n, rep, f"R_lam at lam={lam:g}")
        h._resolvents[lam] = s
    return s


# The Laplace-transform integrals use a fixed composite Gauss-Legendre rule,
# truncated where the tail bound drops below _TRUNCATION_EPS.
_QUAD_PANELS = 64
_QUAD_ORDER = 8
_TRUNCATION_EPS = 1e-10


def _quad_nodes(t_star: float):
    x, w = np.polynomial.legendre.leggauss(_QUAD_ORDER)
    edges = np.linspace(0.0, t_star, _QUAD_PANELS + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).reshape(-1)
    weights = (half[:, None] * w[None, :]).reshape(-1)
    return nodes, weights


def decay_horizon(h, lam: float) -> float:
    """Truncation horizon for Laplace-transform integrals against e^{tL}.

    Chosen so the tail bound e^{(abscissa - lam) T} / (lam - abscissa) drops
    below 1e-10 (at least 1e-2); raises DecayFailureError when the integrand
    does not decay at all.
    """
    h = _as_handle(h)
    gap = lam - h.spectral_abscissa
    if gap <= _POLE_GAP:
        raise DecayFailureError(
            f"Laplace integrand does not decay at lam={lam:g} "
            f"(spectral abscissa {h.spectral_abscissa:g})"
        )
    return max(-math.log(_TRUNCATION_EPS * gap) / gap, 1e-2)


def laplace_resolvent(h, lam: float) -> Superoperator:
    """Resolvent via the Laplace transform: integral of e^{-lam t} T_t dt.

    The integral is truncated at :func:`decay_horizon`, then evaluated by a
    fixed composite Gauss-Legendre rule: 64 panels of order 8.
    """
    h = _as_handle(h)
    t_star = decay_horizon(h, lam)
    nodes, weights = _quad_nodes(t_star)
    mats = h.evolve_rep(nodes)
    coeff = weights * np.exp(-lam * nodes)
    rep = np.einsum("t,tij->ij", coeff, mats)
    return Superoperator(h.n, rep)


def euler_product(h, t: float, m: int) -> Superoperator:
    """Backward-Euler approximation ((m/t)(m/t - L)^{-1})^m of e^{tL}."""
    h = _as_handle(h)
    if t <= 0:
        raise ValueError("euler_product needs t > 0")
    if m < 1:
        raise ValueError("euler_product needs m >= 1")
    lam = m / t
    r = resolvent(h, lam)
    return Superoperator(h.n, np.linalg.matrix_power(lam * r.rep, m))


def lambda_grid(h, multipliers=(1.0, 10.0, 100.0)) -> tuple:
    """Decade-spaced admissible resolvent parameters for this generator.

    Anchored at max(1, spectral_abscissa + 1) so every grid point clears the
    spectrum with a unit gap; the spread exposes tolerance-sensitivity in
    "large lambda" claims.
    """
    base = max(1.0, _as_handle(h).spectral_abscissa + 1.0)
    return tuple(float(m) * base for m in multipliers)


def yosida_generator(h, lam: float) -> Superoperator:
    """Bounded approximation L_lam = lam^2 (lam - L)^{-1} - lam.

    Computed two ways -- the displayed formula and lam * L (lam - L)^{-1} --
    and cross-checked; disagreement raises ConsistencyError.
    """
    h = _as_handle(h)
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


def yosida_semigroup(h, lam: float, t: float) -> Superoperator:
    """e^{t L_lam} in its product form e^{-t lam} e^{lam^2 t (lam - L)^{-1}}.

    The scalar prefactor underflows for lam * t beyond ~700, so the product is
    split into equal factors with exponent at most 100 each and multiplied
    back together; the result is cross-checked against mat_exp of the Yosida
    generator.
    """
    h = _as_handle(h)
    if t < 0:
        raise ValueError("semigroup times must be nonnegative")
    r = resolvent(h, lam).rep
    k = max(1, math.ceil(abs(lam) * t / 100.0))
    dt = t / k
    factor = math.exp(-lam * dt) * mat_exp(lam * lam * dt * r)
    product = np.linalg.matrix_power(factor, k)
    direct = mat_exp(t * yosida_generator(h, lam).rep)
    dev = max_entry(product - direct)
    if dev > 1e-10 * max(1.0, max_entry(direct)):
        raise ConsistencyError(
            f"Yosida semigroup factorization deviates by {dev:g} "
            f"at lam={lam:g}, t={t:g}"
        )
    return Superoperator(h.n, product)
