import math

import numpy as np
import pytest

from posgen import criteria, duality, superop
from posgen.errors import DimensionMismatch
from posgen.instances import flip_nonpositive, random_lindblad
from posgen.matrixcore import as_matrix, mat_exp
from posgen.semigroup import (
    _POLE_GAP,
    GeneratorSpec,
    _complement_of_omega,
    build_superoperator,
    lindblad_rep,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SMINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # lowering operator


@pytest.fixture
def paulis():
    return SX, SY, SZ


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def identity_superop(n):
    return superop.Superoperator(n, np.eye(n * n, dtype=complex))


def sandwich(a, b):
    """The map ``x -> a x b`` with rep ``b^T kron a``."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch("sandwich factors must act on the same algebra")
    return superop.Superoperator(a.shape[0], np.kron(b.T, a))


def conjugation(u):
    """Conjugation ``x -> u^* x u`` (observable picture)."""
    u = as_matrix(u)
    return sandwich(u.conj().T, u)


def hs_adjoint(s):
    """Adjoint for the Hilbert-Schmidt pairing ``<a, b> = tr(a^* b)``."""
    return superop.Superoperator(s.n, s.rep.conj().T)


def predual_evolve(h, t, rho):
    """T_t^*(rho) through the library's one predual route."""
    return duality._predual(h, (t,), rho)[0]


def signed_rate_rep(seed, n=2):
    """Generator ``seed`` of the signed-rate sweep on M(n): sum_k c_k D_{A_k}.

    n + 1 rates c_k, uniform on [-0.4, 1.0), are drawn before the jump
    operators A_k, n x n complex Gaussians divided by 2; D_A is the
    dissipator of A with no Hamiltonian (scripts/signed_rate_sweep.py builds
    the same sets at n = 2 and 3).
    """
    rng = np.random.default_rng(seed)
    rates = rng.uniform(-0.4, 1.0, n + 1)
    jumps = [rand_complex(rng, n, n) / 2 for _ in rates]
    return sum(c * lindblad_rep(np.zeros((n, n)), [a]) for c, a in zip(rates, jumps))


def flip_plus_lindblad(n, seed):
    """The flip generator plus a seeded Lindblad part: every T_t, R_lam and
    e^{s R_lam} is non-positive (the benchmark's violated_flip construction)."""
    rep = (build_superoperator(random_lindblad(n, 2, seed)).rep
           + build_superoperator(flip_nonpositive(n)).rep)
    return GeneratorSpec(kind="explicit", n=n, superop=superop.Superoperator(n, rep))


def root_rule_exp(r, s):
    """e^{s R} by hand as posgen builds it: s = m 2^k with m in [1/2, 1) (m = s,
    k = 0 for s < 1/2), and mat_exp(m R) squared k times."""
    m, k = math.frexp(s) if s >= 0.5 else (s, 0)
    out = mat_exp(m * r)
    for _ in range(k):
        out = out @ out
    return out


def forced_split(c):
    """A stand-in for ``semigroup.mirror_split`` that returns c on every generator.

    Its margin is f(c) computed at c: the least eigenvalue of the hermitian
    part of Choi(unit (L - c tau)) on the complement of Omega.
    """
    def split(gen):
        n = gen.n
        rep = superop._scaled(gen.rep - c * superop.transpose_map(n).rep,
                              -superop._unit_exponent(gen.rep))
        choi = superop.choi_matrix(superop.Superoperator(n, rep))
        v = _complement_of_omega(n)
        return c, float(np.linalg.eigvalsh(v.T @ ((choi + choi.conj().T) / 2) @ v)[0])

    return split


@pytest.fixture
def cone_searches(monkeypatch):
    """The number of maps of each positivity_checks call the criteria make."""
    searched = []
    search = criteria.positivity_checks

    def count(maps, seeds, tol, groups, generator_certified):
        maps = list(maps)
        searched.append(len(maps))
        return search(maps, seeds, tol, groups, generator_certified)

    monkeypatch.setattr(criteria, "positivity_checks", count)
    return searched


def spectral_ratios(s_out, s_in):
    """||S(x)|| / ||x|| of a batch from its spectral norms; 0 for a negligible x."""
    ok = s_in > 1e-12 * max(1.0, float(s_in.max(initial=0.0)))
    return np.where(ok, s_out / np.where(ok, s_in, 1.0), 0.0)


def full_contraction_search(s, seed=0, tol=1e-9, cone=None):
    """Reference: the contraction search with no stop.

    Scores the unit, 64 seeded Gaussians and the rep's top singular
    directions, then the cone witness's unitary 1 - 2vv* whatever the
    sampled bound, and tests the Russo-Dye certificate.  ``cone`` is the
    map's cone verdict, by default its own ``positivity_check(s, seed,
    tol)``.  Returns the largest sampled ratio and the verdict, whose bound
    is the largest ratio of all.
    """
    n = s.n
    cone = superop.positivity_check(s, seed, tol) if cone is None else cone
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
    gauss = rng.standard_normal((64, n, n)) + 1j * rng.standard_normal((64, n, n))
    _, _, vh = np.linalg.svd(s.rep)
    tops = vh[: min(3, len(vh))].conj().reshape(-1, n, n).swapaxes(1, 2)
    xs = np.concatenate(
        [np.eye(n, dtype=complex)[None], gauss, tops, (tops + tops.conj().transpose(0, 2, 1)) / 2]
    )

    def norms(x):
        return np.linalg.svd(x, compute_uv=False)[:, 0]

    sampled = bound = float(np.max(spectral_ratios(norms(superop.apply_stack(s.rep.T, xs)),
                                                   norms(xs))))
    if cone.witness is not None:
        x = np.eye(n) - 2 * np.outer(cone.witness, cone.witness.conj())
        bound = max(bound, float(np.max(spectral_ratios(norms(superop.apply(s, x)[None]),
                                                        norms(x[None])))))
    if bound > 1.0 + tol:
        return sampled, superop.ContractionVerdict("violated", bound)
    if (
        cone.status == "certified_positive"
        and superop.is_symmetric_map(s, tol).verdict
        and superop.is_unital(s, tol).verdict
    ):
        return sampled, superop.ContractionVerdict("certified_contraction", bound)
    return sampled, superop.ContractionVerdict("no_violation_found", bound)


# Reference: the resolvent as a Laplace transform, an independent route to
# (lam - L)^{-1} that the tests compare against the algebraic one.  The
# integral uses a fixed composite Gauss-Legendre rule, truncated where the
# tail bound drops below _TRUNCATION_EPS.
_QUAD_PANELS = 64
_QUAD_ORDER = 8
_TRUNCATION_EPS = 1e-10


class DecayFailureError(ValueError):
    """Laplace-transform quadrature requested where the integrand does not decay."""


def _quad_nodes(t_star):
    x, w = np.polynomial.legendre.leggauss(_QUAD_ORDER)
    edges = np.linspace(0.0, t_star, _QUAD_PANELS + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).reshape(-1)
    weights = (half[:, None] * w[None, :]).reshape(-1)
    return nodes, weights


def decay_horizon(h, lam):
    """Truncation horizon for Laplace-transform integrals against the handle's e^{tL}.

    Chosen so the tail bound e^{(abscissa - lam) T} / (lam - abscissa) drops
    below 1e-10 (at least 1e-2); raises DecayFailureError when the integrand
    does not decay at all.
    """
    gap = lam - h.spectral_abscissa
    if gap <= _POLE_GAP:
        raise DecayFailureError(
            f"Laplace integrand does not decay at lam={lam:g} "
            f"(spectral abscissa {h.spectral_abscissa:g})"
        )
    return max(-math.log(_TRUNCATION_EPS * gap) / gap, 1e-2)


def laplace_resolvent(h, lam):
    """The handle's resolvent via the Laplace transform: integral of e^{-lam t} T_t dt.

    The integral is truncated at :func:`decay_horizon`, then evaluated by a
    fixed composite Gauss-Legendre rule: 64 panels of order 8.
    """
    t_star = decay_horizon(h, lam)
    nodes, weights = _quad_nodes(t_star)
    mats = h.evolve_rep(nodes)
    coeff = weights * np.exp(-lam * nodes)
    rep = np.einsum("t,tij->ij", coeff, mats)
    return superop.Superoperator(h.n, rep)
