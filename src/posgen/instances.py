"""Named and seeded-random generator families.

Every theorem in the toolkit distinguishes regimes -- completely positive,
positive-but-not-CP, automorphism, non-positive -- and each regime gets a
constructor here.  Randomness is always an explicit seed routed through
numpy SeedSequence substreams, so identical recipes rebuild bit-identical
generators regardless of call order or thread count.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .config import _is_finite, _is_real
from .errors import SchemaError
from .matrixcore import frozen, json_dimension, json_object, spectral_norm
from .semigroup import GeneratorSpec, build_superoperator
from .superop import Superoperator, compose, transpose_map

# substream tags keep the random_* constructors independent at equal seeds
_TAG_HERMITIAN = 1
_TAG_LINDBLAD = 4


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), tag)))


def _ginibre(rng: np.random.Generator, n: int, k: int | None = None) -> np.ndarray:
    """One complex Ginibre matrix, or a (k, n, n) stack of them.

    Each matrix draws its real block, then its imaginary block, so a stack
    holds the matrices that k single draws would give, in order.
    """
    x = rng.standard_normal((2, n, n) if k is None else (k, 2, n, n))
    return (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / np.sqrt(2)


def lindblad(h, vs) -> GeneratorSpec:
    """Generator in Lindblad form from a Hamiltonian and dissipator list."""
    h = np.asarray(h, dtype=complex)
    return GeneratorSpec(
        kind="lindblad",
        n=h.shape[0],
        hamiltonian=h,
        dissipators=tuple(np.asarray(v, dtype=complex) for v in vs),
    )


def dephasing(n: int = 2) -> GeneratorSpec:
    """Diagonal-preserving decoherence: V = clock matrix diag(w^j), w = e^{2pi i/n}.

    The off-diagonal matrix units decay while the diagonal stays fixed; at
    n = 2 the dissipator is sigma_z.
    """
    if n < 2:
        raise ValueError("dephasing needs n >= 2")
    omega = np.exp(2j * np.pi / n)
    z = np.diag(omega ** np.arange(n))
    if n == 2:
        z = z.real.astype(complex)  # exactly sigma_z, no 1e-16 imaginary dust
    return lindblad(np.zeros((n, n)), [z])


def transpose_conjugated(spec: GeneratorSpec) -> GeneratorSpec:
    """L'(x) = transpose(L(transpose(x))).

    The induced semigroup is transpose o T_t o transpose, which inherits
    positivity, unitality, and contractivity from T_t.  Note that it also
    inherits complete positivity: the Choi matrix of tau o Phi o tau is the
    transpose of the Choi matrix of Phi (same spectrum), so this conjugation
    can never leave the CP class.  Use `transpose_mixing` for genuinely
    positive-but-not-CP semigroups.
    """
    if spec.kind != "lindblad":
        raise ValueError("transpose conjugation expects a lindblad-form input")
    s = build_superoperator(spec)
    tau = transpose_map(spec.n)
    return GeneratorSpec(
        kind="explicit", n=spec.n, superop=compose(compose(tau, s), tau)
    )


def transpose_mixing(spec: GeneratorSpec) -> GeneratorSpec:
    """L'(x) = L(x) + transpose(x) - x.

    Both terms generate positive unital semigroups (the second one evolves as
    a(t)*id + b(t)*transpose with a + b = 1, a convex mixture), so by the
    Trotter product formula e^{tL'} is a limit of products of positive unital
    contractions: positive, unital, and norm exactly one.  It is NOT
    completely positive for t > 0, because the transpose component puts a
    -b(t) eigenvalue on the antisymmetric subspace of the Choi matrix.  This
    is the working source of positive-but-not-CP contraction semigroups.
    """
    if spec.kind != "lindblad":
        raise ValueError("transpose mixing expects a lindblad-form input")
    s = build_superoperator(spec)
    tau = transpose_map(spec.n)
    d = s.n * s.n
    rep = s.rep + (tau.rep - np.eye(d, dtype=complex))
    return GeneratorSpec(kind="explicit", n=spec.n, superop=Superoperator(spec.n, rep))


def flip_nonpositive(n: int = 2, scale: float = 1.0) -> GeneratorSpec:
    """L(x) = scale * (x - JxJ) with J the exchange permutation.

    Symmetric, kills the unit, and the induced (unital!) semigroup is not
    positive: at n = 2, e^{tL} sends diag(1, 0) to a matrix with eigenvalue
    -e^{st} sinh(st) < 0 (s = scale).  The operator norm grows like e^{2st},
    so the contraction hypotheses fail too -- the standard negative control.
    """
    if n < 2:
        raise ValueError("flip needs n >= 2")
    j = np.fliplr(np.eye(n)).astype(complex)
    rep = scale * (np.eye(n * n, dtype=complex) - np.kron(j, j))
    return GeneratorSpec(kind="explicit", n=n, superop=Superoperator(n, rep))


def hermitian_from(
    rng: np.random.Generator, n: int, scale: float = 1.0, k: int | None = None
) -> np.ndarray:
    """A Gaussian Hermitian matrix, or a (k, n, n) stack of them."""
    g = _ginibre(rng, n, k)
    return frozen(scale * (g + g.conj().swapaxes(-1, -2)) / 2)


def unitary_from(rng: np.random.Generator, n: int, k: int | None = None) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix, R-diagonal phase fix.

    With ``k`` the result is a (k, n, n) stack; LAPACK factors each matrix
    alone, so a stack equals k single draws.
    """
    g = _ginibre(rng, n, k)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return frozen(q * (d / np.abs(d))[..., None, :])


def density_from(rng: np.random.Generator, n: int, k: int | None = None) -> np.ndarray:
    """A random density matrix g g* / tr(g g*), or a (k, n, n) stack of them."""
    g = _ginibre(rng, n, k)
    rho = g @ g.conj().swapaxes(-1, -2)
    return frozen(rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None])


def random_hermitian(n: int, seed: int, scale: float = 1.0) -> np.ndarray:
    return hermitian_from(_rng(seed, _TAG_HERMITIAN), n, scale)


def random_lindblad(n: int, k: int, seed: int, scale: float = 4.0) -> GeneratorSpec:
    """Random Lindblad generator rescaled so the map norm stays <= scale.

    The rescaling keeps the Lindblad form: H -> cH and V -> sqrt(c) V scale
    the whole generator by c.
    """
    if k < 0:
        raise ValueError("need k >= 0 dissipators")
    rng = _rng(seed, _TAG_LINDBLAD)
    g = _ginibre(rng, n)
    h = (g + g.conj().T) / 2
    vs = [_ginibre(rng, n) / np.sqrt(n) for _ in range(k)]
    raw = build_superoperator(lindblad(h, vs))
    norm = spectral_norm(raw.rep)
    if norm > scale:
        c = scale / norm
        h = c * h
        vs = [np.sqrt(c) * v for v in vs]
    return lindblad(h, vs)


def _recipe_lindblad(r) -> GeneratorSpec:
    return random_lindblad(r.n, r.k, r.seed, r.scale)


# Each family's least n and how a recipe builds its spec.
_FAMILIES = {
    "lindblad": (1, _recipe_lindblad),
    "hamiltonian": (1, lambda r: GeneratorSpec(
        kind="hamiltonian", n=r.n, hamiltonian=random_hermitian(r.n, r.seed, r.scale))),
    "dephasing": (2, lambda r: dephasing(r.n)),
    "transpose_conjugated": (1, lambda r: transpose_conjugated(_recipe_lindblad(r))),
    "transpose_mixing": (1, lambda r: transpose_mixing(_recipe_lindblad(r))),
    "flip_nonpositive": (2, lambda r: flip_nonpositive(r.n, r.scale)),
}
FAMILIES = tuple(_FAMILIES)


@dataclass(frozen=True)
class InstanceRecipe:
    """A reproducible pointer to one generator: family + dimension + seed."""

    family: str
    n: int
    seed: int = 0
    k: int = 1
    scale: float = 4.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SchemaError(
                f"unknown family {self.family!r}; choose from {', '.join(FAMILIES)}"
            )
        json_dimension(self.n)
        least = _FAMILIES[self.family][0]
        if self.n < least:
            raise SchemaError(f"family {self.family!r} needs n >= {least}")
        for name in ("seed", "k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise SchemaError(f"field '{name}' must be an integer")
        if self.seed < 0:
            raise SchemaError(f"field 'seed' must be >= 0, got {self.seed}")
        if self.k < 0:
            raise SchemaError(f"need k >= 0 dissipators, got {self.k}")
        if not (_is_real(self.scale) and self.scale > 0 and _is_finite(self.scale)):
            raise SchemaError(f"scale must be finite and > 0, got {self.scale!r}")

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": int(self.n),
            "seed": int(self.seed),
            "k": int(self.k),
            "scale": float(self.scale),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "InstanceRecipe":
        fields = json_object(payload, "instance recipe", ("family", "n"), ("seed", "k", "scale"))
        return cls(**fields)


def build(recipe: InstanceRecipe) -> GeneratorSpec:
    """Materialize a recipe; identical recipes give bit-identical specs."""
    return _FAMILIES[recipe.family][1](recipe)
