"""Named and seeded-random generator families.

Every theorem in the toolkit distinguishes regimes -- completely positive,
positive-but-not-CP, automorphism, non-positive -- and each regime gets a
constructor here.  Randomness is always an explicit seed routed through
numpy SeedSequence substreams, so identical recipes rebuild bit-identical
generators regardless of call order or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .matrixcore import frozen, spectral_norm
from .semigroup import GeneratorSpec, build_superoperator
from .superop import Superoperator, compose, transpose_map

FAMILIES = (
    "lindblad",
    "hamiltonian",
    "dephasing",
    "transpose_conjugated",
    "transpose_mixing",
    "flip_nonpositive",
)

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


def transpose_mixing(spec: GeneratorSpec, weight: float = 1.0) -> GeneratorSpec:
    """L'(x) = L(x) + weight * (transpose(x) - x).

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
    if weight <= 0:
        raise ValueError("mixing weight must be positive")
    s = build_superoperator(spec)
    tau = transpose_map(spec.n)
    d = s.n * s.n
    rep = s.rep + weight * (tau.rep - np.eye(d, dtype=complex))
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
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.n < 1:
            raise SchemaError("instance dimension must be >= 1")
        if self.n < 2 and self.family in ("dephasing", "flip_nonpositive"):
            raise SchemaError(f"family {self.family!r} needs n >= 2")
        if self.k < 0:
            raise SchemaError(f"need k >= 0 dissipators, got {self.k}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise SchemaError(f"scale must be finite and > 0, got {self.scale}")

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
        if not isinstance(payload, dict):
            raise SchemaError("instance recipe payload must be an object")
        required = {"family", "n"}
        allowed = required | {"seed", "k", "scale"}
        missing = required - payload.keys()
        unknown = payload.keys() - allowed
        if missing:
            raise SchemaError(f"instance recipe missing fields: {sorted(missing)}")
        if unknown:
            raise SchemaError(f"instance recipe has unknown fields: {sorted(unknown)}")
        return cls(
            family=payload["family"],
            n=int(payload["n"]),
            seed=int(payload.get("seed", 0)),
            k=int(payload.get("k", 1)),
            scale=float(payload.get("scale", 4.0)),
        )


def build(recipe: InstanceRecipe) -> GeneratorSpec:
    """Materialize a recipe; identical recipes give bit-identical specs."""
    if recipe.family == "lindblad":
        return random_lindblad(recipe.n, recipe.k, recipe.seed, recipe.scale)
    if recipe.family == "hamiltonian":
        return GeneratorSpec(
            kind="hamiltonian",
            n=recipe.n,
            hamiltonian=random_hermitian(recipe.n, recipe.seed, recipe.scale),
        )
    if recipe.family == "dephasing":
        return dephasing(recipe.n)
    if recipe.family == "transpose_conjugated":
        return transpose_conjugated(
            random_lindblad(recipe.n, recipe.k, recipe.seed, recipe.scale)
        )
    if recipe.family == "transpose_mixing":
        return transpose_mixing(
            random_lindblad(recipe.n, recipe.k, recipe.seed, recipe.scale)
        )
    if recipe.family == "flip_nonpositive":
        return flip_nonpositive(recipe.n, recipe.scale)
    raise SchemaError(f"unknown family {recipe.family!r}")
