"""Dense complex matrix arithmetic and spectral predicates.

Conventions used everywhere downstream: entrywise max-norm for equality
checks, spectral norm for operator-size estimates, and a default predicate
tolerance of 1e-9.  All predicates return margins (signed reals), never bare
booleans, so callers can report *how close* a check came to failing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SchemaError

DEFAULT_TOL = 1e-9


def as_matrix(x) -> np.ndarray:
    """Coerce ``x`` to a square complex ndarray, validating shape and finiteness."""
    a = x.a if isinstance(x, CMatrix) else np.asarray(x, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_matrix_stack(members) -> np.ndarray:
    """Stack matrices of one size into an ``(m, n, n)`` array, with ``as_matrix``'s checks."""
    a = np.asarray(members, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def max_entry(a) -> float:
    """Entrywise max-norm ``max_ij |a_ij|``."""
    return float(np.abs(a).max())


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only copy; constructed values are immutable downstream."""
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CMatrix:
    """Square complex matrix with finite entries.

    JSON form: ``{"n": int, "re": [[...]], "im": [[...]]}`` with row-major
    real and imaginary parts.
    """

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", frozen(as_matrix(self.a)))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "re": [[float(v) for v in row] for row in self.a.real],
            "im": [[float(v) for v in row] for row in self.a.imag],
        }

    @classmethod
    def from_json(cls, obj) -> "CMatrix":
        if not isinstance(obj, dict):
            raise SchemaError("matrix payload must be an object")
        extra = set(obj) - {"n", "re", "im"}
        if extra:
            raise SchemaError(f"unknown matrix field(s): {sorted(extra)}")
        for field in ("n", "re", "im"):
            if field not in obj:
                raise SchemaError(f"matrix payload missing field '{field}'")
        n = obj["n"]
        if not isinstance(n, int) or n < 1:
            raise SchemaError("field 'n' must be a positive integer")
        try:
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj["im"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"fields 're'/'im' must be numeric arrays: {exc}") from None
        if re.shape != (n, n):
            raise SchemaError(f"field 're' must have shape ({n}, {n}), got {re.shape}")
        if im.shape != (n, n):
            raise SchemaError(f"field 'im' must have shape ({n}, {n}), got {im.shape}")
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise SchemaError("matrix entries must be finite")
        return cls(re + 1j * im)


# Higham (2005), "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26: the coefficients b_0..b_13 of the
# [13/13] Pade approximant, and the 1-norm theta_13 up to which it needs no
# scaling.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _pade13(a: np.ndarray) -> np.ndarray:
    """The [13/13] Pade approximant of e^A for each matrix of a stack.

    The sums accumulate in place, so that a stack of large matrices holds few
    temporaries of its size at a time.
    """
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    odd, even = b[13] * a6, b[12] * a6
    for k, p in ((11, a4), (9, a2)):
        odd += b[k] * p
        even += b[k - 1] * p
    u, v = a6 @ odd, a6 @ even
    del odd, even
    for k, p in ((7, a6), (5, a4), (3, a2)):
        u += b[k] * p
        v += b[k - 1] * p
    del a2, a4, a6
    i = np.arange(a.shape[-1])
    u[:, i, i] += b[1]
    v[:, i, i] += b[0]
    u = a @ u
    numerator = v + u
    v -= u
    return np.linalg.solve(v, numerator)


def _exact_bands(r: np.ndarray, a: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``r`` with the exact diagonal and superdiagonal of each ``e^{scale A}``.

    Each ``A`` of the stack is upper triangular.  A superdiagonal entry of the
    exponential is ``A``'s entry times the divided difference of exp at the two
    neighbouring diagonal entries, taken in a form that does not cancel
    (Higham 2008, *Functions of Matrices*, (10.42)).
    """
    k = np.arange(a.shape[-1])
    x = a[:, k, k] * scale[:, None]
    ex = np.exp(x)
    gap = x[:, 1:] - x[:, :-1]
    far = np.abs(gap) > 1.0
    # np.sinc(i g / 2 pi) = sinh(g/2) / (g/2)
    near = np.exp((x[:, 1:] + x[:, :-1]) / 2) * np.sinc(0.5j * gap / np.pi)
    quotient = (ex[:, 1:] - ex[:, :-1]) / np.where(far, gap, 1.0)
    r[:, k, k] = ex
    sd = a[:, k[:-1], k[1:]] * scale[:, None]
    r[:, k[:-1], k[1:]] = np.where(far, quotient, near) * sd
    return r


def mat_exp(m) -> np.ndarray:
    """Matrix exponential ``e^M`` of one matrix, or of each of a ``(k, n, n)`` stack.

    Scaling and squaring with the [13/13] Pade approximant (Higham 2005): each
    matrix gets its own power-of-two scaling ``2^-s`` from its 1-norm, and its
    approximant is squared ``s`` times.  A triangular matrix gets its diagonal
    and superdiagonal rewritten exactly after every squaring (Al-Mohy and
    Higham 2009), so a stiff diagonal is not lost to the scaling.  Each matrix
    of a stack comes out bit for bit as it would alone.  An exponential beyond
    double precision comes back non-finite, for the caller to report.

    The one general exponential of the toolkit; a :class:`SemigroupHandle`
    adds only its cached eigendecomposition for diagonalizable generators.
    """
    single = np.ndim(m) != 3
    a = as_matrix(m)[None] if single else as_matrix_stack(m)
    # a lower triangular matrix is exponentiated as its transpose
    below = np.tri(a.shape[-1], k=-1, dtype=bool)
    lower = ~a[:, below.T].any(axis=1)
    if lower.any():
        a = np.where(lower[:, None, None], a.swapaxes(1, 2), a)
    upper = ~a[:, below].any(axis=1)
    frac, exponent = np.frexp(np.abs(a).sum(axis=1).max(axis=1) / _THETA13)
    s = np.maximum(exponent - (frac == 0.5), 0)  # ceil(log2(norm / theta_13))
    with np.errstate(over="ignore", invalid="ignore"):
        r = _pade13(a * np.ldexp(1.0, -s)[:, None, None])
        for j in range(int(s.max()) + 1):
            if j:
                sq = s >= j
                r[sq] = r[sq] @ r[sq]
            fix = upper & (s >= j)
            if fix.any():
                r[fix] = _exact_bands(r[fix], a[fix], np.ldexp(1.0, j - s[fix]))
    if lower.any():
        r = np.where(lower[:, None, None], r.swapaxes(1, 2), r)
    return r[0] if single else r


def psd_margins(stack: np.ndarray) -> np.ndarray:
    """Skew-penalized least eigenvalues of an ``(m, n, n)`` stack.

    Each entry is the least eigenvalue of a matrix's hermitian part, less the
    largest entry modulus of its skew part ``(a - a*) / 2``.  For a hermitian
    matrix it is >= 0 exactly when the matrix is PSD.
    """
    herm = (stack + stack.conj().swapaxes(1, 2)) / 2
    skew = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2)) / 2
    return np.linalg.eigvalsh(herm)[:, 0] - skew


def spectral_norm(m) -> float:
    """Largest singular value of ``m``."""
    return float(np.linalg.norm(as_matrix(m), 2))
