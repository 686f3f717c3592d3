"""Dense complex matrix arithmetic and spectral predicates.

Conventions used everywhere downstream: entrywise max-norm for equality
checks, spectral norm for operator-size estimates, and a default predicate
tolerance of 1e-9.  All predicates return margins (signed reals), never bare
booleans, so callers can report *how close* a check came to failing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


@dataclass(frozen=True)
class ElementFlags:
    """Result of classify_element: algebraic class membership with margins."""

    hermitian: bool
    psd: bool
    unitary: bool
    min_eig: float | None  # least eigenvalue; only meaningful when hermitian


def classify_element(x, tol: float = DEFAULT_TOL) -> ElementFlags:
    """Classify ``x`` as hermitian / positive semidefinite / unitary at ``tol``.

    Hermiticity and unitarity are entrywise max-norm checks; psd additionally
    requires the least eigenvalue to clear ``-tol``.
    """
    a = as_matrix(x)
    n = a.shape[0]
    hermitian = max_entry(a - a.conj().T) <= tol
    if hermitian:
        min_eig = float(np.linalg.eigvalsh(hermitian_part(a))[0])
        psd = min_eig >= -tol
    else:
        min_eig = None
        psd = False
    unitary = max_entry(a.conj().T @ a - np.eye(n)) <= tol
    return ElementFlags(hermitian=hermitian, psd=psd, unitary=unitary, min_eig=min_eig)


def mat_exp(m) -> np.ndarray:
    """Matrix exponential ``e^M`` by scaling and squaring with a Pade approximant.

    The one general exponential of the toolkit; a :class:`SemigroupHandle`
    adds only its cached eigendecomposition for diagonalizable generators.
    """
    return scipy.linalg.expm(as_matrix(m))


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
