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


def json_dimension(n) -> int:
    """Field 'n' of a JSON payload: a positive integer, and not a JSON boolean."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SchemaError("field 'n' must be a positive integer")
    return n


def json_object(obj, what: str, required, optional=()) -> dict:
    """A JSON payload that must be an object with every ``required`` field and
    no field outside ``required`` and ``optional``.

    One SchemaError names every missing and every unknown field.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} payload must be an object")
    missing = sorted(set(required) - obj.keys())
    unknown = sorted(obj.keys() - set(required) - set(optional))
    parts = [f"{label} field(s) {names}"
             for label, names in (("missing", missing), ("unknown", unknown)) if names]
    if parts:
        raise SchemaError(f"{what} payload: " + ", ".join(parts))
    return obj


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
    try:
        a = np.asarray(members, dtype=complex)
    except ValueError:
        shapes = []
        for i, m in enumerate(members):
            try:
                shapes.append(np.shape(m))
            except ValueError:
                raise DimensionMismatch(
                    f"expected matrices of one size, member {i} is ragged") from None
        shapes = list(dict.fromkeys(shapes))
        if len(shapes) < 2:
            raise
        raise DimensionMismatch(f"expected matrices of one size, got shapes {shapes}") from None
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def max_entry(a) -> float:
    """Entrywise max-norm ``max_ij |a_ij|``."""
    return float(np.abs(a).max())


def hermitian_split(a: np.ndarray):
    """The hermitian part a/2 + (a/2)* of a matrix or of each of a (..., n, n) stack, and
    max|a/2 - (a/2)*| per matrix, the largest entry modulus of its skew part.  Halving
    first keeps both finite wherever |a| is; without subnormal entries they equal
    (a + a*)/2 and max|a - a*|/2 bit for bit.  The one place posgen forms either.
    """
    h = a / 2
    hh = h.conj().swapaxes(-1, -2)
    skew = np.abs(h - hh).max(axis=(-2, -1))
    h += hh  # in place, once the skew is read: one stack-sized copy fewer at peak
    return h, skew


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
        json_object(obj, "matrix", ("n", "re", "im"))
        n = json_dimension(obj["n"])
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
    u = a6 @ odd
    del odd
    v = a6 @ even
    del even
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
    double precision comes back non-finite, for the caller to report.  The
    one general exponential of the toolkit.
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
        for j in range(int(s.max(initial=0)) + 1):
            if j:
                sq = s >= j
                r[sq] = r[sq] @ r[sq]
            fix = upper & (s >= j)
            if fix.any():
                r[fix] = _exact_bands(r[fix], a[fix], np.ldexp(1.0, j - s[fix]))
    if lower.any():
        r = np.where(lower[:, None, None], r.swapaxes(1, 2), r)
    return r[0] if single else r


def rounding_slack(n: int) -> float:
    """Rounding slack, per unit of scale, of the spectral values computed on M(n).

    posgen's eigenvalues come from matrices of size at most n^2: images and
    probes are n x n, Choi matrices and unit-scale maps n^2 x n^2 with norm
    below n^2 (the generator split's c stays below 3 n^2).  The backward
    errors of LAPACK's hermitian eigensolvers and of a Cholesky
    factorization (Higham 2002, Thm 10.3) stay far below n^4 2^-44 times
    the scale of their input.
    """
    return n**4 * 2.0**-44


def _cholesky_completes(a: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Whether the Cholesky factorization of each ``A - shift I`` runs to completion.

    ``a`` is an (n, n, ...) stack with the stack axes last, so that each
    column step is one outer-product update of every trailing block, and
    ``shift`` holds one real per matrix.  Overwrites ``a``.  A non-finite
    entry reaches a pivot, which then fails; call it with floating-point
    warnings off.
    """
    done = np.ones(a.shape[2:], dtype=bool)
    k = np.arange(len(a))
    a[k, k] -= shift
    for k in range(len(a)):
        pivot = a[k, k].real
        done &= pivot > 0
        col = a[k + 1:, k] / np.sqrt(pivot)
        a[k + 1:, k + 1:] -= col[:, None] * col.conj()[None, :]
    return done


def screened_least_eigvals(herm: np.ndarray, penalty: np.ndarray) -> np.ndarray:
    """``eigvalsh(herm)[..., 0] - penalty``, solved only where a value can hold its row's minimum.

    ``herm`` is a (..., b, n, n) stack of hermitian matrices and ``penalty``
    its (..., b) nonnegative penalties; a row is the b values along the last
    batch axis.  Each entry is the exact value, bit for bit, or +inf where
    the exact value lies above its row's minimum.  So each row's minimum
    and first argmin, and every finite entry, are those of one full
    ``eigvalsh`` call.

    The screen: the least diagonal bound ``min_k H_kk - s`` of a row picks
    one matrix, whose exact value mu bounds the row's minimum from above.
    Every matrix H, penalty s, gets one stacked Cholesky pass on
    ``H - (mu + s + delta) I``; delta = rounding_slack(n) (max|H| + |mu| + s)
    covers the factorization's backward error (Higham 2002, Thm 10.3) and
    ``eigvalsh``'s.  A factorization that completes proves the value above
    mu, so the matrix neither holds nor ties the minimum and gets +inf.
    Only the rest are eigensolved, and ``eigvalsh`` gives each matrix of a
    stack the values it gives that matrix alone.  A non-finite matrix, and
    every matrix of a row whose mu is not finite, is eigensolved.
    """
    *lead, b, n, _ = herm.shape
    herm = herm.reshape(-1, b, n, n)
    penalty = penalty.reshape(-1, b)
    values = np.full(penalty.shape, np.inf)
    if not b:
        return values.reshape(*lead, b)
    # with the stack axes last, each pass runs over whole slabs of the stack
    a = np.moveaxis(herm, (-2, -1), (0, 1)).copy()
    k = np.arange(n)
    size = np.abs(a).max(axis=(0, 1))
    finite = np.isfinite(size) & np.isfinite(penalty)
    top = np.argmin(np.where(finite, a[k, k].real.min(axis=0) - penalty, np.inf), axis=-1)
    rows = np.flatnonzero(finite[np.arange(len(top)), top])
    top = top[rows]
    mu = np.full((len(herm), 1), np.nan)
    mu[rows, 0] = values[rows, top] = np.linalg.eigvalsh(herm[rows, top])[:, 0] - penalty[rows, top]
    with np.errstate(all="ignore"):
        shift = mu + penalty + rounding_slack(n) * (size + np.abs(mu) + penalty)
        settled = finite & np.isfinite(mu) & _cholesky_completes(a, shift)
    # the rest, less the matrices mu came from, are eigensolved
    settled[rows, top] = True
    values[~settled] = np.linalg.eigvalsh(herm[~settled])[:, 0] - penalty[~settled]
    return values.reshape(*lead, b)


def psd_margins(stack: np.ndarray) -> np.ndarray:
    """Skew-penalized least eigenvalues of a ``(..., b, n, n)`` stack, screened row by row.

    Each entry is the least eigenvalue of a matrix's hermitian part, less the
    largest entry modulus of its skew part ``(a - a*) / 2``.  For a hermitian
    matrix it is >= 0 exactly when the matrix is PSD.  Each row of b
    matrices along the last batch axis is screened on its own by
    :func:`screened_least_eigvals`, and an ``(m, n, n)`` stack is one row:
    each row's minimum and first argmin, and every finite entry, are exact,
    and an entry that lies above its row's minimum may be +inf instead.
    """
    return screened_least_eigvals(*hermitian_split(stack))


def spectral_norm(m) -> float:
    """Largest singular value of ``m``."""
    return float(np.linalg.norm(as_matrix(m), 2))
