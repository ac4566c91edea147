"""Spectral toolkit on the horizontal torus.

All interface quantities live on the doubly periodic square [0, 2pi)^2
sampled on a uniform n1 x n2 grid.  Fields are real.  Every horizontal
operator acts in the real orthonormal Fourier basis Q1 (x) Q2 of
_fourier_basis: the coefficients of g are c = Q1^T g Q2 (_to_basis,
inverted by _from_basis), so Parseval reads int |g|^2 dx = h1 h2 sum c^2,
a radial multiplier (a function of |k|^2) is one diagonal scaling of c,
and d/dx is the real matrix D.

Conventions
-----------
* Wavenumbers are integers, one per basis column; |k|^2 (_ksq) keeps the
  true Nyquist value (n/2)^2.
* D zeroes the Nyquist column, which keeps real fields real and D
  exactly antisymmetric.
* The dealiased product keeps modes with |k1| <= n1//3 and |k2| <= n2//3
  (the 2/3 rule).  It multiplies the factors sampled on 2n1 x 2n2 points,
  where the surviving coefficients are exact, reading each Nyquist
  column as cos(n x / 2).
* Products along axis 1 take their matrix in column-major order, which
  rounds every output column alike (geometry's x2 rule relies on it).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import GridMismatch

__all__ = [
    "horizontal_derivative",
    "bessel_multiplier",
    "mollify",
    "sobolev_norm",
    "dealiased_product",
]


@lru_cache(maxsize=32)
def _fourier_basis(n: int):
    """Real orthonormal Fourier basis Q on n samples and the wavenumber of
    each column, both read-only.

    Columns: the constant, cos/sin pairs for k = 1 .. n/2 - 1, then the
    Nyquist mode k = n/2.  The third entry is Q in column-major order.
    """
    k = np.arange(1, n // 2)
    # 2 pi j k / n with j k reduced mod n, so each phase is one rounding
    phase = 2.0 * np.pi * (np.outer(np.arange(n), k) % n) / n
    q = np.empty((n, n))
    q[:, 0] = 1.0 / np.sqrt(n)
    q[:, 1:-1:2] = np.sqrt(2.0 / n) * np.cos(phase)
    q[:, 2:-1:2] = np.sqrt(2.0 / n) * np.sin(phase)
    q[:, -1] = (-1.0) ** np.arange(n) / np.sqrt(n)
    kcol = np.zeros(n)
    kcol[1:-1:2] = kcol[2:-1:2] = k
    kcol[-1] = n // 2
    qf = np.asfortranarray(q)
    for a in (q, kcol, qf):
        a.flags.writeable = False
    return q, kcol, qf


@lru_cache(maxsize=32)
def _ksq(n1: int, n2: int) -> np.ndarray:
    """Read-only |k|^2 of each (Q1 column, Q2 column) pair, with the true
    Nyquist value."""
    ksq = _fourier_basis(n1)[1][:, None] ** 2 + _fourier_basis(n2)[1] ** 2
    ksq.flags.writeable = False
    return ksq


@lru_cache(maxsize=32)
def _deriv_matrix(n: int) -> np.ndarray:
    """Read-only real n x n matrix of d/dx on n samples (Nyquist zeroed):
    0.5 (-1)^m cot(m pi / n) for the offset m = i - j taken in
    (-n/2, n/2], made exactly antisymmetric (which zeroes m = n/2)."""
    j = np.arange(n)
    m = (np.subtract.outer(j, j) + n // 2 - 1) % n - (n // 2 - 1)
    t = np.tan(np.pi * m / n)
    t[m == 0] = np.inf
    d = 0.5 * (-1.0) ** m / t
    d = 0.5 * (d - d.T)
    d.flags.writeable = False
    return d


def _to_basis(g: np.ndarray, n2: int, work=None) -> np.ndarray:
    """Coefficients Q1^T g Q2 of an (n1, n2, ...) array, axis 2 first.

    Along each axis the first row is subtracted and its exact image
    sqrt(n) e_0 added back, so data constant along an axis have exactly
    zero coefficients off its constant column; along axis 2 they may be
    given by their (n1, 1, ...) column (geometry's x2 rule).  work: None,
    or C-contiguous (result, scratch) arrays of a 3-d g's shape to write to.
    """
    n1, m = g.shape[:2]
    t = g.reshape(n1, m, -1)
    a, s = work or (None, None)
    if m < n2:
        a = np.multiply(np.sqrt(n2), t, out=a)
    else:
        a = np.matmul(_fourier_basis(n2)[0].T, np.subtract(t, t[:, :1], out=s), out=a)
        a[:, 0] += np.sqrt(n2) * t[:, 0]
    c0 = np.sqrt(n1) * a[0]
    np.matmul(_fourier_basis(n1)[0].T, np.subtract(a, a[:1], out=s).reshape(n1, -1),
              out=a.reshape(n1, -1))
    a[0] += c0
    return a.reshape(g.shape)


def _from_basis(c: np.ndarray, n2: int, work=None) -> np.ndarray:
    """Inverse of _to_basis, axis 2 last: coefficients that vanish off the
    constant column of Q2 give a field exactly constant along axis 2;
    work as in _to_basis."""
    n1, m = c.shape[:2]
    q1, q2 = _fourier_basis(n1)[2], _fourier_basis(n2)[0][:m, :m]
    out, a = work or (None, None)
    a = np.matmul(q1, c.reshape(n1, -1), out=None if a is None else a.reshape(n1, -1))
    return np.matmul(q2, a.reshape(n1, m, -1), out=out).reshape(c.shape)


def _apply_symbol(g: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Radial multiplier given per basis column (an (n1, n2) array, such as
    a function of _ksq) applied to a plane field."""
    return _from_basis(_to_basis(g, g.shape[1]) * symbol, g.shape[1])


def _derivative(w: np.ndarray, axis: int, work=None) -> np.ndarray:
    """d/dx_axis (axis 1 or 2) of (..., n1, n2, m) arrays: D along axis -3
    or -2 after the first row along it is subtracted, so a field constant
    along that axis differentiates to exactly 0; work: None, or
    C-contiguous (scratch, result) arrays of w's shape."""
    t, out = work or (None, None)
    if axis == 2:
        return np.matmul(_deriv_matrix(w.shape[-2]),
                         np.subtract(w, w[..., :1, :], out=t), out=out)
    flat = w.shape[:-2] + (-1,)  # D^T column-major: D^T (-t) = D t
    t = np.subtract(w[..., :1, :, :], w, out=t).reshape(flat)
    return np.matmul(_deriv_matrix(w.shape[-3]).T, t,
                     out=None if out is None else out.reshape(flat)).reshape(w.shape)


@lru_cache(maxsize=32)
def _dealias_matrices(n: int):
    """Read-only (E, R) of the 2/3-rule product along one axis of n samples.

    E (2n x n) samples the interpolant on 2n points, the Nyquist column
    read as cos(n x / 2); R (n x 2n) keeps the modes |k| <= n//3 of 2n
    samples and resamples them on n points.
    """
    q, q2 = _fourier_basis(n)[0], _fourier_basis(2 * n)[0]
    # Q_2n's first n columns are Q_n's modes, each sqrt(2) smaller but for
    # the Nyquist column, which is the cosine column of k = n/2 there
    scale = np.full(n, np.sqrt(2.0))
    scale[-1] = 1.0
    e = (q2[:, :n] * scale) @ q.T
    keep = 2 * (n // 3) + 1
    r = np.sqrt(0.5) * (q[:, :keep] @ q2[:, :keep].T)
    for a in (e, r):
        a.flags.writeable = False
    return e, r


def _as_plane(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        raise ValueError("expected a 2d horizontal field")
    return g


def horizontal_derivative(g: np.ndarray, axis: int) -> np.ndarray:
    """Spectral d/dx_axis of a periodic field, axis in {1, 2}."""
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    return _derivative(_as_plane(g)[..., None], axis)[..., 0]


def bessel_multiplier(g: np.ndarray, s: float) -> np.ndarray:
    """Apply (1 + |k|^2)^(s/2) mode by mode (the <grad'>^s smoother)."""
    g = _as_plane(g)
    return _apply_symbol(g, (1.0 + _ksq(*g.shape)) ** (0.5 * s))


def mollify(g: np.ndarray, eps: float) -> np.ndarray:
    """Gaussian mollification with symbol exp(-eps |k|^2 / 4).

    eps = 0 is the identity; the horizontal mean is preserved exactly for
    every eps because the symbol is 1 at k = 0.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    g = _as_plane(g)
    if eps == 0.0:
        return g.copy()
    return _apply_symbol(g, np.exp(-0.25 * eps * _ksq(*g.shape)))


def sobolev_norm(g: np.ndarray, s: float) -> float:
    """H^s(T^2) norm via Parseval in the real basis.

    Parameters
    ----------
    g : array (n1, n2)
        Real samples on the uniform torus grid.
    s : float
        Smoothness index; s = 0 gives the L^2 norm.
    """
    g = _as_plane(g)
    n1, n2 = g.shape
    total = np.sum((1.0 + _ksq(n1, n2)) ** s * _to_basis(g, n2) ** 2)
    return float(2.0 * np.pi * np.sqrt(total / (n1 * n2)))


def dealiased_product(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Pointwise product with 2/3-rule dealiasing.

    The factors are sampled on the doubled grid, where a product of two
    modes up to n/2 aliases only onto |k| >= n, so the coefficients that
    survive the truncation are exact convolution values.
    """
    g = _as_plane(g)
    h = _as_plane(h)
    if g.shape != h.shape:
        raise GridMismatch(f"shapes {g.shape} vs {h.shape}")
    e1, r1 = _dealias_matrices(g.shape[0])
    e2, r2 = _dealias_matrices(g.shape[1])
    return r1 @ ((e1 @ g @ e2.T) * (e1 @ h @ e2.T)) @ r2.T
