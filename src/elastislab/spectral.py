"""Spectral toolkit on the horizontal torus.

All interface quantities live on the doubly periodic square [0, 2pi)^2
sampled on a uniform n1 x n2 grid.  Fields are real; transforms use the
half-complex rfft2 layout.  Coefficients follow the normalization
ghat_k = (1/(n1*n2)) * sum_x g(x) exp(-i k.x), so Parseval reads
int |g|^2 dx = (2pi)^2 * sum_k |ghat_k|^2.

Conventions
-----------
* Wavenumbers are integers; the Nyquist column is zeroed by derivative
  multipliers to keep real fields real and the derivative matrix exactly
  antisymmetric.
* The dealiased product keeps modes with |k1| <= n1//3 and |k2| <= n2//3
  (the 2/3 rule) and computes the surviving coefficients exactly via
  padded transforms.
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
    "field_mean",
    "remove_mean",
]


@lru_cache(maxsize=32)
def wavenumbers(n1: int, n2: int):
    """Integer wavenumber arrays (k1, k2) broadcast to the rfft2 shape."""
    k1 = np.fft.fftfreq(n1, d=1.0 / n1)[:, None]
    k2 = np.fft.rfftfreq(n2, d=1.0 / n2)[None, :]
    return k1, k2


@lru_cache(maxsize=32)
def _ksq(n1: int, n2: int):
    k1, k2 = wavenumbers(n1, n2)
    return k1 * k1 + k2 * k2


@lru_cache(maxsize=32)
def _deriv_factors(n1: int, n2: int):
    """(i k1, i k2) rfft2 multipliers with the Nyquist rows/columns zeroed."""
    k1, k2 = wavenumbers(n1, n2)
    f1 = 1j * np.broadcast_to(k1, (n1, n2 // 2 + 1)).copy()
    f2 = 1j * np.broadcast_to(k2, (n1, n2 // 2 + 1)).copy()
    if n1 % 2 == 0:
        f1[n1 // 2, :] = 0.0
    if n2 % 2 == 0:
        f2[:, n2 // 2] = 0.0
    return f1, f2


@lru_cache(maxsize=32)
def _deriv_matrix(n: int) -> np.ndarray:
    """Read-only real n x n matrix of d/dx on n samples (Nyquist zeroed),
    made exactly antisymmetric."""
    d = horizontal_derivative(np.eye(n), 1)
    d = 0.5 * (d - d.T)
    d.flags.writeable = False
    return d


@lru_cache(maxsize=32)
def _fourier_basis(n: int):
    """Real orthonormal Fourier basis Q on n samples and the eigenvalue
    of D^T D (D = _deriv_matrix(n)) on each column, both read-only.

    Columns: the constant, cos/sin pairs for k = 1 .. n/2 - 1 (eigenvalue
    k^2), then the Nyquist mode (eigenvalue 0, as D zeroes it).
    """
    x = 2.0 * np.pi * np.arange(n) / n
    k = np.arange(1, n // 2)
    q = np.empty((n, n))
    q[:, 0] = 1.0 / np.sqrt(n)
    q[:, 1:-1:2] = np.sqrt(2.0 / n) * np.cos(np.outer(x, k))
    q[:, 2:-1:2] = np.sqrt(2.0 / n) * np.sin(np.outer(x, k))
    q[:, -1] = (-1.0) ** np.arange(n) / np.sqrt(n)
    lam = np.zeros(n)
    lam[1:-1:2] = lam[2:-1:2] = k * k
    for a in (q, lam):
        a.flags.writeable = False
    return q, lam


@lru_cache(maxsize=32)
def _parseval_weight(n1: int, n2: int):
    """Multiplicity of each rfft2 column under conjugate symmetry."""
    w = np.full(n2 // 2 + 1, 2.0)
    w[0] = 1.0
    if n2 % 2 == 0:
        w[-1] = 1.0
    return w[None, :]


@lru_cache(maxsize=32)
def dealias_mask(n1: int, n2: int):
    """Boolean keep-mask for the 2/3 rule in the rfft2 layout."""
    k1, k2 = wavenumbers(n1, n2)
    return (np.abs(k1) <= n1 // 3) & (np.abs(k2) <= n2 // 3)


def _as_plane(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        raise ValueError("expected a 2d horizontal field")
    return g


def to_coeffs(g: np.ndarray) -> np.ndarray:
    """Forward transform with the 1/(n1*n2) normalization."""
    g = _as_plane(g)
    return np.fft.rfft2(g) / (g.shape[0] * g.shape[1])


def horizontal_derivative(g: np.ndarray, axis: int) -> np.ndarray:
    """Spectral d/dx_axis of a periodic field, axis in {1, 2}."""
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    g = _as_plane(g)
    n1, n2 = g.shape
    c = np.fft.rfft2(g) * _deriv_factors(n1, n2)[axis - 1]
    return np.fft.irfft2(c, s=(n1, n2))


def bessel_multiplier(g: np.ndarray, s: float) -> np.ndarray:
    """Apply (1 + |k|^2)^(s/2) mode by mode (the <grad'>^s smoother)."""
    g = _as_plane(g)
    n1, n2 = g.shape
    fac = (1.0 + _ksq(n1, n2)) ** (0.5 * s)
    return np.fft.irfft2(np.fft.rfft2(g) * fac, s=(n1, n2))


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
    n1, n2 = g.shape
    fac = np.exp(-0.25 * eps * _ksq(n1, n2))
    return np.fft.irfft2(np.fft.rfft2(g) * fac, s=(n1, n2))


def sobolev_norm(g: np.ndarray, s: float) -> float:
    """H^s(T^2) norm via Parseval.

    Parameters
    ----------
    g : array (n1, n2)
        Real samples on the uniform torus grid.
    s : float
        Smoothness index; s = 0 gives the L^2 norm.
    """
    g = _as_plane(g)
    n1, n2 = g.shape
    c = to_coeffs(g)
    fac = (1.0 + _ksq(n1, n2)) ** s
    total = np.sum(_parseval_weight(n1, n2) * fac * np.abs(c) ** 2)
    return float(2.0 * np.pi * np.sqrt(total))


def dealiased_product(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Pointwise product with 2/3-rule dealiasing.

    The product is evaluated on a 3/2-padded grid so the coefficients that
    survive the truncation are exact convolution values, then modes beyond
    the 2/3 cutoff are dropped.
    """
    g = _as_plane(g)
    h = _as_plane(h)
    if g.shape != h.shape:
        raise GridMismatch(f"shapes {g.shape} vs {h.shape}")
    n1, n2 = g.shape
    m1, m2 = (3 * n1) // 2, (3 * n2) // 2
    gp = _pad(np.fft.rfft2(g), n1, n2, m1, m2)
    hp = _pad(np.fft.rfft2(h), n1, n2, m1, m2)
    big = np.fft.rfft2(np.fft.irfft2(gp, s=(m1, m2)) * np.fft.irfft2(hp, s=(m1, m2)))
    c = _unpad(big, m1, m2, n1, n2)
    c *= dealias_mask(n1, n2)
    return np.fft.irfft2(c, s=(n1, n2))


def _pad(c: np.ndarray, n1: int, n2: int, m1: int, m2: int) -> np.ndarray:
    out = np.zeros((m1, m2 // 2 + 1), dtype=complex)
    half = n1 // 2
    out[:half, : n2 // 2 + 1] = c[:half]
    out[m1 - (n1 - half):, : n2 // 2 + 1] = c[half:]
    out *= (m1 * m2) / (n1 * n2)
    return out


def _unpad(c: np.ndarray, m1: int, m2: int, n1: int, n2: int) -> np.ndarray:
    out = np.zeros((n1, n2 // 2 + 1), dtype=complex)
    half = n1 // 2
    out[:half] = c[:half, : n2 // 2 + 1]
    out[half:] = c[m1 - (n1 - half):, : n2 // 2 + 1]
    out *= (n1 * n2) / (m1 * m2)
    return out


def field_mean(g: np.ndarray) -> float:
    """Horizontal mean (the k = 0 coefficient)."""
    return float(np.mean(g))


def remove_mean(g: np.ndarray) -> np.ndarray:
    """Subtract the horizontal mean."""
    return g - field_mean(g)
