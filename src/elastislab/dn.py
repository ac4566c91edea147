"""Interface flux operators and their calculus.

Two Dirichlet-to-Neumann maps act on surface fields: both extend the
datum harmonically under the slab map and return the conormal flux
N . grad on the interface, recovered variationally.  They differ in the
floor condition: the clamped variant extends with zero boundary values
at the floor (flat symbol |k| coth |k|, mean mode 1), the free variant
with zero flux there (flat symbol |k| tanh |k|, mean mode annihilated).

On flat maps both operators and the inverse of the free variant are
exact symbols (dn_symbol_dirichlet, dn_symbol_neumann and its inverse,
tabulated by _flux_symbols), one diagonal scaling in the real Fourier
basis of spectral._to_basis (no FFT).  On curved maps the flux maps take
the discrete route _solved_flux, one elliptic.solve_weak call with the
datum as the interface value; the self-adjointness checks exercise it,
and the spatial convergence study runs it on flat maps.  The curved
inverse is one all-Neumann solve, least squares: a datum's kernel part
is dropped.  Every solve here runs at elliptic.DEFAULT_TOL; no function
takes a tolerance.

The commutator assemblies implement exact interface identities:
differentiating the extension problem in time trades the moving domain
for bulk correction solves, and multiplying the datum trades the
product rule defect for one Poisson solve clamped on both boundaries.
Each bulk problem is one solve_weak call: the assembled load (volume
source, or a floor flux row scaled by h1 h2) and a Dirichlet value or
None per boundary level; the volume load is reused for the variational
flux recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import elliptic as el
from .errors import NotMeanZero, SolverDiverged
from .geometry import CoordinateMap, _normal_flux, mapped_gradient
from .spectral import _apply_symbol, _ksq, horizontal_derivative

__all__ = [
    "apply_dn",
    "apply_dn_neumann",
    "invert_dn_neumann",
    "dt_normal",
    "DtNormal",
    "material_dn_commutator",
    "multiplier_dn_commutator",
]


def dn_symbol_dirichlet(kappa: np.ndarray) -> np.ndarray:
    """|k| coth|k| with the zero-mode limit 1."""
    e = np.exp(-2.0 * kappa)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = kappa * (1.0 + e) / (1.0 - e)
    return np.where(kappa > 0, s, 1.0)


def dn_symbol_neumann(kappa: np.ndarray) -> np.ndarray:
    """|k| tanh|k|; the zero mode maps to 0."""
    e = np.exp(-2.0 * kappa)
    return np.where(kappa > 0, kappa * (1.0 - e) / (1.0 + e), 0.0)


@lru_cache(maxsize=32)
def _flux_symbols(n1: int, n2: int):
    """Flat symbols (clamped, free, inverse of free) of the flux maps, per
    column of the real Fourier basis (spectral._ksq).

    The inverse is zero on the kernel of the free symbol (the mean mode).
    """
    kappa = np.sqrt(_ksq(n1, n2))
    free = dn_symbol_neumann(kappa)
    inverse = np.where(free > 0, 1.0 / np.where(free > 0, free, 1.0), 0.0)
    return dn_symbol_dirichlet(kappa), free, inverse


def _solved_flux(g: np.ndarray, cmap: CoordinateMap, bottom):
    """Interface flux of the harmonic extension of g by one solve_weak,
    on any map: bottom = 0.0 clamps the floor, None leaves it free."""
    u, _ = el.solve_weak(cmap, None, top=g, bottom=bottom)
    return el.boundary_flux_top(u, cmap)


def apply_dn(g: np.ndarray, cmap: CoordinateMap) -> np.ndarray:
    """Interface flux of the floor-clamped harmonic extension of g."""
    g = np.asarray(g, dtype=float)
    if cmap.is_flat:
        return _apply_symbol(g, _flux_symbols(*g.shape)[0])
    return _solved_flux(g, cmap, 0.0)


def apply_dn_neumann(g: np.ndarray, cmap: CoordinateMap) -> np.ndarray:
    """Interface flux of the free-floor harmonic extension of g."""
    g = np.asarray(g, dtype=float)
    if cmap.is_flat:
        return _apply_symbol(g, _flux_symbols(*g.shape)[1])
    return _solved_flux(g, cmap, None)


def invert_dn_neumann(h: np.ndarray, cmap: CoordinateMap) -> np.ndarray:
    """Solve the free-floor flux problem: find z with flux h, least squares.

    h must be mean-free (the range excludes constants); the guard is
    relative at 1e-8.  Flat maps invert the symbol.  Otherwise z is the
    trace of one all-Neumann solve_weak loaded only by h on the interface
    row, so the solution is the free-floor extension of z and z has flux
    h to the solver tolerance.  The curved kernel is the constant and the
    three Nyquist products (elliptic._project_kernel): h's part there is
    outside the range and dropped, and so is z's, which the solver does
    not zero (it zeroes their vertical mean).
    """
    h = np.asarray(h, dtype=float)
    hnorm = float(np.linalg.norm(h))
    if not np.isfinite(hnorm):
        raise SolverDiverged("flux datum is not finite")
    if hnorm == 0.0:
        return np.zeros_like(h)
    if abs(float(np.mean(h))) > 1e-8 * float(np.max(np.abs(h))):
        raise NotMeanZero(f"flux datum has mean {np.mean(h):.3e}")
    if cmap.is_flat:
        z = _apply_symbol(h, _flux_symbols(*h.shape)[2])
        return z - z.mean()
    grid = cmap.grid
    load = np.zeros(grid.shape)
    load[..., -1:] = (grid.h1 * grid.h2) * el._project_kernel(h[..., None], grid)
    z, _ = el.solve_weak(cmap, load, top=None)
    return el._project_kernel(z[..., -1:], grid)[..., 0]


# ---------------------------------------------------------------------------
# material derivative of the interface normal

@dataclass(frozen=True)
class DtNormal:
    """Surface decomposition of the normal's material derivative."""

    vector: np.ndarray        # (3, n1, n2) assembled derivative
    tangential_1: np.ndarray  # coefficient on (1, 0, d1 f)
    tangential_2: np.ndarray  # coefficient on (0, 1, d2 f)
    normal_coef: np.ndarray   # coefficient on the unnormalized normal


def dt_normal(u_trace: np.ndarray, f: np.ndarray) -> DtNormal:
    """Material derivative of the unnormalized interface normal.

    u_trace holds the three velocity components sampled on the moving
    interface.  The derivative is returned both assembled and split
    into the tangential/normal frame of the surface; the assembly is an
    exact pointwise identity, so both views agree to roundoff.
    """
    f = np.asarray(f, dtype=float)
    f1 = horizontal_derivative(f, 1)
    f2 = horizontal_derivative(f, 2)
    one, zero = np.ones_like(f), np.zeros_like(f)
    n = np.stack([-f1, -f2, one])
    t1, t2 = np.stack([one, zero, f1]), np.stack([zero, one, f2])
    c1 = sum(horizontal_derivative(u_trace[a], 1) * n[a] for a in range(3))
    c2 = sum(horizontal_derivative(u_trace[a], 2) * n[a] for a in range(3))
    denom = 1.0 + f1 * f1 + f2 * f2
    a = (-c1 - f2 * f2 * c1 + f1 * f2 * c2) / denom
    b = (-c2 - f1 * f1 * c2 + f1 * f2 * c1) / denom
    nc = (f1 * c1 + f2 * c2) / denom
    vec = a[None] * t1 + b[None] * t2 + nc[None] * n
    return DtNormal(vector=vec, tangential_1=a, tangential_2=b, normal_coef=nc)


# ---------------------------------------------------------------------------
# commutators

def material_dn_commutator(g: np.ndarray, u: np.ndarray,
                           cmap: CoordinateMap) -> np.ndarray:
    """Commutator of the material derivative with the free-floor flux map.

    u is the bulk velocity on the slab, (3, n1, n2, nz); the interface
    must be material for u and the floor impermeable.  Differentiating
    the extension problem in time yields bulk corrections (the domain
    motion enters through the commutator of the material derivative
    with the Laplacian and through the floor flux condition) plus the
    surface terms carrying the moving normal.
    """
    g = np.asarray(g, dtype=float)
    grid = cmap.grid
    w = el.harmonic_ext_neumann(g, cmap)
    gw = mapped_gradient(w, cmap)
    du = mapped_gradient(u, cmap)
    d2w = mapped_gradient(gw, cmap)

    # [Lap, D_t] source: 2 grad u : grad^2 w + (Lap u) . grad w
    src = np.zeros(grid.shape)
    for b in range(3):
        for a in range(3):
            src += 2.0 * du[b][a] * d2w[b][a]
        d2ub = mapped_gradient(du[b], cmap)
        src += sum(d2ub[a][a] for a in range(3)) * gw[b]
    load = el.volume_load(src, cmap)
    v1, _ = el.solve_weak(cmap, load)
    term1 = el.boundary_flux_top(v1, cmap, load)

    # floor flux condition picks up the moving frame at the bottom
    bot = (du[0][2][..., 0] * gw[0][..., 0]
           + du[1][2][..., 0] * gw[1][..., 0])
    load = np.zeros(grid.shape)
    load[..., 0] = -(grid.h1 * grid.h2 * bot)
    v2, _ = el.solve_weak(cmap, load)
    term2 = el.boundary_flux_top(v2, cmap)

    # surface terms: normal derivative of u against the extension
    # gradient, plus the moving-normal decomposition
    ngradu = [_normal_flux(du[b], cmap) for b in range(3)]
    term3 = -sum(gw[b][..., -1] * ngradu[b] for b in range(3))

    frame = dt_normal(u[..., -1], cmap.f)
    g1 = horizontal_derivative(g, 1)
    g2 = horizontal_derivative(g, 2)
    nbar_g = apply_dn_neumann(g, cmap)
    term4 = (frame.tangential_1 * g1 + frame.tangential_2 * g2
             + frame.normal_coef * nbar_g)

    return term1 + term2 + term3 + term4


def multiplier_dn_commutator(g: np.ndarray, a: np.ndarray,
                             cmap: CoordinateMap) -> np.ndarray:
    """Commutator of the clamped flux map with multiplication by a.

    The extension of a product differs from the product of extensions
    by one Poisson solve clamped on both boundaries, whose source is
    twice the gradient pairing of the two extensions; the commutator is
    the datum times the flux of a minus the interface flux of that
    correction.
    """
    g = np.asarray(g, dtype=float)
    a = np.asarray(a, dtype=float)
    ha = el.harmonic_ext_dirichlet(a, cmap)
    hg = el.harmonic_ext_dirichlet(g, cmap)
    ga = mapped_gradient(ha, cmap)
    gg = mapped_gradient(hg, cmap)
    src = 2.0 * sum(ga[b] * gg[b] for b in range(3))
    load = el.volume_load(src, cmap)
    v, _ = el.solve_weak(cmap, load, bottom=0.0)
    flux = el.boundary_flux_top(v, cmap, load)
    return g * apply_dn(a, cmap) - flux
