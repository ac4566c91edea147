"""Elliptic solves on the mapped slab.

Discretization
--------------
All bulk boundary-value problems share one symmetric weak form.  With
w = v o Phi the Dirichlet energy of v over the moving domain pulls back
to the reference slab as

    int (K grad_y w) . grad_y w~ dy,    K = J Jinv Jinv^T,

so every problem here is a variant of  G^T W K G u = load  where G is a
staggered discrete gradient (spectral horizontal derivatives of the
vertical cell averages, compact vertical differences), K the cell
metric, and W the uniform cell measure.  solve_weak names a problem by
its assembled load and, per boundary level, a Dirichlet value or None
for the natural condition; a volume source enters the load through
volume_load and Neumann data as boundary rows scaled by the horizontal
cell area h1 h2.  The operator is symmetric
positive semidefinite by construction, which is what makes the
Dirichlet-to-Neumann operators built on top of it exactly self-adjoint:
boundary fluxes are recovered variationally as the operator residual at
constrained rows divided by the horizontal cell area.

Solves run matrix-free preconditioned CG on full node arrays: the
levels a Dirichlet condition fixes are held at 0 in every vector of the
iteration (the operator's rows there are zeroed, and the preconditioner
neither reads nor writes them), and the boundary values are added after.
The preconditioner inverts the flat-map (K = I) operator exactly, so
flat solves converge in a single iteration and near-flat ones in a
handful.  Per horizontal mode that operator is S + |k|^2 M with the same
vertical stiffness S and mass M for every mode, so the cached eigenbasis
of the pair that the harmonic map also uses (geometry.vertical_eigen,
fast diagonalization) and the real Fourier basis of spectral._to_basis
turn the inverse into real matrix products around one diagonal scaling.
The flat closed forms below are diagonal scalings in the same basis, so
no solve here runs an FFT.  An x2-invariant solve runs the operator and
the preconditioner on one x2 column (geometry's x2 rule).  Each solve
builds one workspace, kept nowhere after it: the operator's cell
coefficients at node shape (top level 0: vertical pair sums and
differences become flat shifts) and the buffers iterations write into.

Flat fast path
--------------
For an exactly flat map the harmonic extensions are computed in closed
form per mode (stable exponential expressions of the sinh/cosh
profiles); those paths are exact and serve as oracles for the discrete
machinery, which a direct solve_weak call runs on any map.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import PreconditionViolated, SolverDiverged
from .geometry import (
    CoordinateMap,
    SlabGrid,
    _dh_pair,
    _dh_pair_adjoint,
    _node_to_cell,
    _x2_extent,
    vertical_eigen,
)
from .spectral import (_deriv_matrix, _derivative, _fourier_basis, _from_basis, _ksq,
                       _to_basis)

DEFAULT_TOL = 1e-10
MAXITER = 800

__all__ = [
    "harmonic_ext_dirichlet",
    "harmonic_ext_neumann",
    "weight_field",
    "solve_weak",
    "apply_operator",
    "boundary_flux_top",
    "volume_load",
    "volume_weights",
]


def grad_staggered(u: np.ndarray, grid: SlabGrid):
    """Cell-collocated discrete gradient (q1, q2, q3): horizontal spectral
    derivatives of the vertical cell averages (the average commutes with
    them) and compact vertical differences."""
    q1, q2 = _dh_pair(_node_to_cell(u))
    q3 = np.subtract(u[..., 1:], u[..., :-1])
    q3 /= grid.dz
    return q1, q2, q3


def grad_adjoint(q1, q2, q3, grid: SlabGrid):
    """Exact adjoint of grad_staggered: the horizontal adjoint on cells,
    then one two-point stencil per cell onto its lower and upper node."""
    h = _dh_pair_adjoint(q1, q2)
    h *= 0.5
    t = q3 / grid.dz
    out = np.empty(h.shape[:-1] + (h.shape[-1] + 1,))
    np.subtract(h, t, out=out[..., :-1])
    h += t
    out[..., 1:-1] += h[..., :-1]
    out[..., -1] = h[..., -1]
    return out


def _operator_work(cmap: CoordinateMap, shape) -> tuple:
    """apply_operator's buffers for fields of one shape: the coefficients
    (a, b1, b2, e) = W (phi3, -2 phi1 / dz, -2 phi2 / dz, 4 k33 / dz^2) / 4,
    W = h1 h2 dz, at that shape with the top level 0, and four arrays."""
    w, dz = cmap.grid.h1 * cmap.grid.h2 * cmap.grid.dz, cmap.grid.dz
    scaled = ((cmap.phi3_cell, 0.25 * w), (cmap.phi1_cell, -0.5 * w / dz),
              (cmap.phi2_cell, -0.5 * w / dz), (cmap.k33, w / (dz * dz)))
    coef = np.zeros((4,) + tuple(shape))
    for i, (cell, k) in enumerate(scaled):
        np.multiply(cell, k, out=coef[i, ..., :-1])
    return tuple(coef), tuple(np.empty((4,) + tuple(shape)))


def apply_operator(u: np.ndarray, cmap: CoordinateMap, ws=None) -> np.ndarray:
    """Full-row symmetric operator G^T W K G on a node field or x2 column.

    ws: _operator_work(cmap, u.shape), or None for new; the result is its
    first buffer, the others hold nothing between calls.  With s, d the
    vertical pair sums and differences of u and g = D s, the cell fluxes
    H = a g + b d, T = e d + b . g add D^T H -/+ T to a cell's lower/upper
    node; the top level, pairing two columns, has coefficients 0.
    """
    (a, b1, b2, e), (g1, s, t, g2) = ws or _operator_work(cmap, u.shape)
    uf = np.ascontiguousarray(u).reshape(-1)  # copies an x2 column only
    sf = s.reshape(-1)

    def scaled_difference(coef, out):
        flat = out.reshape(-1)
        np.subtract(uf[1:], uf[:-1], out=flat[:-1])
        flat[-1] = 0.0
        out *= coef
        return out

    np.add(uf[:-1], uf[1:], out=sf[:-1])
    sf[-1] = 0.0
    pairs = [(g1, b1, 1), (g2, b2, 2)][:1 + (u.shape[-2] > 1)]
    for g, _, axis in pairs:
        _derivative(s, axis, (t, g))
    scaled_difference(e, s)
    for g, b, _ in pairs:
        s += np.multiply(b, g, out=t)
        g *= a
        g += scaled_difference(b, t)
    # t = D^T H with no row subtracted: H is exactly 0 where g is, and
    # column-major D1^T rounds every output column alike (x2 rule)
    n1 = len(g1)
    np.matmul(_deriv_matrix(n1).T, g1.reshape(n1, -1), out=t.reshape(n1, -1))
    if len(pairs) > 1:
        t += np.matmul(_deriv_matrix(g2.shape[-2]).T, g2, out=g1)
    np.subtract(t, s, out=g1)
    s += t
    g1.reshape(-1)[1:] += sf[:-1]
    return g1


# ---------------------------------------------------------------------------
# flat preconditioner: one vertical eigenbasis shared by all modes

@lru_cache(maxsize=64)
def _flat_eigen(n1: int, n2: int, nz: int, z0: int, z1: int):
    """Fast-diagonal form of the flat operator on free levels [z0, z1).

    Returns (V, inv, kernel).  V is the eigenbasis of
    geometry.vertical_eigen embedded in an (nz, nfree) matrix whose rows
    at the fixed levels are 0, so it reads and writes full node columns.
    inv holds 1 / (1 + (|k|^2 - 1) mu) per (Q1 column, Q2 column,
    eigenvector) of spectral._fourier_basis with the 1/(h1 h2) load
    scaling folded in; |k|^2 is the eigenvalue of D^T D, so 0 on the
    Nyquist column that D zeroes.  In the all-Neumann case the vertical
    constant (index c, mu = 1) is dropped on the kernel columns (constant
    or Nyquist on both axes, [::n - 1]) and kernel = (c, w): the eigen
    coordinates y of a vertically mean-free field have y[c] = -(y . w),
    w[c] = 0.  Otherwise kernel is None.
    """
    v, mu = vertical_eigen(nz, z0, z1)
    k1, k2 = (np.append(_fourier_basis(n)[1][:-1], 0.0) for n in (n1, n2))
    ksq = (k1 * k1)[:, None, None] + (k2 * k2)[:, None]
    area = (2.0 * np.pi / n1) * (2.0 * np.pi / n2)
    denom = area * (1.0 + (ksq - 1.0) * mu)
    kernel = None
    if z0 == 0 and z1 == nz:
        c = int(np.argmax(mu))
        denom[::n1 - 1, ::n2 - 1, c] = np.inf
        colsum = v.sum(axis=0)
        w = colsum / colsum[c]
        w[c] = 0.0
        w.flags.writeable = False
        kernel = (c, w)
    inv = 1.0 / denom
    full = np.zeros((nz, z1 - z0))
    full[z0:z1] = v
    for a in (full, inv):
        a.flags.writeable = False
    return full, inv, kernel


def _flat_solve(r: np.ndarray, grid: SlabGrid, z0: int, z1: int, m: int,
                work=None) -> np.ndarray:
    """Exact flat-operator solve on free levels (the CG preconditioner).

    r and the result are full node arrays; the rows of r at the fixed
    levels are not read, and the result is 0 on them.  Real matrix
    products only: r @ V along z, into the Q1 (x) Q2 basis
    (spectral._to_basis), the diagonal scaling, then back and V^T; the z
    products on every row (a BLAS may round a row by the row count), the
    rest on m x2 columns (m = 1: an x2-invariant r, geometry's x2 rule).
    work: None, or three C-contiguous arrays to write into, the first and
    last of r's size, the second of m columns; the result is in the last.
    """
    v, inv, kernel = _flat_eigen(grid.n1, grid.n2, grid.nz, z0, z1)
    f, g, h = (w.reshape(-1) for w in work or [np.empty(r.size) for _ in range(3)])
    ey = f[:grid.n1 * grid.n2 * v.shape[1]].reshape(grid.n1, grid.n2, -1)
    a = g[:grid.n1 * m * v.shape[1]].reshape(grid.n1, m, -1)
    b, out = h[:a.size].reshape(a.shape), h[:r.size].reshape(r.shape)
    np.matmul(r.reshape(-1, grid.nz), v, out=ey.reshape(-1, v.shape[1]))
    y = _to_basis(ey[:, :m], grid.n2, (a, b))
    y *= inv[:, :m]
    if kernel is not None:
        c, w = kernel
        # one product per pair of x1 corners, the shape an x2 column has
        corners = y[::grid.n1 - 1, ::grid.n2 - 1].swapaxes(0, 1)
        corners[..., c] = -(corners @ w)
    np.copyto(ey, _from_basis(y, grid.n2, (ey if m == grid.n2 else a, b)))
    return np.matmul(ey.reshape(-1, v.shape[1]), v.T,
                     out=out.reshape(-1, grid.nz)).reshape(r.shape)


def _project_kernel(r: np.ndarray, grid: SlabGrid) -> np.ndarray:
    """Remove the all-Neumann kernel component: the vertical mean of the
    coefficients on the four constant/Nyquist products of Q1 and Q2."""
    c = _to_basis(np.mean(r, axis=-1), grid.n2)
    kernel = np.zeros_like(c)
    kernel[::grid.n1 - 1, ::grid.n2 - 1] = c[::grid.n1 - 1, ::grid.n2 - 1]
    return r - _from_basis(kernel, grid.n2)[..., None]


# ---------------------------------------------------------------------------
# weak solver

def volume_weights(cmap: CoordinateMap) -> np.ndarray:
    """Quadrature weights for volume integrals over the moving domain,
    (n1, n2, nz) read-only."""
    grid = cmap.grid
    w = np.full(grid.nz, grid.dz)
    w[0] = w[-1] = 0.5 * grid.dz
    return np.broadcast_to(grid.h1 * grid.h2 * w * cmap.jac, grid.shape)


def solve_weak(
    cmap: CoordinateMap,
    load: np.ndarray | None,
    top=0.0,
    bottom=None,
    tol: float = DEFAULT_TOL,
    x0: np.ndarray | None = None,
):
    """Solve the weak mapped-Laplacian system G^T W K G u = load.

    Parameters
    ----------
    load : assembled weak load at full node shape, or None for zero; the
        caller's array is left unchanged.  A volume source is
        volume_load(rhs, cmap); Neumann data are boundary rows scaled by
        h1 h2: N . grad u on the interface row, the outward flux -d3 u on
        the floor row.
    top, bottom : Dirichlet value of the interface, respectively floor,
        level (a scalar or an (n1, n2) field), or None for the natural
        condition, whose data if any sit in the load.
    x0 : optional initial guess (full node shape).

    Returns
    -------
    u : full node array including boundary levels.
    info : dict with iterations and final relative residual.
    """
    grid = cmap.grid
    z0 = 0 if bottom is None else 1
    z1 = grid.nz if top is None else grid.nz - 1
    b = np.zeros(grid.shape)
    if load is not None:
        b += load
    u0 = np.zeros(grid.shape)
    if top is not None:
        u0[..., -1] = top
    if bottom is not None:
        u0[..., 0] = bottom
    if np.any(u0):
        b -= apply_operator(u0[..., :_x2_extent(cmap, u0), :], cmap)
    b[..., :z0] = 0.0
    b[..., z1:] = 0.0
    neumann_all = (z0 == 0 and z1 == grid.nz)
    if neumann_all:
        b = _project_kernel(b, grid)
    x, iters, rel = _pcg(cmap, b, z0, z1, tol, neumann_all, x0)
    x += u0
    return x, {"iterations": iters, "residual": rel}


def _pcg(cmap, b, z0, z1, tol, project_constants, x0):
    """Preconditioned CG for the free levels [z0, z1) on full node arrays.

    b is 0 on the fixed levels, and every vector of the iteration is
    held at 0 there: the operator's rows at those levels are zeroed, and
    the preconditioner neither reads nor writes them.  x0, if given, is
    a full node array whose fixed levels are ignored.
    """
    grid = cmap.grid
    m = _x2_extent(cmap, b, x0)  # decided once per solve
    ws = _operator_work(cmap, (grid.n1, m, grid.nz))
    # the operator's result is its first buffer; the preconditioner works in
    # the others, or on an x2 column in two full arrays, the first of which
    # spreads the operator's result while the preconditioner is idle
    work = ws[1][1:] if m == grid.n2 else (np.empty_like(b), ws[1][2], np.empty_like(b))
    spread, scratch = work[0], work[2]

    def apply_free(x):
        ax = apply_operator(x[..., :m, :], cmap, ws)
        ax[..., :z0] = 0.0
        ax[..., z1:] = 0.0
        if m == grid.n2:
            return ax
        np.copyto(spread, ax)
        return spread

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0, 0.0
    if x0 is not None:
        x = x0.copy()
        x[..., :z0] = 0.0
        x[..., z1:] = 0.0
        r = b - apply_free(x)
    else:
        x = np.zeros_like(b)
        r = b.copy()
    if project_constants:
        r -= np.mean(r)
    p = _flat_solve(r, grid, z0, z1, m, work).copy()
    if project_constants:
        p -= np.mean(p)
    rz = float(np.vdot(r, p))
    for it in range(1, MAXITER + 1):
        ap = apply_free(p)
        alpha = rz / float(np.vdot(p, ap))
        x += np.multiply(p, alpha, out=scratch)
        r -= np.multiply(ap, alpha, out=scratch)
        if project_constants:
            r -= np.mean(r)
        rel = float(np.linalg.norm(r)) / bnorm
        if not np.isfinite(rel):
            raise SolverDiverged(f"pcg residual is not finite after {it} its")
        if rel <= tol:
            return x, it, rel
        z = _flat_solve(r, grid, z0, z1, m, work)
        if project_constants:
            z -= np.mean(z)
        rz, rz_old = float(np.vdot(r, z)), rz
        p *= rz / rz_old
        p += z
    raise SolverDiverged(f"pcg stalled at rel residual {rel:.3e} after {MAXITER} its")


def volume_load(rhs: np.ndarray, cmap: CoordinateMap) -> np.ndarray:
    """Assembled weak load of a volume source rhs (Lap_x u = rhs)."""
    b = np.zeros(cmap.grid.shape)
    b -= volume_weights(cmap) * rhs
    return b


def boundary_flux_top(u: np.ndarray, cmap: CoordinateMap,
                      load: np.ndarray | None = None) -> np.ndarray:
    """Variational recovery of N . grad u on the interface.

    The residual of the full symmetric operator at the top rows equals
    the weak boundary flux integral; dividing by the horizontal cell
    area gives the flux samples.  Exactly adjoint-consistent.
    """
    grid = cmap.grid
    res = apply_operator(u, cmap)[..., -1]
    if load is not None:
        res = res - load[..., -1]
    return res / (grid.h1 * grid.h2)


# ---------------------------------------------------------------------------
# flat-case closed forms

def _stable_profiles(kappa: np.ndarray, y3: np.ndarray, kind: str) -> np.ndarray:
    """sinh(k(1+y))/sinh(k) or cosh(k(1+y))/cosh(k) without overflow."""
    k = kappa[..., None]
    y = y3[None, None, :]
    e = np.exp(k * y)            # k y <= 0
    em = np.exp(-2.0 * k * (1.0 + y))
    if kind == "sinh":
        with np.errstate(invalid="ignore", divide="ignore"):
            prof = e * (1.0 - em) / (1.0 - np.exp(-2.0 * k))
        prof = np.where(k > 0, prof, 1.0 + y)
    else:
        prof = e * (1.0 + em) / (1.0 + np.exp(-2.0 * k))
        prof = np.where(k > 0, prof, 1.0)
    return prof


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


def _flat_extension(g: np.ndarray, grid: SlabGrid, kind: str) -> np.ndarray:
    prof = _stable_profiles(np.sqrt(_ksq(grid.n1, grid.n2)), grid.y3, kind)
    c = _to_basis(np.asarray(g, dtype=float), grid.n2)
    return _from_basis(c[..., None] * prof, grid.n2)


def harmonic_ext_dirichlet(g: np.ndarray, cmap: CoordinateMap):
    """Harmonic extension with data g on the interface, zero on the floor.

    On a flat map the exact per-mode profile is returned.
    """
    if cmap.is_flat:
        return _flat_extension(g, cmap.grid, "sinh")
    return solve_weak(cmap, None, top=g, bottom=0.0)[0]


def harmonic_ext_neumann(g: np.ndarray, cmap: CoordinateMap,
                         tol: float = DEFAULT_TOL):
    """Harmonic extension with data g on top and zero flux at the floor."""
    if cmap.is_flat:
        return _flat_extension(g, cmap.grid, "cosh")
    return solve_weak(cmap, None, top=g, tol=tol)[0]


def weight_field(a_bar: np.ndarray, c0: float, cmap: CoordinateMap) -> np.ndarray:
    """Harmonic interior weight with data a_bar on top and c0 on the floor.

    Requires a_bar >= c0 everywhere (the blended boundary weight after
    adding the cutoff lift); the maximum principle then pins the field
    between c0 and max(a_bar), asserted a posteriori at quadrature slack.
    """
    a_bar = np.asarray(a_bar, dtype=float)
    if np.min(a_bar) < c0 - 1e-12:
        raise PreconditionViolated(
            f"boundary weight dips to {np.min(a_bar):.3e} below c0 = {c0:.3e}"
        )
    u, _ = solve_weak(cmap, None, top=a_bar, bottom=c0)
    lo = min(c0, float(np.min(a_bar)))
    hi = max(c0, float(np.max(a_bar)))
    slack = 1e-8 * max(1.0, hi - lo) + 1e-6 * (hi - lo) * cmap.grid.dz
    if np.min(u) < lo - slack or np.max(u) > hi + slack:
        raise PreconditionViolated("weight field violates the maximum principle")
    return u
