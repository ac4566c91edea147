"""Reference slab, harmonic coordinate map, and mapped bulk derivatives.

The moving fluid domain (everything between the floor x3 = -1 and the
graph interface x3 = f(x')) is pulled back to the fixed reference slab
T^2 x [-1, 0].  Because the reference interface is flat, the horizontal
components of the harmonic coordinate change are the identity and only
the vertical map phi(y', y3) has to be solved for:

    Lap phi = 0,   phi(y', 0) = f(y'),   phi(y', -1) = -1.

The vertical discretization is linear finite elements on a uniform node
ladder (second order), the horizontal one is Fourier collocation, so
phi splits into per-mode vertical solves, all diagonalized by the one
cached eigenbasis of vertical_eigen.  Every horizontal operator is a
real matrix product: derivatives with spectral._deriv_matrix, the map
solve in the real Fourier basis of spectral._to_basis.  The x2 rule: if f
is constant along x2, the map keeps its metric arrays (phi1, phi2 = 0,
phi3, their cell averages, k33, jac, inv_phi3) on one (n1, 1, .) x2
column, which broadcasts against full and column fields alike.  A field
constant along x2 is then given by its (..., n1, 1, nz) x2 column, and
the bulk operators answer at their input's width: a column gets a
column, with no x2 derivative, and a full array the full path.  Values
are scanned only where data enter: the map's interface, the map solve's
top plane, normal_vector, a weak solve's Dirichlet planes (and the
extension energy's datum) and a new dynamics.FlowState's u and F.

Physical derivatives of a field w stored on the slab follow the chain
rule through the graph map, the vertical one first:

    d_3 w_phys = d_3 w / d_3 phi,
    d_i w_phys = d_i w - d_i phi d_3 w_phys   (i = 1, 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import hashlib

import numpy as np

from .errors import DegenerateMap, GridMismatch, PreconditionViolated
from .spectral import (_derivative, _from_basis, _ksq, _to_basis,
                       horizontal_derivative)

__all__ = [
    "SlabGrid",
    "CoordinateMap",
    "build_map",
    "trace",
    "bottom_trace",
    "mapped_gradient",
    "normal_vector",
]


@dataclass(frozen=True)
class SlabGrid:
    """Uniform tensor grid on the reference slab T^2 x [-1, 0].

    nz counts vertical node levels including both boundaries, so there
    are nz - 1 cells of height dz = 1/(nz - 1); level 0 is the floor and
    level nz - 1 is the reference interface.
    """

    n1: int
    n2: int
    nz: int

    def __post_init__(self):
        if self.n1 < 4 or self.n2 < 4 or self.nz < 3:
            raise ValueError("grid too small")
        if self.n1 % 2 or self.n2 % 2:
            raise ValueError("horizontal sizes must be even")

    @property
    def ncells(self) -> int:
        return self.nz - 1

    @property
    def dz(self) -> float:
        return 1.0 / (self.nz - 1)

    @property
    def h1(self) -> float:
        return 2.0 * np.pi / self.n1

    @property
    def h2(self) -> float:
        return 2.0 * np.pi / self.n2

    @property
    def y3(self) -> np.ndarray:
        return -1.0 + np.arange(self.nz) * self.dz

    def horizontal_meshes(self):
        x1 = np.arange(self.n1) * self.h1
        x2 = np.arange(self.n2) * self.h2
        return np.meshgrid(x1, x2, indexing="ij")

    @property
    def shape(self):
        return (self.n1, self.n2, self.nz)


def vertical_fem_rows(ksq: np.ndarray, dz: float):
    """Interior-row coefficients of the per-mode vertical operator.

    Linear finite elements for -w'' + ksq w on a uniform ladder: row j
    couples (j-1, j, j+1) with coefficients (sub, diag, sub) per unit
    horizontal area.  ksq broadcasts over modes.
    """
    sub = -1.0 / dz + ksq * dz / 4.0
    diag = 2.0 / dz + ksq * dz / 2.0
    return sub, diag


def _vertical_matrix(ksq: float, nz: int, z0: int, z1: int) -> np.ndarray:
    """Dense per-mode operator S + ksq M on free levels [z0, z1); a free
    boundary level carries a half row."""
    sub, diag = vertical_fem_rows(ksq, 1.0 / (nz - 1))
    n = z1 - z0
    a = (np.diag(np.full(n, diag)) + np.diag(np.full(n - 1, sub), 1)
         + np.diag(np.full(n - 1, sub), -1))
    if z0 == 0:
        a[0, 0] *= 0.5
    if z1 == nz:
        a[-1, -1] *= 0.5
    return a


@lru_cache(maxsize=64)
def vertical_eigen(nz: int, z0: int, z1: int):
    """One vertical eigenbasis for every horizontal mode on levels [z0, z1).

    Every mode's operator is S + |k|^2 M with the same stiffness S and
    mass M, so the eigenbasis V of the (S + M)-whitened M, with
    V^T (S + M) V = I and V^T M V = diag(mu), diagonalizes them all
    (fast diagonalization):

        (S + |k|^2 M)^-1 = V diag(1 / (1 + (|k|^2 - 1) mu)) V^T.

    Returns (V, mu), both read-only.
    """
    stiff = _vertical_matrix(0.0, nz, z0, z1)
    both = _vertical_matrix(1.0, nz, z0, z1)  # S + M, positive definite
    linv = np.linalg.inv(np.linalg.cholesky(both))
    mu, q = np.linalg.eigh(linv @ (both - stiff) @ linv.T)
    v = linv.T @ q
    for a in (v, mu):
        a.flags.writeable = False
    return v, mu


@lru_cache(maxsize=16)
def _d3_stencil(nz: int) -> np.ndarray:
    """Read-only (nz, nz) integer-valued stencil of 2 dz d3_node on the
    interior levels: column j holds -1, +1 at levels j - 1, j + 1; the
    floor and top columns are zero."""
    st = np.zeros((nz, nz))
    j = np.arange(1, nz - 1)
    st[j - 1, j] = -1.0
    st[j + 1, j] = 1.0
    st.flags.writeable = False
    return st


def d3_node(w: np.ndarray, dz: float) -> np.ndarray:
    """Second-order vertical derivative at nodes (one-sided at the ends).

    Centred differences (w[k+1] - w[k-1]) / (2 dz) inside, one matrix
    product with the cached _d3_stencil.  Each one-sided end is taken of
    the differences from its own boundary level: (4 b[1] - b[2]) / (2 dz)
    on the floor with b = w - w[0], and (t[-3] - 4 t[-2]) / (2 dz) on top
    with t = w - w[-1].  So a field constant along the vertical
    differentiates to exactly 0 on every level, as the centred
    differences already do, and no difference array of w's size is made.
    """
    nz = w.shape[-1]
    out = (w.reshape(-1, nz) @ _d3_stencil(nz)).reshape(w.shape)
    b = w[..., 1:3] - w[..., :1]
    out[..., 0] = 4.0 * b[..., 0] - b[..., 1]
    t = w[..., -3:-1] - w[..., -1:]
    out[..., -1] = t[..., 0] - 4.0 * t[..., 1]
    out /= 2.0 * dz
    return out


def _node_to_cell(w):
    """Vertical pair averages: node levels to cell midpoints."""
    out = w[..., :-1] + w[..., 1:]
    out *= 0.5
    return out


def _dh_pair(w):
    """Both horizontal spectral derivatives of a bulk (..., n1, n2, nz)
    array (spectral._derivative along axes -3 and -2): a field constant
    along an axis differentiates to exactly 0 along it, an x2 column too."""
    d1 = _derivative(w, 1)
    return d1, (_derivative(w, 2) if w.shape[-2] > 1 else np.zeros_like(d1))


def _dh_pair_adjoint(p1, p2):
    """Adjoint of _dh_pair: D1^T p1 + D2^T p2 = -(D1 p1 + D2 p2), as D is
    exactly antisymmetric."""
    out = _derivative(p1, 1)
    if p2.shape[-2] > 1:
        out += _derivative(p2, 2)
    return np.negative(out, out=out)


def _spread(a, n2):
    """The full array of a field given whole or by its x2 column."""
    return a if a.shape[-2] == n2 else np.repeat(a, n2, axis=-2)


def _x2_constant(a) -> bool:
    """(..., n2, nz) data (a plane f as f[..., None]) are constant along x2."""
    return bool((a == a[..., :1, :]).all())


class CoordinateMap:
    """Harmonic vertical map and its cached metric quantities.

    Attributes
    ----------
    grid : SlabGrid
    f : array (n1, n2)
        Interface height samples.
    phi : array (n1, n2, nz)
        Vertical map values at slab nodes; phi[..., -1] == f exactly and
        phi[..., 0] == -1 exactly.
    phi1, phi2, phi3 : arrays (n1, m, nz)
        Node-collocated derivatives of phi (spectral horizontal, second
        order vertical); m = 1 on an x2-invariant map (the x2 rule of the
        module docstring), else n2.  So are the arrays below.
    phi1_cell, phi2_cell, phi3_cell : arrays (n1, m, nz - 1)
        The same derivatives at vertical cell midpoints.
    k33 : array (n1, m, nz - 1)
        The metric entry (1 + phi1^2 + phi2^2) / phi3 at cell midpoints,
        computed once; the other entries of the flux-form metric
        K = J Jinv Jinv^T are cell derivatives of phi up to sign.
    jac : array (n1, m, nz)
        Jacobian determinant of the map at nodes (equals phi3).
    is_flat : bool
        True when f is identically zero, enabling the analytic per-mode
        fast paths downstream.
    x2_invariant : bool
        f is constant along x2 (module docstring); phi2 is then 0.
    normal : array (3, n1, n2)
        Outward non-unit normal of the interface (normal_vector(f)),
        computed on first use.
    inv_phi3 : array (n1, m, nz)
        1 / phi3 for the chain rule of mapped_gradient, read-only,
        computed on first use.
    """

    def __init__(self, grid: SlabGrid, f: np.ndarray, phi: np.ndarray):
        self.grid = grid
        self.f = f
        self.phi = phi
        self.is_flat = bool(np.all(f == 0.0))
        self.x2_invariant = _x2_constant(f[..., None])
        col = phi[:, :1 if self.x2_invariant else grid.n2]  # the x2 rule
        if self.is_flat:
            self.phi1, self.phi2 = np.zeros(col.shape), np.zeros(col.shape)
            self.phi3 = np.ones(col.shape)
            self.phi3_cell = np.ones(col.shape[:2] + (grid.ncells,))
        else:
            self.phi1, self.phi2 = _dh_pair(col)
            self.phi3 = d3_node(col, grid.dz)
            self.phi3_cell = np.diff(col, axis=-1) / grid.dz
        self.phi1_cell = _node_to_cell(self.phi1)
        self.phi2_cell = _node_to_cell(self.phi2)
        if np.min(self.phi3_cell) <= 0.0 or np.min(self.phi3) <= 0.0:
            raise DegenerateMap(
                f"d3 phi reaches {min(np.min(self.phi3_cell), np.min(self.phi3)):.3e}"
            )
        self.jac = self.phi3
        p1, p2, p3 = self.phi1_cell, self.phi2_cell, self.phi3_cell
        self.k33 = (1.0 + p1 * p1 + p2 * p2) / p3

    @cached_property
    def normal(self) -> np.ndarray:
        return _normal(self.f, self.x2_invariant)

    @cached_property
    def inv_phi3(self) -> np.ndarray:
        inv3 = 1.0 / self.phi3
        inv3.flags.writeable = False
        return inv3

    def content_hash(self) -> bytes:
        """Digest identifying grid and interface (used by snapshots)."""
        h = hashlib.sha256()
        h.update(np.array(self.grid.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.f).tobytes())
        return h.digest()


@lru_cache(maxsize=32)
def _map_profiles(n1: int, n2: int, nz: int) -> np.ndarray:
    """Read-only vertical map profiles for unit top and zero floor data,
    (n1, n2, nz), one per (Q1 column, Q2 column) of the real basis, solved
    in the shared eigenbasis with that column's true |k|^2."""
    v, mu = vertical_eigen(nz, 1, nz - 1)
    ksq = _ksq(n1, n2)[..., None]
    sub, _ = vertical_fem_rows(ksq, 1.0 / (nz - 1))
    prof = np.zeros((n1, n2, nz))
    prof[..., 1:-1] = (-sub * v[-1] / (1.0 + (ksq - 1.0) * mu)) @ v.T
    prof[..., -1] = 1.0
    prof.flags.writeable = False
    return prof


def _map_solve(grid: SlabGrid, top: np.ndarray, bottom_value: float) -> np.ndarray:
    """Solve the discrete vertical harmonic problem per basis column; the
    floor datum reaches only the mean column, whose profile is linear.
    top is a plane or its (n1, 1) x2 column (x2 rule), and so is the
    result; the basis transform of top runs on the whole plane."""
    w = top.shape[-1]
    m = 1 if w == 1 or _x2_constant(top[..., None]) else grid.n2
    c = _to_basis(np.broadcast_to(top, (grid.n1, grid.n2)), grid.n2)[:, :m, None]
    phi = _from_basis(c * _map_profiles(*grid.shape)[:, :m], grid.n2)
    return np.broadcast_to(phi, (grid.n1, w, grid.nz)) - bottom_value * grid.y3


def build_map(f: np.ndarray, grid: SlabGrid) -> CoordinateMap:
    """Harmonic coordinate map for interface f over the reference slab.

    Solves the discrete Laplace problem for the vertical map with
    Dirichlet data f on top and -1 on the floor, one cached vertical
    profile per horizontal mode.  Raises PreconditionViolated on a
    non-finite f, and DegenerateMap when the resulting map is not one-to-one
    (d3 phi <= 0 somewhere), which happens when f dips near the floor.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n1, grid.n2):
        raise GridMismatch(f"f shape {f.shape} vs grid {(grid.n1, grid.n2)}")
    if not (np.isfinite(f.min()) and np.isfinite(f.max())):
        raise PreconditionViolated("interface has non-finite entries")
    if np.max(np.abs(f)) >= 1.0:
        raise DegenerateMap("interface touches or crosses the floor depth")
    phi = _map_solve(grid, f, -1.0)
    phi[..., -1] = f
    phi[..., 0] = -1.0
    return CoordinateMap(grid, f.copy(), phi)


def map_time_derivative(cmap: CoordinateMap, dtf: np.ndarray) -> np.ndarray:
    """d(phi)/dt for a given interface velocity (zero floor data), at the
    x2 width of dtf: a plane, or the (n1, 1) x2 column of an x2-invariant
    one on an x2-invariant map."""
    return _map_solve(cmap.grid, np.asarray(dtf, dtype=float), 0.0)


def trace(w: np.ndarray) -> np.ndarray:
    """Values on the moving interface (top reference level)."""
    return np.asarray(w)[..., -1]


def bottom_trace(w: np.ndarray) -> np.ndarray:
    """Values on the floor (bottom reference level)."""
    return np.asarray(w)[..., 0]


def mapped_gradient(w: np.ndarray, cmap: CoordinateMap) -> np.ndarray:
    """Physical gradient of slab-stored scalars w, shape (..., n1, n2, nz).

    Leading axes are batch axes, differentiated in one call; the result has
    shape (..., 3, n1, n2, nz) and its entry [i] is mapped_gradient(w[i]).
    The chain rule runs as g3 = inv_phi3 d3 w first, then g_i = d_i w -
    phi_i g3, two passes per component and no slope array.  A w given by
    its x2 column (module docstring) gets a column back, with g2 exactly 0.
    """
    d3 = d3_node(w, cmap.grid.dz)
    d1, d2 = _dh_pair(w)
    # filled in place: a stack of the components would hold them twice
    g = np.empty(w.shape[:-3] + (3,) + w.shape[-3:])
    g1, g2, g3 = (g[..., i, :, :, :] for i in range(3))
    np.multiply(cmap.inv_phi3, d3, out=g3)
    for gi, di, phi in ((g1, d1, cmap.phi1), (g2, d2, cmap.phi2)):
        np.subtract(di, np.multiply(phi, g3, out=gi), out=gi)
    return g


def normal_vector(f: np.ndarray) -> np.ndarray:
    """Outward non-unit normal (-d1 f, -d2 f, 1) of the graph interface."""
    f = np.asarray(f, dtype=float)
    return _normal(f, _x2_constant(f[..., None]))


def _normal(f: np.ndarray, x2_invariant: bool) -> np.ndarray:
    """normal_vector of f, whose x2-invariance is known (as a map's is)."""
    d1 = horizontal_derivative(f, 1)
    d2 = np.zeros_like(f) if x2_invariant else horizontal_derivative(f, 2)
    return np.stack([-d1, -d2, np.ones_like(f)])


def _normal_flux(v: np.ndarray, cmap: CoordinateMap) -> np.ndarray:
    """Interface flux v.N (N = cmap.normal) of a field or its x2 column."""
    n = cmap.normal[..., :v.shape[-2]]
    return sum(n[a] * trace(v[a]) for a in range(3))
