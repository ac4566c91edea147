import numpy as np
import pytest

from elastislab import dn
from elastislab import dynamics as dyn
from elastislab import elliptic as el
from elastislab.cli import _band, _smooth_flow
from elastislab.elliptic import grad_staggered
from elastislab.geometry import (
    _dh_pair,
    _dh_pair_adjoint,
    _node_to_cell,
    map_time_derivative,
    mapped_gradient,
    trace,
    vertical_eigen,
    vertical_fem_rows,
)
from elastislab.spectral import horizontal_derivative


@pytest.fixture
def rng():
    return np.random.default_rng(20250823)


def torus_grid(n1, n2):
    """Sample coordinates of the uniform grid on [0, 2pi)^2."""
    x1 = np.arange(n1) * (2 * np.pi / n1)
    x2 = np.arange(n2) * (2 * np.pi / n2)
    return np.meshgrid(x1, x2, indexing="ij")


def random_band_limited(rng, n1, n2, kmax, amplitude=1.0):
    """Real random field with modes only inside |k1|,|k2| <= kmax."""
    return _band(rng, n1, n2, kmax, amplitude)


def thomas_batched(sub, diag, sup, rhs):
    """Solve batched tridiagonal systems along the last axis (reference).

    sub[..., i] multiplies x[..., i-1] in equation i (sub[..., 0] unused),
    sup[..., i] multiplies x[..., i+1] (sup[..., -1] unused).  All inputs
    broadcast against rhs; rhs may be complex.
    """
    n = rhs.shape[-1]
    sub = np.broadcast_to(sub, rhs.shape)
    diag = np.broadcast_to(diag, rhs.shape)
    sup = np.broadcast_to(sup, rhs.shape)
    cp = np.empty_like(diag, dtype=rhs.dtype)
    dp = np.empty_like(rhs)
    cp[..., 0] = sup[..., 0] / diag[..., 0]
    dp[..., 0] = rhs[..., 0] / diag[..., 0]
    for i in range(1, n):
        denom = diag[..., i] - sub[..., i] * cp[..., i - 1]
        cp[..., i] = sup[..., i] / denom
        dp[..., i] = (rhs[..., i] - sub[..., i] * dp[..., i - 1]) / denom
    x = np.empty_like(rhs)
    x[..., -1] = dp[..., -1]
    for i in range(n - 2, -1, -1):
        x[..., i] = dp[..., i] - cp[..., i] * x[..., i + 1]
    return x


# ---------------------------------------------------------------------------
# FFT references: the rfft2 route of each horizontal operator that now acts
# in the real Fourier basis

def rfft_wavenumbers(n1, n2):
    """Integer wavenumber arrays (k1, k2) broadcast to the rfft2 shape."""
    k1 = np.fft.fftfreq(n1, d=1.0 / n1)[:, None]
    k2 = np.fft.rfftfreq(n2, d=1.0 / n2)[None, :]
    return k1, k2


def rfft_ksq(n1, n2):
    """|k|^2 in the rfft2 layout, with the true Nyquist value."""
    k1, k2 = rfft_wavenumbers(n1, n2)
    return k1 * k1 + k2 * k2


def rfft_deriv_factors(n1, n2):
    """(i k1, i k2) rfft2 multipliers with the Nyquist rows/columns zeroed."""
    k1, k2 = rfft_wavenumbers(n1, n2)
    f1 = 1j * np.broadcast_to(k1, (n1, n2 // 2 + 1)).copy()
    f2 = 1j * np.broadcast_to(k2, (n1, n2 // 2 + 1)).copy()
    f1[n1 // 2, :] = 0.0
    f2[:, n2 // 2] = 0.0
    return f1, f2


def fft_symbol_apply(g, symbol):
    """Multiply the rfft2 coefficients of a plane field by symbol."""
    n1, n2 = g.shape
    return np.fft.irfft2(np.fft.rfft2(g) * symbol, s=(n1, n2))


def fft_horizontal_derivative(g, axis):
    """Reference for spectral.horizontal_derivative."""
    return fft_symbol_apply(g, rfft_deriv_factors(*g.shape)[axis - 1])


def fft_bessel_multiplier(g, s):
    """Reference for spectral.bessel_multiplier."""
    return fft_symbol_apply(g, (1.0 + rfft_ksq(*g.shape)) ** (0.5 * s))


def fft_mollify(g, eps):
    """Reference for spectral.mollify."""
    return fft_symbol_apply(g, np.exp(-0.25 * eps * rfft_ksq(*g.shape)))


def fft_sobolev_norm(g, s):
    """H^s norm by Parseval over rfft2 coefficients with the 1/(n1 n2)
    normalization, each column counted with its conjugate (reference for
    spectral.sobolev_norm)."""
    n1, n2 = g.shape
    c = np.fft.rfft2(g) / (n1 * n2)
    w = np.full(n2 // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    total = np.sum(w * (1.0 + rfft_ksq(n1, n2)) ** s * np.abs(c) ** 2)
    return float(2.0 * np.pi * np.sqrt(total))


def _pad(c, n1, n2, m1, m2):
    out = np.zeros((m1, m2 // 2 + 1), dtype=complex)
    half = n1 // 2
    out[:half, : n2 // 2 + 1] = c[:half]
    out[m1 - (n1 - half):, : n2 // 2 + 1] = c[half:]
    out *= (m1 * m2) / (n1 * n2)
    return out


def _unpad(c, m1, m2, n1, n2):
    out = np.zeros((n1, n2 // 2 + 1), dtype=complex)
    half = n1 // 2
    out[:half] = c[:half, : n2 // 2 + 1]
    out[half:] = c[m1 - (n1 - half):, : n2 // 2 + 1]
    out *= (n1 * n2) / (m1 * m2)
    return out


def fft_dealiased_product(g, h):
    """2/3-rule product through 3/2-padded rfft2 transforms, keeping
    |k1| <= n1//3 and |k2| <= n2//3 (reference for
    spectral.dealiased_product below Nyquist; this route doubles an x2
    Nyquist component)."""
    n1, n2 = g.shape
    m1, m2 = (3 * n1) // 2, (3 * n2) // 2
    gp = _pad(np.fft.rfft2(g), n1, n2, m1, m2)
    hp = _pad(np.fft.rfft2(h), n1, n2, m1, m2)
    big = np.fft.rfft2(np.fft.irfft2(gp, s=(m1, m2))
                       * np.fft.irfft2(hp, s=(m1, m2)))
    c = _unpad(big, m1, m2, n1, n2)
    k1, k2 = rfft_wavenumbers(n1, n2)
    c *= (np.abs(k1) <= n1 // 3) & (np.abs(k2) <= n2 // 3)
    return np.fft.irfft2(c, s=(n1, n2))


def fft_flux_symbols(n1, n2):
    """rfft2 symbols (clamped, free, inverse of free) of the flat flux maps
    (reference for dn._flux_symbols)."""
    kappa = np.sqrt(rfft_ksq(n1, n2))
    free = dn.dn_symbol_neumann(kappa)
    inverse = np.where(free > 0, 1.0 / np.where(free > 0, free, 1.0), 0.0)
    return dn.dn_symbol_dirichlet(kappa), free, inverse


def fft_flat_extension(g, grid, kind):
    """Reference for elliptic._flat_extension."""
    prof = el._stable_profiles(np.sqrt(rfft_ksq(grid.n1, grid.n2)), grid.y3,
                               kind)
    c = np.fft.rfft2(g)[..., None] * prof
    return np.fft.irfft2(c, s=(grid.n1, grid.n2), axes=(0, 1))


def fft_map_solve(grid, top, bottom_value):
    """Vertical map problem by one eigenbasis profile per rfft2 mode
    (reference for geometry._map_solve)."""
    n1, n2, nz = grid.shape
    v, mu = vertical_eigen(nz, 1, nz - 1)
    ksq = rfft_ksq(n1, n2)[..., None]
    sub, _ = vertical_fem_rows(ksq, grid.dz)
    prof = np.zeros(ksq.shape[:2] + (nz,))
    prof[..., 1:-1] = (-sub * v[-1] / (1.0 + (ksq - 1.0) * mu)) @ v.T
    prof[..., -1] = 1.0
    phi = np.fft.irfft2(np.fft.rfft2(top)[..., None] * prof, s=(n1, n2),
                        axes=(0, 1))
    return phi - bottom_value * grid.y3


def thomas_map_solve(grid, top, bottom_value):
    """Vertical harmonic map problem by one tridiagonal system per
    horizontal mode (reference for geometry._map_solve)."""
    n1, n2, nz = grid.shape
    that = np.fft.rfft2(top) / (n1 * n2)
    ksq = rfft_ksq(n1, n2)[..., None]
    sub, diag = vertical_fem_rows(ksq, grid.dz)
    rhs = np.zeros(that.shape + (nz - 2,), dtype=complex)
    bhat = np.zeros_like(that)
    bhat[0, 0] = bottom_value
    rhs[..., 0] -= sub[..., 0] * bhat
    rhs[..., -1] -= sub[..., 0] * that
    x = thomas_batched(sub, diag, sub, rhs)
    phat = np.concatenate([bhat[..., None], x, that[..., None]], axis=-1)
    return np.fft.irfft2(phat * (n1 * n2), s=(n1, n2), axes=(0, 1))


def stencil_d3_node(w, dz):
    """Node vertical derivative by slicing: centred inside, one-sided
    second order at both ends, each end taken of the differences from its
    own boundary level (reference for geometry.d3_node)."""
    b, t = w - w[..., :1], w - w[..., -1:]
    out = np.empty_like(w)
    out[..., 1:-1] = (w[..., 2:] - w[..., :-2]) / (2.0 * dz)
    out[..., 0] = (-3.0 * b[..., 0] + 4.0 * b[..., 1] - b[..., 2]) / (2.0 * dz)
    out[..., -1] = (3.0 * t[..., -1] - 4.0 * t[..., -2] + t[..., -3]) / (2.0 * dz)
    return out


def map_interior_residual(cmap):
    """Relative residual of the interior rows of the discrete map
    equations, applied per horizontal mode."""
    n1, n2, nz = cmap.grid.shape
    phat = np.fft.rfft2(cmap.phi, axes=(0, 1))
    sub, diag = vertical_fem_rows(rfft_ksq(n1, n2)[..., None], cmap.grid.dz)
    rows = sub * phat[..., :-2] + diag * phat[..., 1:-1] + sub * phat[..., 2:]
    res = np.fft.irfft2(rows, s=(n1, n2), axes=(0, 1))
    scale = np.max(np.abs(cmap.phi)) / cmap.grid.dz
    return float(np.max(np.abs(res)) / scale)


def metric_cell(cmap):
    """Flux-form metric K = J Jinv Jinv^T at vertical cell midpoints: the
    entries (k11, k22, k33, k13, k23); k12 vanishes for a graph map."""
    p3 = cmap.phi3_cell
    return p3, p3, cmap.k33, -cmap.phi1_cell, -cmap.phi2_cell


def metric_apply(cmap, q1, q2, q3):
    """K q for the cell metric K = J Jinv Jinv^T (k11 = k22 = phi3, k13 =
    -phi1, k23 = -phi2, k12 = 0, k33 kept on the map), in place: the
    inputs (full or x2 columns) are overwritten with the result and
    returned; the map's arrays broadcast along x2 (geometry's x2 rule)."""
    p1, p2, p3 = cmap.phi1_cell, cmap.phi2_cell, cmap.phi3_cell
    s = p1 * q1
    s += p2 * q2                 # -(k13 q1 + k23 q2)
    for q, p in ((q1, p1), (q2, p2)):
        q *= p3
        q -= p * q3
    q3 *= cmap.k33
    q3 -= s
    return q1, q2, q3


def ksq_eff(n1, n2):
    """|k|^2 of the zeroed-Nyquist derivative factors, rfft2 layout."""
    f1, f2 = rfft_deriv_factors(n1, n2)
    return f1.imag ** 2 + f2.imag ** 2


def kernel_mask(n1, n2):
    """rfft2 modes annihilated by both horizontal derivatives."""
    return ksq_eff(n1, n2) == 0.0


def fft_dh_pair(w):
    """Both horizontal derivatives of (..., n1, n2, nz) by 2-D transforms
    (reference for geometry._dh_pair)."""
    n1, n2 = w.shape[-3], w.shape[-2]
    f1, f2 = rfft_deriv_factors(n1, n2)
    c = np.fft.rfft2(w, axes=(-3, -2))
    d1 = np.fft.irfft2(c * f1[:, :, None], s=(n1, n2), axes=(-3, -2))
    d2 = np.fft.irfft2(c * f2[:, :, None], s=(n1, n2), axes=(-3, -2))
    return d1, d2


def fft_dh_pair_adjoint(p1, p2):
    """-(d1 p1 + d2 p2) by 2-D transforms (reference for
    geometry._dh_pair_adjoint)."""
    n1, n2 = p1.shape[-3], p1.shape[-2]
    f1, f2 = rfft_deriv_factors(n1, n2)
    c = np.fft.rfft2(p1, axes=(-3, -2)) * f1[:, :, None]
    c += np.fft.rfft2(p2, axes=(-3, -2)) * f2[:, :, None]
    return -np.fft.irfft2(c, s=(n1, n2), axes=(-3, -2))


def cell_to_node_adjoint(p):
    """Adjoint of the vertical pair average in the plain Euclidean pairing."""
    out = np.empty(p.shape[:-1] + (p.shape[-1] + 1,))
    out[..., 0] = 0.5 * p[..., 0]
    out[..., -1] = 0.5 * p[..., -1]
    out[..., 1:-1] = 0.5 * (p[..., :-1] + p[..., 1:])
    return out


def d3_cell_adjoint(p, dz):
    """Adjoint of the compact vertical difference of node levels."""
    out = np.empty(p.shape[:-1] + (p.shape[-1] + 1,))
    out[..., 0] = -p[..., 0] / dz
    out[..., -1] = p[..., -1] / dz
    out[..., 1:-1] = (p[..., :-1] - p[..., 1:]) / dz
    return out


def node_grad_staggered(u, grid):
    """Staggered gradient with the horizontal derivatives taken at nodes
    and averaged to cells afterwards (reference for
    elliptic.grad_staggered)."""
    d1, d2 = _dh_pair(u)
    return _node_to_cell(d1), _node_to_cell(d2), np.diff(u, axis=-1) / grid.dz


def node_grad_adjoint(q1, q2, q3, grid):
    """Exact adjoint of node_grad_staggered (reference for
    elliptic.grad_adjoint)."""
    out = _dh_pair_adjoint(cell_to_node_adjoint(q1), cell_to_node_adjoint(q2))
    out += d3_cell_adjoint(q3, grid.dz)
    return out


def node_apply_operator(u, cmap):
    """G^T W K G through node_grad_staggered and metric_cell (reference
    for elliptic.apply_operator)."""
    grid = cmap.grid
    q1, q2, q3 = node_grad_staggered(u, grid)
    k11, k22, k33, k13, k23 = metric_cell(cmap)
    w = grid.h1 * grid.h2 * grid.dz
    return node_grad_adjoint(w * (k11 * q1 + k13 * q3),
                             w * (k22 * q2 + k23 * q3),
                             w * (k13 * q1 + k23 * q2 + k33 * q3), grid)


def energy_product(u, v, cmap):
    """Discrete Dirichlet energy pairing a(u, v), summed from the two
    staggered gradients (reference for the operator pairing
    sum(apply_operator(u) * v))."""
    grid = cmap.grid
    q = grad_staggered(u, grid)
    m = metric_apply(cmap, *grad_staggered(v, grid))
    w = grid.h1 * grid.h2 * grid.dz
    return float(w * sum(np.sum(a * b) for a, b in zip(q, m)))


def metric_correction_cells(cmap, psi):
    """Jinv^T q of the staggered gradient q as the metric product K q
    mapped back by the inverse Piola map (reference for
    dynamics._correction_cells)."""
    m1, m2, m3 = metric_apply(cmap, *grad_staggered(psi, cmap.grid))
    p1, p2, p3 = cmap.phi1_cell, cmap.phi2_cell, cmap.phi3_cell
    v1, v2 = m1 / p3, m2 / p3
    return v1, v2, m3 + p1 * v1 + p2 * v2


def fft_flat_solve(r, grid, z0, z1):
    """Flat-operator solve with the vertical eigenbasis between 2-D
    transforms (reference for elliptic._flat_solve)."""
    n1, n2, nz = grid.shape
    v, mu = vertical_eigen(nz, z0, z1)
    denom = grid.h1 * grid.h2 * (1.0 + (ksq_eff(n1, n2)[..., None] - 1.0) * mu)
    mask = kernel_mask(n1, n2)
    neumann_all = z0 == 0 and z1 == nz
    if neumann_all:
        c = int(np.argmax(mu))
        denom[mask, c] = np.inf
        w = v.sum(axis=0) / v.sum(axis=0)[c]
        w[c] = 0.0
    shape = r.shape
    y = np.fft.rfft2((r.reshape(-1, shape[-1]) @ v).reshape(shape), axes=(0, 1))
    y *= 1.0 / denom
    if neumann_all:
        y[mask, c] = -(y[mask] @ w)
    x = np.fft.irfft2(y, s=(n1, n2), axes=(0, 1))
    return (x.reshape(-1, shape[-1]) @ v.T).reshape(shape)


def fft_project_kernel(r, grid):
    """All-Neumann kernel removal by 2-D transforms (reference for
    elliptic._project_kernel)."""
    c = np.fft.rfft2(r, axes=(0, 1))
    mask = kernel_mask(grid.n1, grid.n2)
    c[mask, :] -= np.mean(c[mask, :], axis=-1, keepdims=True)
    return np.fft.irfft2(c, s=(grid.n1, grid.n2), axes=(0, 1))


def free_level_flat_solve(r, grid, z0, z1):
    """Flat-operator solve on an array of the free levels [z0, z1) only
    (reference for elliptic._flat_solve on full node arrays)."""
    v, inv, kernel = el._flat_eigen(grid.n1, grid.n2, grid.nz, z0, z1)
    v = v[z0:z1]
    shape = r.shape
    y = el._to_basis((r.reshape(-1, shape[-1]) @ v).reshape(shape), grid.n2)
    y *= inv
    if kernel is not None:
        c, w = kernel
        corners = y[::grid.n1 - 1, ::grid.n2 - 1]
        corners[..., c] = -(corners @ w)
    return (el._from_basis(y, grid.n2).reshape(-1, shape[-1]) @ v.T).reshape(shape)


def flat_work(r):
    """Three new buffers of r's size for elliptic._flat_solve."""
    return [np.empty(r.size) for _ in range(3)]


def free_level_pcg(cmap, bf, z0, z1, project_constants, x0):
    """PCG on free-level arrays, each operator application padded to full
    node shape and sliced back (reference for the PCG of
    elliptic.solve_weak)."""
    grid = cmap.grid
    full = np.zeros(grid.shape)  # boundary levels outside [z0, z1) stay 0

    def apply_free(xf):
        full[..., z0:z1] = xf
        return el.apply_operator(full, cmap)[..., z0:z1]

    bnorm = float(np.linalg.norm(bf))
    if bnorm == 0.0:
        return np.zeros_like(bf), 0, 0.0
    if x0 is not None:
        x = x0.copy()
        r = bf - apply_free(x)
    else:
        x = np.zeros_like(bf)
        r = bf.copy()
    if project_constants:
        r -= np.mean(r)
    z = free_level_flat_solve(r, grid, z0, z1)
    if project_constants:
        z -= np.mean(z)
    p = z.copy()
    rz = float(np.sum(r * z))
    for it in range(1, el.MAXITER + 1):
        ap = apply_free(p)
        alpha = rz / float(np.sum(p * ap))
        x += alpha * p
        r -= alpha * ap
        if project_constants:
            r -= np.mean(r)
        rel = float(np.linalg.norm(r)) / bnorm
        if rel <= el.DEFAULT_TOL:
            return x, it, rel
        z = free_level_flat_solve(r, grid, z0, z1)
        if project_constants:
            z -= np.mean(z)
        rz, rz_old = float(np.sum(r * z)), rz
        p *= rz / rz_old
        p += z
    raise AssertionError("reference pcg did not converge")


def free_level_solve_weak(cmap, load, top=0.0, bottom=None, x0=None):
    """elliptic.solve_weak through free_level_pcg (reference)."""
    grid = cmap.grid
    z0 = 0 if bottom is None else 1
    z1 = grid.nz if top is None else grid.nz - 1
    b = np.zeros(grid.shape)
    if load is not None:
        b += load
    u = np.zeros(grid.shape)
    if top is not None:
        u[..., -1] = top
    if bottom is not None:
        u[..., 0] = bottom
    if np.any(u):
        b -= el.apply_operator(u, cmap)
    bf = b[..., z0:z1]
    neumann_all = z0 == 0 and z1 == grid.nz
    if neumann_all:
        bf = el._project_kernel(bf, grid)
    x, iters, _ = free_level_pcg(cmap, bf, z0, z1, neumann_all,
                                 None if x0 is None else x0[..., z0:z1])
    u[..., z0:z1] += x
    return u, iters


def loop_resample_columns(field, phi_old, phi_new):
    """One np.interp call per column and batch scalar (reference for
    dynamics._resample_columns)."""
    out = np.empty_like(field)
    for idx in np.ndindex(field.shape[:-1]):
        out[idx] = np.interp(phi_new[idx[-2:]], phi_old[idx[-2:]], field[idx])
    return out


def full_gradient_stack(state):
    """Every mapped gradient of u and F, constant scalars included
    (reference for dynamics._gradient_stack)."""
    du = mapped_gradient(state.u, state.cmap)
    dF = np.stack([mapped_gradient(state.F[j], state.cmap) for j in range(3)])
    return du, dF


def full_pressure_source(du, dF):
    """All 36 products of the pressure source (reference for
    dynamics._pressure_source)."""
    src = np.zeros(du.shape[2:])
    for a in range(3):
        for b in range(3):
            src -= du[a][b] * du[b][a]
            for j in range(3):
                src += dF[j, a][b] * dF[j, b][a]
    return src


def full_rates(state, du, dF):
    """The bulk rates of u and F with every product formed (reference for
    dynamics.bulk_rhs)."""
    dp = dyn.assemble_pressure(state).grad
    dtphi = map_time_derivative(state.cmap, dyn.kinematic_rate(state))
    u, F = state.u, state.F
    rate_u = np.empty_like(u)
    for a in range(3):
        adv = sum(u[b] * du[a][b] for b in range(3))
        ela = sum(F[j, b] * dF[j, a][b] for j in range(3) for b in range(3))
        rate_u[a] = -adv - dp[a] + ela + dtphi * du[a][2]
    rate_F = np.empty_like(F)
    for j in range(3):
        for a in range(3):
            adv = sum(u[b] * dF[j, a][b] for b in range(3))
            stretch = sum(F[j, b] * du[a][b] for b in range(3))
            rate_F[j, a] = -adv + stretch + dtphi * dF[j, a][2]
    return rate_u, rate_F


def interface_theta_rhs(state, theta):
    """Interface acceleration of the second-order formulation: advection of
    theta, surface Hessian terms of the velocity and column traces, the
    ring-pressure flux (only the top row of its source load enters) and
    the regularizing Laplacian.  Runs before the state's bulk rates,
    which let its gradient stack go."""
    du, dF = (g[..., -1] for g in dyn._gradients(state)[:2])
    src = np.zeros(state.grid.shape)
    src[..., -1] = (np.einsum("jab...,jba...->...", dF, dF)
                    - np.einsum("ab...,ba...->...", du, du))
    ring = dyn.assemble_pressure(state).ring
    ubar, Fbar = trace(state.u[:2]), trace(state.F[:, :2])
    dh = horizontal_derivative
    hess = [[dh(dh(state.f, i), k) for k in (1, 2)] for i in (1, 2)]
    out = -2.0 * (ubar[0] * dh(theta, 1) + ubar[1] * dh(theta, 2))
    out += sum((np.sum(Fbar[:, i] * Fbar[:, k], axis=0) - ubar[i] * ubar[k])
               * hess[i][k] for i in range(2) for k in range(2))
    out -= el.boundary_flux_top(ring, state.cmap, el.volume_load(src, state.cmap))
    return out + state.eps * (hess[0][0] + hess[1][1])


def step_theta(state, theta, dt):
    """RK4 step of the second-order interface formulation, a reference
    for dynamics.step: theta, not the kinematic rate, moves the interface
    and the grid.  Returns (new state, new theta)."""

    def rhs(pair):
        st, th = pair
        du, dF = dyn._gradients(st)[:2]  # kept: bulk_rhs lets the stack go
        dtheta = interface_theta_rhs(st, th)
        dtf, rate_u, rate_F = dyn.bulk_rhs(st)
        # bulk_rhs moves the grid with the kinematic rate dtf; use theta
        dtf_theta = th - np.mean(th)
        shift = map_time_derivative(st.cmap, dtf_theta - dtf)
        rate_u += shift * du[:, 2]
        rate_F += shift * dF[:, :, 2]
        return (dtf_theta, dtheta, rate_u, rate_F)

    def advance(pair, h, k):
        st, th = pair
        return (dyn._advance(st, h, (k[0], k[2], k[3])), th + h * k[1])

    new, theta = dyn._rk4((state, theta), dt, rhs, advance)
    new, _ = dyn._reproject(new, dyn.REPROJECT_THRESHOLD)
    return new, theta


def sample_flow(n, nz, amp, eps):
    """Prepared state: wavy interface over a sheared elastic background.

    The background columns are horizontal constants (a vertical constant
    cannot be divergence free with a sealed floor); perturbations scale
    with amp and vanish at the floor where required.
    """
    return _smooth_flow(n, n, nz, amp, eps)


def mixed_flow(n, nz, c0):
    """Prepared state whose two stability mechanisms live on different bands.

    A wave-like velocity makes the Taylor coefficient peak near x1 = 0 and
    pi (those bands form the first region); a second deformation column
    whose strength follows sin^2(x1) makes the non-collinearity modulus
    large only near x1 = pi/2 and 3pi/2 (the second region).  With
    c0 = 0.22 each condition fails outside its own region; with c0 = 0.1
    the regioned report has wide margins for short monitored runs.
    Region geometry needs the 4-spacing indicator smoothing to be narrow
    relative to the bands, so use n >= 32.
    """
    from elastislab.cli import build_scenario, preset

    return build_scenario(preset("mixed-regions", n1=n, n2=n, nz=nz, c0=c0))


def ablation_flow(n, nz, amp=0.1, uamp=0.06, famp=0.05, eps=0.08):
    """Prepared state with every interface-equation term well above the
    discretization floor: strong velocity, column perturbations and
    regularization on top of the sheared background."""
    from elastislab.geometry import SlabGrid
    from elastislab.dynamics import prepare_initial_data

    grid = SlabGrid(n, n, nz)
    x1, x2 = grid.horizontal_meshes()
    y = grid.y3
    f0 = amp * (np.cos(x1) + 0.6 * np.sin(x2) + 0.3 * np.cos(x1 + 2 * x2))
    u0 = np.zeros((3, n, n, nz))
    u0[0] = uamp * np.sin(x1)[..., None] * np.cos(np.pi * (y + 1) / 2)
    u0[1] = uamp * np.cos(x2)[..., None] * (0.5 + 0.5 * (1 + y))
    u0[2] = uamp * (np.sin(x2) * np.cos(x1))[..., None] * (1 + y)
    F0 = np.zeros((3, 3, n, n, nz))
    F0[0, 0] = 1.0
    F0[1, 1] = 1.0
    F0[2, 0] = 0.5
    F0[2, 1] = 0.2
    F0[0, 1] = famp * np.sin(x2)[..., None]
    F0[1, 0] = famp * np.cos(x1 + x2)[..., None] * (1 + 0.3 * y)
    F0[0, 2] = famp * np.sin(x1)[..., None] * (1 + y)
    state, _ = prepare_initial_data(f0, u0, F0, eps=eps)
    return state
