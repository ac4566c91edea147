"""Coupled evolution of the interface and the incompressible elastic bulk.

The state lives on the reference slab: the interface height together with
the velocity and the three deformation columns, all stored as physical
components sampled at slab nodes.  Time stepping is arbitrary
Lagrangian-Eulerian: the harmonic coordinate map follows the interface, so
every right-hand side is the material rate corrected by the grid motion.

Incompressibility and the column constraints are enforced with discrete
Helmholtz-type projections built on the same symmetric weak operator as
the elliptic solvers.  The corrections are exact cell-average lifts of a
weak potential gradient, which keeps the projected fields weakly
divergence free up to the linear-solver tolerance and, for the
normal-trace variant, zeroes the weak interface flux exactly.

Pressure splits into a bilinear part (zero on the interface) and, when
the interface regularization is on, a harmonic part whose interface trace
realizes the regularizing boundary condition through a single Neumann
solve.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    CeilingViolated,
    GridMismatch,
    InsufficientHistory,
    PreconditionViolated,
)
from .geometry import (
    CoordinateMap,
    SlabGrid,
    _node_to_cell,
    _normal_flux,
    _spread,
    _x2_extent,
    bottom_trace,
    build_map,
    map_time_derivative,
    mapped_gradient,
    trace,
)
from .spectral import horizontal_derivative, mollify
from .elliptic import (
    grad_adjoint,
    grad_staggered,
    harmonic_ext_dirichlet,
    solve_weak,
    volume_load,
    volume_weights,
)
from .dn import apply_dn

__all__ = [
    "FlowState",
    "PressurePieces",
    "assemble_pressure",
    "bulk_rhs",
    "divergence_field",
    "divergence_residual",
    "evo_residual",
    "interface_accel_rhs",
    "invariant_report",
    "kinematic_rate",
    "normal_trace_defect",
    "prepare_initial_data",
    "project_div",
    "project_div_normal",
    "stable_dt",
    "step",
    "weak_div_load",
]

REPROJECT_THRESHOLD = 1e-6
PROJECTION_ROUNDS = 3
TRACE_TOL = 1e-12

ABLATABLE_TERMS = (
    "taylor",
    "elastic",
    "epsilon",
    "stretch",
    "velocity",
    "pressure",
    "pbar",
)


# ---------------------------------------------------------------------------
# state container


class FlowState:
    """Immutable snapshot of the coupled system on the reference slab.

    Attributes
    ----------
    t : float
    f : array (n1, n2)
        Mean-zero interface height.
    u : array (3, n1, n2, nz)
        Physical velocity components at slab nodes.
    F : array (3, 3, n1, n2, nz)
        Deformation columns; F[j, a] is component a of column j.
    eps : float
        Interface regularization strength (0 disables it).
    s : int
        Sobolev index used by the energy functionals.
    c0 : float
        Stability threshold; also sets the interface height ceiling.
    regions : optional pair of rectangle tuples for the two stability
        regions, passed through to the diagnostics.
    cmap : CoordinateMap for f, built on construction.

    Construction rejects non-finite f, u or F with PreconditionViolated,
    then normalizes the fields onto the constraint set: the
    interface mean is removed, and the floor rows of u3 and of every
    F[j, 3] are zeroed.  The Runge-Kutta stages rely on this overwrite.
    f, u and F are then made read-only, so the quantities derived from
    them on first use (the pressure together with its gradient, the
    invariant report, and the gradient stack until bulk_rhs has read it)
    are kept on the state and never go stale.
    A state made by with_fields starts its pressure solves from its
    parent's pressure; a directly constructed one solves cold.

    The finiteness scan takes the min and max of each of the 12 bulk
    scalars (u[a], then F[j, a]), and keeps two flags per scalar in
    (4, 3) arrays, row 0 for u and row 1 + j for F[j]: _varies (not
    constant) and _nonzero (not all zero).  They describe the fields
    after the floor rows are zeroed and may be conservative: a scalar
    whose only nonzero entries sat on its floor row is still flagged.
    The gradient stack, the pressure source, the rates and the
    invariants skip what the flags show to be exactly 0.
    """

    __slots__ = ("t", "f", "u", "F", "eps", "s", "c0", "regions", "cmap",
                 "_varies", "_nonzero",
                 "_gradients", "_pressure", "_invariants", "_hint")

    def __init__(self, t, f, u, F, eps, s=4, c0=0.1, regions=None):
        f = np.asarray(f, dtype=float)
        u = np.array(u, dtype=float)
        F = np.array(F, dtype=float)
        if u.shape[0] != 3 or F.shape[:2] != (3, 3):
            raise GridMismatch(f"component axes: u {u.shape}, F {F.shape}")
        if u.shape[1:3] != f.shape or F.shape[2:4] != f.shape:
            raise GridMismatch(f"plane shapes: f {f.shape}, u {u.shape}")
        # min/max see NaN and inf with no field-sized temporary; taken per
        # scalar of u and F they also tell which scalars are constant
        lo = np.concatenate(([f.min()], u.reshape(3, -1).min(axis=1),
                             F.reshape(9, -1).min(axis=1)))
        hi = np.concatenate(([f.max()], u.reshape(3, -1).max(axis=1),
                             F.reshape(9, -1).max(axis=1)))
        finite = np.isfinite(lo) & np.isfinite(hi)
        if not finite.all():
            name = ("f" + "u" * 3 + "F" * 9)[np.argmin(finite)]
            raise PreconditionViolated(f"{name} has non-finite entries")
        lo, hi = lo[1:].reshape(4, 3), hi[1:].reshape(4, 3)
        f = f - np.mean(f)
        ceiling = 1.0 - c0
        if np.max(np.abs(f)) >= ceiling:
            raise CeilingViolated(
                f"max |f| = {np.max(np.abs(f)):.3e} >= {ceiling:.3e}"
            )
        u[2, ..., 0] = 0.0
        F[:, 2, ..., 0] = 0.0
        # the zeroed floor rows join the range of the third components
        np.minimum(lo[:, 2], 0.0, out=lo[:, 2])
        np.maximum(hi[:, 2], 0.0, out=hi[:, 2])
        self._varies = lo < hi
        self._nonzero = (lo != 0.0) | (hi != 0.0)
        for a in (f, u, F):
            a.flags.writeable = False
        self.t = float(t)
        self.f = f
        self.u = u
        self.F = F
        self.eps = float(eps)
        self.s = int(s)
        self.c0 = float(c0)
        self.regions = regions
        self.cmap = build_map(f, SlabGrid(*f.shape, u.shape[-1]))
        self._gradients = None
        self._pressure = None
        self._invariants = None
        self._hint = None

    @property
    def grid(self) -> SlabGrid:
        return self.cmap.grid

    def with_fields(self, t, f, u, F) -> "FlowState":
        """New state with the same parameters; its pressure solves start
        from this state's pressure (or from this state's own start when
        it never solved one)."""
        new = FlowState(t, f, u, F, self.eps, self.s, self.c0, self.regions)
        new._hint = self._pressure if self._pressure is not None else self._hint
        return new


def _surface_laplacian(g: np.ndarray) -> np.ndarray:
    return (horizontal_derivative(horizontal_derivative(g, 1), 1)
            + horizontal_derivative(horizontal_derivative(g, 2), 2))


def _transport(g: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Surface transport v1 d1 g + v2 d2 g."""
    return v1 * horizontal_derivative(g, 1) + v2 * horizontal_derivative(g, 2)


def _material_rate(ddt: np.ndarray, g: np.ndarray, ub) -> np.ndarray:
    """Material rate ddt + ub[0] d1 g + ub[1] d2 g of a surface field g."""
    return (ddt + ub[0] * horizontal_derivative(g, 1)
            + ub[1] * horizontal_derivative(g, 2))


def kinematic_rate(state: FlowState) -> np.ndarray:
    """Interface velocity u.N from the velocity trace, mean removed."""
    dtf = _normal_flux(state.u, state.cmap)
    return dtf - np.mean(dtf)


# ---------------------------------------------------------------------------
# weak divergence and projections


def _piola_cell(cmap: CoordinateMap, v1, v2, v3):
    """Flux components J Jinv v at vertical cell midpoints, of full fields
    or x2 columns; the map's arrays broadcast along x2."""
    p1, p2, p3 = cmap.phi1_cell, cmap.phi2_cell, cmap.phi3_cell
    return p3 * v1, p3 * v2, v3 - p1 * v1 - p2 * v2


def weak_div_load(v: np.ndarray, cmap: CoordinateMap) -> np.ndarray:
    """Weak divergence functional of a vector field, one row per level.

    Row r is the integral of div(v) against the hat function of level r,
    written through the flux form so that the interface and floor rows
    carry the true boundary fluxes v.N and -v3.  Constant fields are
    exactly annihilated on any map.  Works on x2 columns where it can.
    """
    grid = cmap.grid
    v = v[..., :_x2_extent(cmap, v), :]
    m1, m2, m3 = _piola_cell(cmap, *(_node_to_cell(v[a]) for a in range(3)))
    w = grid.h1 * grid.h2 * grid.dz
    b = -grad_adjoint(w * m1, w * m2, w * m3, grid)
    area = grid.h1 * grid.h2
    b[..., -1] += area * _normal_flux(v, cmap)
    b[..., 0] += -area * bottom_trace(v[2])
    return _spread(b, grid.n2)


def divergence_field(v: np.ndarray, cmap: CoordinateMap) -> np.ndarray:
    """Nodal divergence estimate: the weak load scaled back to a density."""
    return weak_div_load(v, cmap) / volume_weights(cmap)


def divergence_residual(v: np.ndarray, cmap: CoordinateMap) -> float:
    """Max-norm of the divergence density over interior levels.

    The two boundary rows are excluded: each projection variant leaves
    exactly one of them outside the solved system (see project_div and
    project_div_normal), so the interior rows are the common monitored
    quantity.
    """
    return float(np.max(np.abs(divergence_field(v, cmap)[..., 1:-1])))


def normal_trace_defect(v: np.ndarray, cmap: CoordinateMap) -> float:
    """Max-norm of v.N on the interface."""
    return float(np.max(np.abs(_normal_flux(v, cmap))))


@lru_cache(maxsize=16)
def _lift_matrix(nc: int) -> np.ndarray:
    """(A A^T)^-1 A for the node-to-cell averaging A of nc cells."""
    a = 0.5 * (np.eye(nc, nc + 1) + np.eye(nc, nc + 1, 1))
    m = np.linalg.solve(a @ a.T, a)
    m.flags.writeable = False
    return m


def _minnorm_lift(q: np.ndarray) -> np.ndarray:
    """Node field whose vertical pair averages equal q, minimal L2 norm.

    That is A^T (A A^T)^-1 q with A the node-to-cell averaging, applied
    along the last axis as one product with a cached matrix.
    """
    return q @ _lift_matrix(q.shape[-1])


def _anchored_lift(q: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Node field with prescribed floor value and pair averages q.

    The recursion c_{j+1} = 2 q_j - c_j is evaluated upward from the
    floor through signed cumulative sums.
    """
    nc = q.shape[-1]
    sign = (-1.0) ** np.arange(1, nc + 1)
    t = np.cumsum(2.0 * sign * q, axis=-1)
    out = np.empty(q.shape[:-1] + (nc + 1,))
    out[..., 0] = anchor
    out[..., 1:] = (t + anchor[..., None]) * sign
    return out


def _correction_cells(cmap: CoordinateMap, psi: np.ndarray):
    """Cell components Jinv^T q of the gradient-type correction for a
    potential, q its staggered gradient: the chain rule of mapped_gradient
    at cells, g3 = q3 / phi3 first, then g_i = q_i - phi_i g3."""
    q1, q2, q3 = grad_staggered(psi, cmap.grid)
    q3 /= cmap.phi3_cell
    for q, p in ((q1, cmap.phi1_cell), (q2, cmap.phi2_cell)):
        q -= p * q3
    return q1, q2, q3


def _gradient_correction(cmap: CoordinateMap, psi: np.ndarray):
    """Node-valued correction field with exact cell averages.

    The bulk of the correction is the smooth physical gradient of the
    potential; the O(dz^2) gap between its vertical pair averages and the
    exact cell data is repaired by the lifts.  Feeding the full cell data
    to the lifts instead would put the whole correction into them and
    leave a vertical two-node oscillation of amplitude O(dz), which the
    one-sided interface stencils turn into an O(1) gradient error.
    Components 1 and 2 use the minimum-norm lift; component 3 is anchored
    so the floor value of the total is exactly zero.  The cell data and
    the gradient of an x2-invariant psi are taken on its x2 column; the
    gap they leave broadcasts to full width, so the lifts, dense products
    along z (rounded by the row count on some BLAS), run on every row.
    """
    col = psi[..., :_x2_extent(cmap, psi), :]
    q1, q2, q3 = _correction_cells(cmap, col)
    g = mapped_gradient(col, cmap)
    corr = np.empty((3,) + psi.shape)
    corr[0] = g[0] + _minnorm_lift(q1 - _node_to_cell(g[0]))
    corr[1] = g[1] + _minnorm_lift(q2 - _node_to_cell(g[1]))
    corr[2] = g[2] + _anchored_lift(q3 - _node_to_cell(g[2]),
                                    -bottom_trace(g[2]))
    return corr


def project_div(v: np.ndarray, cmap: CoordinateMap):
    """Remove the weak divergence of a velocity-type field.

    The potential solves the weak system with the top level excluded
    (Dirichlet zero) and the floor natural, so the interface trace of v
    is left free while the floor row is corrected.  The correction is the
    potential gradient with exact cell averages and an exactly zero floor
    value (see _gradient_correction).

    Returns (projected field, info dict).
    """
    psi, info = solve_weak(cmap, -weak_div_load(v, cmap))
    return v - _gradient_correction(cmap, psi), info


def project_div_normal(v: np.ndarray, cmap: CoordinateMap):
    """Remove the weak divergence, zero v.N on the interface, seal the floor.

    Each of at most PROJECTION_ROUNDS rounds solves the all-Neumann system
    whose interface row carries the remaining trace defect and applies the
    floor-anchored lift of the potential gradient.  The floor value stays
    exactly zero, every divergence row below the interface is met to the
    solver tolerance, and the interface trace is met in the variational
    sense exactly: its pointwise defect drops to the consistency order of
    the input defect (exactly on a flat map) and is reported in
    info["trace_defect"].  Divergence-free inputs that already satisfy the
    trace pass through unchanged.

    Returns (projected field, info dict with rounds and solver iterations).
    """
    grid = cmap.grid
    area = grid.h1 * grid.h2
    scale = max(1.0, float(np.max(np.abs(v))))
    work = np.array(v, dtype=float)
    floor0 = bottom_trace(work[2]).copy()
    if np.any(floor0 != 0.0):
        # carry a nonzero floor value into the divergence defect smoothly
        work[2] -= floor0[..., None] * (-grid.y3)
    info = {"rounds": 0, "iterations": 0, "trace_defect": np.inf}
    last = np.inf
    for _ in range(PROJECTION_ROUNDS):
        d = _normal_flux(work, cmap)
        b = -weak_div_load(work, cmap)
        b[..., -1] += area * d
        psi, inf = solve_weak(cmap, b, top=None)
        work = work - _gradient_correction(cmap, psi)
        info["rounds"] += 1
        info["iterations"] += inf["iterations"]
        cur = normal_trace_defect(work, cmap)
        info["trace_defect"] = cur
        if cur <= TRACE_TOL * scale or cur >= 0.5 * last:
            break  # converged, or hit the consistency-order plateau
        last = cur
    return work, info


# ---------------------------------------------------------------------------
# pressure assembly


class PressurePieces:
    """Pressure split p = ring (bilinear part) + bar (regularization),
    kept with grad, its mapped gradient (3, n1, n2, nz).

    info maps "ring", and "bar" when there is a bar part, to the solve's
    iterations and final relative residual.
    """

    __slots__ = ("grad", "ring", "bar", "info")

    def __init__(self, ring, bar, grad, info):
        self.ring = ring
        self.bar = bar
        self.grad = grad
        self.info = info


def _gradient_stack(state: FlowState):
    """Mapped gradients of u and of all deformation components, and which
    of their entries are nonzero.

    The gradient of a constant scalar is exactly +-0 (the horizontal
    derivatives subtract the first row, d3_node differences from its
    boundary levels), so it is not taken: its rows stay 0, and a field
    whose scalars are all constant gets no call.  The varying rows of a
    field are differentiated in one call, written in place: a nine-field
    batch or a final stack of the columns would raise a step's peak
    memory.  Returns (du, dF, du_nonzero, dF_nonzero), the flags of
    shape (3, 3) and (3, 3, 3) from one reduction per stack.
    """
    cmap = state.cmap
    du = np.zeros((3, 3) + state.grid.shape)
    dF = np.zeros((3,) + du.shape)
    for field, varies, out in zip((state.u, *state.F), state._varies,
                                  (du, *dF)):
        if varies.any():
            out[varies] = mapped_gradient(field[varies], cmap)
    return (du, dF, du.reshape(9, -1).any(axis=1).reshape(3, 3),
            dF.reshape(27, -1).any(axis=1).reshape(3, 3, 3))


def _gradients(state: FlowState):
    """The state's gradient stack, built on first use and kept."""
    if state._gradients is None:
        state._gradients = _gradient_stack(state)
    return state._gradients


def _pressure_source(state: FlowState) -> np.ndarray:
    """Quadratic pressure source: elastic minus velocity stretching.

    Only products of two nonzero gradient entries are formed, in the
    order of the full double sum, so the result equals that sum up to
    the sign of zero."""
    du, dF, du_nz, dF_nz = _gradients(state)
    src = np.zeros(state.grid.shape)
    for a in range(3):
        for b in range(3):
            if du_nz[a, b] and du_nz[b, a]:
                src -= du[a, b] * du[b, a]
            for j in range(3):
                if dF_nz[j, a, b] and dF_nz[j, b, a]:
                    src += dF[j, a, b] * dF[j, b, a]
    return src


def assemble_pressure(state: FlowState) -> PressurePieces:
    """Pressure and its gradient, solved at DEFAULT_TOL on first use and kept.

    The ring part carries the quadratic sources (velocity stretching
    minus elastic stretching) with zero interface value and natural
    floor; the bar part is harmonic with interface flux given by the
    regularizing surface operator, fixed by a mean-zero interface trace.
    Both solves start from the parent state's pieces when the state was
    made by with_fields, so they agree with a cold solve to the solver
    tolerance, not bit for bit.
    """
    if state._pressure is not None:
        return state._pressure
    cmap = state.cmap
    hint, state._hint = state._hint, None
    src = _pressure_source(state)
    info = {}
    ring, info["ring"] = solve_weak(cmap, volume_load(src, cmap),
                                    x0=None if hint is None else hint.ring)
    bar = None
    if state.eps != 0.0:
        grid = state.grid
        flux = -state.eps * _surface_laplacian(state.f)
        load = np.zeros(grid.shape)
        load[..., -1] = (grid.h1 * grid.h2) * flux
        bar, info["bar"] = solve_weak(cmap, load, top=None,
                                      x0=None if hint is None else hint.bar)
        bar = bar - np.mean(trace(bar))
    grad = mapped_gradient(ring if bar is None else ring + bar, cmap)
    state._pressure = PressurePieces(ring, bar, grad, info)
    return state._pressure


# ---------------------------------------------------------------------------
# bulk rates


def bulk_rhs(state: FlowState):
    """Reference-frame time derivatives of (f, u, F).

    Material momentum and transport rates plus the grid-motion correction
    dt(phi) d3(.) from the moving harmonic map, which follows the
    kinematic interface rate.

    The rates are the last reader of the state's gradient stack in a
    step, so the state lets it go here: a kept history of stepped states
    then holds no stacks.
    Only products of two nonzero factors are formed (the state's
    _nonzero flags and the stack's zero pattern), in the order of the
    full sums, so the rates equal them up to the sign of zero.
    """
    cmap = state.cmap
    dp = assemble_pressure(state).grad
    du, dF, du_nz, dF_nz = _gradients(state)
    state._gradients = None
    dtf = kinematic_rate(state)
    dtphi = map_time_derivative(cmap, dtf)
    u, F = state.u, state.F
    u_nz, F_nz = state._nonzero[0], state._nonzero[1:]
    rate_u = np.empty_like(u)
    for a in range(3):
        adv = _sum_products((u[b], du[a, b]) for b in range(3)
                            if u_nz[b] and du_nz[a, b])
        ela = _sum_products((F[j, b], dF[j, a, b])
                            for j in range(3) for b in range(3)
                            if F_nz[j, b] and dF_nz[j, a, b])
        out = rate_u[a]
        np.negative(adv, out=out)
        out -= dp[a]
        out += ela
        if du_nz[a, 2]:
            out += dtphi * du[a, 2]
    rate_F = np.empty_like(F)
    for j in range(3):
        for a in range(3):
            adv = _sum_products((u[b], dF[j, a, b]) for b in range(3)
                                if u_nz[b] and dF_nz[j, a, b])
            stretch = _sum_products((F[j, b], du[a, b]) for b in range(3)
                                    if F_nz[j, b] and du_nz[a, b])
            out = rate_F[j, a]
            np.negative(adv, out=out)
            out += stretch
            if dF_nz[j, a, 2]:
                out += dtphi * dF[j, a, 2]
    return dtf, rate_u, rate_F


def _sum_products(pairs):
    """Sum of x * y over the pairs, left to right and in place; 0.0 for
    none."""
    total = 0.0
    for k, (x, y) in enumerate(pairs):
        if k == 0:
            total = x * y
        else:
            total += x * y
    return total


# ---------------------------------------------------------------------------
# interface evolution identities


def interface_accel_rhs(state: FlowState, ablate: str | None = None):
    """Right-hand sides of the material second-derivative law for d_i f.

    Returns the pair (i = 1, 2) of surface fields that the second
    material derivative of the interface slope must match.  The term
    groups can be dropped one at a time through `ablate` for sensitivity
    checks: "taylor" (pressure-coefficient DN term), "elastic" (squared
    column transport), "epsilon" (regularizing Laplacian), "stretch"
    (column-gradient cross terms), "velocity" (moving-frame drag),
    "pressure" (interface flux of the shifted ring gradient), "pbar"
    (regularization pressure drag).
    """
    if ablate is not None and ablate not in ABLATABLE_TERMS:
        raise ValueError(f"unknown term {ablate!r}")
    cmap = state.cmap
    pressure = assemble_pressure(state)
    f = state.f
    dring = mapped_gradient(pressure.ring, cmap)
    d3ring_top = trace(dring[2])
    ubar = [trace(state.u[a]) for a in range(3)]
    Fbar = [[trace(state.F[j, sidx]) for j in range(3)] for sidx in range(2)]
    theta = kinematic_rate(state)
    df = [horizontal_derivative(f, 1), horizontal_derivative(f, 2)]
    # material rate of the slopes: d_j(theta) + ubar . grad' d_j f
    dt_slope = [_material_rate(horizontal_derivative(theta, j + 1), df[j], ubar)
                for j in range(2)]
    if state.eps != 0.0:
        dbar = mapped_gradient(pressure.bar, cmap)
        dbar_top = [trace(dbar[0]), trace(dbar[1])]

    def column_d(g, j):
        return _transport(g, Fbar[0][j], Fbar[1][j])

    out = []
    for i in range(2):
        di_f = df[i]
        acc = np.zeros_like(di_f)
        if ablate != "taylor":
            acc += d3ring_top * apply_dn(di_f, cmap)
        if ablate != "elastic":
            for j in range(3):
                acc += column_d(column_d(di_f, j), j)
        if state.eps != 0.0 and ablate != "epsilon":
            acc += state.eps * _surface_laplacian(di_f)
        if ablate != "stretch":
            for j in range(3):
                for sidx in range(2):
                    acc += 2.0 * horizontal_derivative(Fbar[sidx][j], i + 1) \
                        * column_d(df[sidx], j)
        if ablate != "velocity":
            for j in range(2):
                acc -= (2.0 * horizontal_derivative(ubar[j], i + 1)
                        * dt_slope[j])
        if ablate != "pressure":
            ext = harmonic_ext_dirichlet(di_f, cmap)
            q = dring[i] + dring[2] * ext
            dq = mapped_gradient(q, cmap)
            acc -= _normal_flux(dq, cmap)
        if state.eps != 0.0 and ablate != "pbar":
            for sidx in range(2):
                acc -= horizontal_derivative(di_f, sidx + 1) * dbar_top[sidx]
        out.append(acc)
    return out[0], out[1]


def evo_residual(states, ablate: str | None = None) -> float:
    """Relative defect of the interface acceleration law on a trajectory.

    Needs at least five uniformly spaced states; the material second
    derivative of the interface slopes is formed by centered differences
    of material first derivatives at the middle state and compared with
    the assembled right-hand side.
    """
    states = list(states)
    if len(states) < 5:
        raise InsufficientHistory(f"need 5 states, got {len(states)}")
    times = np.array([st.t for st in states])
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-12 * max(abs(dts[0]), 1e-30):
        raise InsufficientHistory("states are not uniformly spaced")
    m = len(states) // 2
    dt = float(dts[0])
    window = states[m - 2:m + 3]

    rhs = interface_accel_rhs(window[2], ablate=ablate)
    num = 0.0
    den = 0.0
    for i in range(2):
        gs = [horizontal_derivative(st.f, i + 1) for st in window]
        d1 = [_material_rate((gs[k + 1] - gs[k - 1]) / (2.0 * dt), gs[k],
                             trace(window[k].u)) for k in (1, 2, 3)]
        d2 = _material_rate((d1[2] - d1[0]) / (2.0 * dt), d1[1],
                            trace(window[2].u))
        num += float(np.mean((d2 - rhs[i]) ** 2))
        den += float(np.mean(rhs[i] ** 2))
    return float(np.sqrt(num / max(den, 1e-30)))


# ---------------------------------------------------------------------------
# time stepping


def stable_dt(state: FlowState) -> float:
    """Conservative step bound from advection and wave stiffness.

    Half the minimum of the advective crossing time and the reciprocal
    of the fastest boundary-mode frequency, with the pressure-coefficient
    estimated from the current interface trace.
    """
    grid = state.grid
    cmap = state.cmap
    umax = float(np.max(np.abs(state.u)))
    hmin = min(grid.h1, grid.h2, grid.dz * float(np.min(cmap.jac)))
    kmax = float(max(grid.n1 // 2, grid.n2 // 2))
    fmax = 0.0
    for j in range(3):
        for sidx in range(2):
            fmax = max(fmax, float(np.max(np.abs(trace(state.F[j, sidx])))))
    taylor = -trace(assemble_pressure(state).grad[2])
    amax = max(float(np.max(taylor)), 0.0)
    wave = kmax * (fmax + np.sqrt(state.eps) * np.sqrt(kmax)) \
        + np.sqrt(amax * kmax)
    terms = []
    if umax > 0.0:
        terms.append(hmin / umax)
    if wave > 0.0:
        terms.append(1.0 / wave)
    if not terms:
        return np.inf
    return 0.5 * min(terms)


def _advance(state: FlowState, h: float, rate) -> FlowState:
    dtf, du, dF = rate
    return state.with_fields(state.t + h, state.f + h * dtf,
                             state.u + h * du, state.F + h * dF)


def _rk4(y, dt: float, rhs, advance):
    """Classical RK4 over a tuple-valued rate; advance(y, h, k) = y + h k."""
    k1 = rhs(y)
    k2 = rhs(advance(y, 0.5 * dt, k1))
    k3 = rhs(advance(y, 0.5 * dt, k2))
    k4 = rhs(advance(y, dt, k3))
    comb = tuple(
        (a + 2.0 * b + 2.0 * c + d) / 6.0
        for a, b, c, d in zip(k1, k2, k3, k4)
    )
    return advance(y, dt, comb)


def _reproject(state: FlowState, threshold: float):
    """Re-enforce the constraints when the monitored residuals drift."""
    cmap = state.cmap
    rep = invariant_report(state)
    flags = {"u": rep["div_u"] > threshold,
             "F": max(rep["div_F"], rep["trace_F"]) > threshold}
    u, F = state.u, state.F
    if flags["u"]:
        u, _ = project_div(u, cmap)
    if flags["F"]:
        # an all-zero column is its own projection
        F = np.stack([project_div_normal(F[j], cmap)[0]
                      if state._nonzero[1 + j].any() else F[j]
                      for j in range(3)])
    if flags["u"] or flags["F"]:
        state = state.with_fields(state.t, state.f, u, F)
    return state, flags


def step(state: FlowState, dt: float,
         reproject_threshold: float = REPROJECT_THRESHOLD):
    """Advance one RK4 step; returns (new state, info).

    The step size must satisfy the stable_dt bound.  After the update
    the divergence and interface-trace invariants are measured and the
    fields re-projected when any exceeds the threshold; info records the
    invariant report of the new state and whether a re-projection fired.
    Every solve, stage pressures and re-projections alike, runs at
    DEFAULT_TOL.
    """
    bound = stable_dt(state)
    if dt > bound * (1.0 + 1e-12):
        raise PreconditionViolated(
            f"dt = {dt:.3e} exceeds the stable bound {bound:.3e}"
        )
    new = _rk4(state, dt, bulk_rhs, _advance)
    new, flags = _reproject(new, reproject_threshold)
    info = {"dt_bound": bound, "reprojected": flags, **invariant_report(new)}
    return new, info


# ---------------------------------------------------------------------------
# initial data


def _resample_columns(field: np.ndarray, phi_old: np.ndarray,
                      phi_new: np.ndarray) -> np.ndarray:
    """Reinterpret slab fields on a new map at equal physical heights.

    Column by column the old profile is read as a function of physical
    height and sampled at the new map's node heights (linear in the
    vertical; values beyond the old range are clamped to the end values).
    Leading axes of field are batch axes.  Each column's bracket search
    is done once for all batch scalars, and the values follow np.interp
    bit for bit: slope (x - xp[j]) + fp[j] inside a bracket, fp[j] at an
    exact node hit, and the end values outside.
    """
    nz = phi_old.shape[-1]
    # j = index of the last old node at or below each new height
    below = np.sum(phi_old[..., None, :] <= phi_new[..., None], axis=-1) - 1
    lo = np.clip(below, 0, nz - 2)
    x0 = np.take_along_axis(phi_old, lo, axis=-1)
    x1 = np.take_along_axis(phi_old, lo + 1, axis=-1)
    idx = np.broadcast_to(lo, field.shape)
    f0 = np.take_along_axis(field, idx, axis=-1)
    f1 = np.take_along_axis(field, idx + 1, axis=-1)
    out = (f1 - f0) / (x1 - x0) * (phi_new - x0) + f0
    out = np.where(phi_new == x0, f0, out)
    out = np.where(below < 0, field[..., :1], out)
    return np.where(below >= nz - 1, field[..., -1:], out)


def invariant_report(state: FlowState) -> dict:
    """Constraint residuals of a state (monitored quantities only).

    Measured on first use and kept on the state; each call returns a
    fresh dict.  An all-zero deformation column is skipped: its
    divergence and trace defect are exactly 0.
    """
    if state._invariants is None:
        cmap = state.cmap
        columns = [state.F[j] for j in range(3)
                   if state._nonzero[1 + j].any()]
        state._invariants = {
            "div_u": divergence_residual(state.u, cmap),
            "div_F": max((divergence_residual(c, cmap) for c in columns),
                         default=0.0),
            "trace_F": max((normal_trace_defect(c, cmap) for c in columns),
                           default=0.0),
            "f_mean": abs(float(np.mean(state.f))),
        }
    return dict(state._invariants)


def prepare_initial_data(f0: np.ndarray, u0: np.ndarray, F0: np.ndarray,
                         eps: float, s: int = 4, c0: float = 0.1,
                         regions=None):
    """Admissible initial state from raw data on the original domain.

    The interface is mollified at scale eps, the bulk fields are carried
    to the new domain by matching physical heights column-wise, and the
    constraints are restored: velocity by the divergence projection,
    each deformation column by the normal-trace projection with zero
    interface flux.  With eps = 0 the state passes through unchanged up
    to the solver tolerance.

    Returns (state, info) where info holds the invariant reports before
    and after the projections.
    """
    f0 = np.asarray(f0, dtype=float)
    f0 = f0 - np.mean(f0)
    u0 = np.array(u0, dtype=float)
    F0 = np.array(F0, dtype=float)
    nz = u0.shape[-1]
    grid = SlabGrid(f0.shape[0], f0.shape[1], nz)
    f_eps = mollify(f0, eps)
    f_eps -= np.mean(f_eps)
    cmap0 = None if eps == 0.0 else build_map(f0, grid)
    cmap = build_map(f_eps, grid)
    if cmap0 is None:
        u, F = u0, F0
    else:
        u = _resample_columns(u0, cmap0.phi, cmap.phi)
        F = _resample_columns(F0, cmap0.phi, cmap.phi)
    u[2, ..., 0] = 0.0
    F[:, 2, ..., 0] = 0.0
    before = invariant_report(FlowState(0.0, f_eps, u, F, eps, s=s, c0=c0))
    u, _ = project_div(u, cmap)
    for j in range(3):
        F[j], _ = project_div_normal(F[j], cmap)
    state = FlowState(0.0, f_eps, u, F, eps, s=s, c0=c0, regions=regions)
    info = {"before": before, "after": invariant_report(state)}
    return state, info
