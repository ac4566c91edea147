"""Stability diagnostics, energy functionals, and the linear dispersion oracle.

Two pointwise quantities decide stability of an interface state: the
Taylor coefficient (the inward pressure gradient at the surface) and the
non-collinearity modulus of the deformation trace (the least eigenvalue
of the horizontal Gram matrix).  Each is required to stay above a
threshold on its own region of the torus, and the two regions together
must cover everything.  The regions are smoothed indicator functions
built from user-supplied rectangles.

On top of these the module provides the graded energy of a state, the
difference energy of two states on the same grid, the interior weight
that makes the boundary energy coercive, and the closed-form frequency
of linear waves over a uniform background, which serves as an
independent oracle for the nonlinear time stepper.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import GridMismatch, PreconditionViolated, StabilityLost
from .geometry import (
    CoordinateMap,
    SlabGrid,
    _normal_flux,
    build_map,
    mapped_gradient,
    trace,
)
from .spectral import bessel_multiplier, horizontal_derivative, mollify, sobolev_norm
from .dn import dn_symbol_dirichlet
from .elliptic import harmonic_ext_dirichlet, volume_weights, weight_field
from .dynamics import FlowState, _transport, assemble_pressure, kinematic_rate

__all__ = [
    "DIAGNOSTIC_COLUMNS",
    "EnergyReport",
    "Regions",
    "StabilityReport",
    "TaylorCoefficient",
    "coercivity_weight",
    "diagnostic_row",
    "difference_energy",
    "dispersion_omega",
    "energy_es_eps",
    "fit_frequency",
    "lambda_noncollinear",
    "stability_report",
    "taylor_coefficient",
    "write_diagnostics",
]


# ---------------------------------------------------------------------------
# non-collinearity


def lambda_noncollinear(F_traces: np.ndarray) -> np.ndarray:
    """Least eigenvalue of the horizontal Gram matrix of the column traces.

    F_traces holds the interface trace of the deformation columns, shape
    (3, 2, n1, n2) or (3, 3, n1, n2); axis 0 indexes the column, axis 1
    the spatial component.  Only the two horizontal components enter the
    Gram matrix G_ab = sum_j T[j, a] T[j, b], and the infimum over unit
    directions of the quadratic form is its smallest eigenvalue, returned
    in closed form from trace and determinant.
    """
    T = np.asarray(F_traces, dtype=float)
    if T.ndim < 2 or T.shape[0] != 3 or T.shape[1] not in (2, 3):
        raise GridMismatch(f"expected (3, 2, ...) column traces, got {T.shape}")
    T = T[:, :2]
    g11 = np.sum(T[:, 0] * T[:, 0], axis=0)
    g22 = np.sum(T[:, 1] * T[:, 1], axis=0)
    g12 = np.sum(T[:, 0] * T[:, 1], axis=0)
    half = 0.5 * (g11 + g22)
    disc = np.sqrt((0.5 * (g11 - g22)) ** 2 + g12 ** 2)
    # roundoff can drive the smaller root a hair below zero
    return np.maximum(half - disc, 0.0)


# ---------------------------------------------------------------------------
# Taylor coefficient


@dataclass(frozen=True)
class TaylorCoefficient:
    """Interface pressure-gradient diagnostic in both conventions.

    normal   : -N_f . grad p on the interface (the thresholded form)
    vertical : -d3 p on the interface (the convenience form); the two
               differ by the factor |N_f|^2 when the trace of p is constant
    """

    normal: np.ndarray
    vertical: np.ndarray


def taylor_coefficient(state: FlowState) -> TaylorCoefficient:
    grad = assemble_pressure(state).grad
    return TaylorCoefficient(normal=-_normal_flux(grad, state.cmap),
                             vertical=-trace(grad[2]))


# ---------------------------------------------------------------------------
# regions and cutoff


def _arc_mask(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Membership in the periodic arc [lo, hi) of length hi - lo."""
    span = hi - lo
    if span >= 2.0 * np.pi:
        return np.ones_like(x, dtype=bool)
    return np.mod(x - lo, 2.0 * np.pi) < span


class Regions:
    """Smoothed indicator pair for the two stability regions.

    Each region is a union of axis-aligned rectangles on the torus,
    given as (x1_lo, x1_hi, x2_lo, x2_hi) tuples in radians; ranges wrap
    when hi exceeds 2 pi.  The sharp indicators are mollified at four
    grid spacings, which makes them smooth cutoff material while keeping
    membership (indicator > 1/2) essentially the drawn rectangle.

    The pair must cover the torus: at every grid point at least one
    smoothed indicator exceeds 1/2.  The cutoff used by the weight
    construction is phi = (1 - chi1) chi2, which vanishes where the
    non-collinearity region ends and saturates to one well outside the
    Taylor region.
    """

    __slots__ = ("grid", "chi1", "chi2", "mask1", "mask2", "phi", "scale")

    def __init__(self, gamma1, gamma2, grid: SlabGrid):
        self.grid = grid
        self.scale = 4.0 * max(grid.h1, grid.h2)
        self.chi1 = self._smooth_indicator(gamma1)
        self.chi2 = self._smooth_indicator(gamma2)
        self.mask1 = self.chi1 > 0.5
        self.mask2 = self.chi2 > 0.5
        cover = np.maximum(self.chi1, self.chi2)
        if np.min(cover) <= 0.5:
            raise PreconditionViolated(
                f"regions leave the torus uncovered (min indicator "
                f"{np.min(cover):.3f})"
            )
        self.phi = np.clip((1.0 - self.chi1) * self.chi2, 0.0, 1.0)

    def _smooth_indicator(self, rects) -> np.ndarray:
        x1m, x2m = self.grid.horizontal_meshes()
        sharp = np.zeros((self.grid.n1, self.grid.n2))
        for (a1, b1, a2, b2) in rects:
            inside = _arc_mask(x1m, a1, b1) & _arc_mask(x2m, a2, b2)
            sharp[inside] = 1.0
        return np.clip(mollify(sharp, self.scale ** 2), 0.0, 1.0)


@lru_cache(maxsize=32)
def _regions(gamma1: tuple, gamma2: tuple, grid: SlabGrid) -> Regions:
    """Regions built once per (rectangles, grid), its arrays read-only."""
    reg = Regions(gamma1, gamma2, grid)
    for a in (reg.chi1, reg.chi2, reg.mask1, reg.mask2, reg.phi):
        a.flags.writeable = False
    return reg


def _resolve_regions(state: FlowState) -> Regions:
    """The state's own regions, or the whole torus for both when it has none."""
    whole = ((0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi),)
    pair = (whole, whole) if state.regions is None else state.regions
    return _regions(tuple(map(tuple, pair[0])), tuple(map(tuple, pair[1])),
                    state.grid)


# ---------------------------------------------------------------------------
# stability report


@dataclass(frozen=True)
class StabilityReport:
    """Minima of the two stability quantities over their own regions."""

    t: float
    taylor_min: float
    lambda_min: float
    taylor_ok: bool
    lambda_ok: bool
    threshold: float

    @property
    def ok(self) -> bool:
        return self.taylor_ok and self.lambda_ok


def _masked_min(field: np.ndarray, mask: np.ndarray) -> float:
    # an empty region imposes no constraint
    if not np.any(mask):
        return float("inf")
    return float(np.min(field[mask]))


def stability_report(state: FlowState, enforce: bool = False) -> StabilityReport:
    """Evaluate both stability minima against the c0/2 threshold.

    The regions are the state's own (the whole torus for both when it
    has none).  The Taylor coefficient is thresholded in its -N . grad p
    form over the grid restriction of the first region (indicator > 1/2),
    the non-collinearity modulus over the second.  With enforce=True a
    failing report raises StabilityLost; a monitored `elastislab run`
    records the failing row, then halts through it.
    """
    reg = _resolve_regions(state)
    tay = taylor_coefficient(state)
    lam = lambda_noncollinear(state.F[:, :2, :, :, -1])
    thresh = 0.5 * state.c0
    tmin = _masked_min(tay.normal, reg.mask1)
    lmin = _masked_min(lam, reg.mask2)
    report = StabilityReport(
        t=state.t,
        taylor_min=tmin,
        lambda_min=lmin,
        taylor_ok=bool(tmin >= thresh),
        lambda_ok=bool(lmin >= thresh),
        threshold=thresh,
    )
    if enforce and not report.ok:
        raise StabilityLost(
            f"t = {state.t:.6g}: taylor_min = {tmin:.3e}, "
            f"lambda_min = {lmin:.3e}, threshold = {thresh:.3e}"
        )
    return report


# ---------------------------------------------------------------------------
# weight construction


def coercivity_weight(state: FlowState):
    """Interior weight for the boundary energy, with its construction log.

    The boundary datum starts from the vertical-form Taylor coefficient
    and adds a cutoff lift phi * ctilde sized so the sum clears the
    threshold wherever the cutoff saturates.  Any residue below c0
    (smoothing slack, or genuinely unstable data) is clipped up to c0;
    the clip magnitude is reported, and on stable data it stays at the
    mollification-tail level.  The returned field is the harmonic
    interior extension of that datum with floor value c0, so the maximum
    principle pins it between c0 and the datum's maximum.

    With c0 = 0 no coercivity is claimed and the lift vanishes, leaving
    a kinked datum whose extension has no pinning to certify; that
    degenerate case returns the constant floor weight directly.
    """
    c0 = state.c0
    if c0 == 0.0:
        field = np.zeros(state.cmap.grid.shape)
        return field, {"ctilde": 0.0, "clip": 0.0,
                       "abar_min": 0.0, "abar_max": 0.0}
    reg = _resolve_regions(state)
    a = taylor_coefficient(state).vertical
    ctilde = max(0.0, c0 - float(np.min(a))) + c0
    abar = a + reg.phi * ctilde
    clip = max(0.0, c0 - float(np.min(abar)))
    abar = np.maximum(abar, c0)
    field = weight_field(abar, c0, state.cmap)
    info = {"ctilde": ctilde, "clip": clip,
            "abar_min": float(np.min(abar)), "abar_max": float(np.max(abar))}
    return field, info


# ---------------------------------------------------------------------------
# energies


@dataclass(frozen=True)
class EnergyReport:
    """Named components of the graded interface-and-bulk energy.

    All entries are squared norms.  dt_term and elastic_term carry the
    transported smoothed slope, eps_term the regularization norm,
    weighted_extension the coercive harmonic-extension integral (with
    extension its unweighted companion and weight_min/weight_max the
    weight range for the sandwich bound).  m0 and m_eps are the
    initial-data functionals, filled by energy_es_eps only.
    """

    dt_term: float
    elastic_term: float
    eps_term: float
    weighted_extension: float
    extension: float
    f_l2: float
    dtf_l2: float
    u_hs: float
    F_hs: float
    weight_min: float
    weight_max: float
    m0: float | None = None
    m_eps: float | None = None

    @property
    def total(self) -> float:
        return (self.dt_term + self.elastic_term + self.eps_term
                + self.weighted_extension + self.f_l2 + self.dtf_l2
                + self.u_hs + self.F_hs)


def bulk_hs_norm2(field: np.ndarray, cmap: CoordinateMap, s: int) -> float:
    """Squared H^s norm over the moving domain as a derivative ladder.

    Sums squared L^2 norms of all mapped derivatives up to order s,
    counting mixed derivatives once per ordering; an equivalent norm at
    fixed grid, and cheap.  Leading axes of the field are batch axes.
    Each scalar component is walked depth first on its own: a non-zero
    node above order s takes one unbatched gradient, its three children
    read it, and then it is squared in place.  So the walk holds at most
    s gradients of one scalar, however many orderings (3^s) or components
    there are, and makes no batch-sized temporary.  A zero node's subtree
    is skipped, exactly: its gradients are all +-0, so it adds 0.0 to a
    non-negative sum and the other terms keep their order.
    """
    if s < 0 or s != int(s):
        raise PreconditionViolated(f"derivative order must be a whole number, got {s}")
    w = volume_weights(cmap).ravel()

    def below(level, depth):
        """The ladder under one scalar, down depth >= 1 more orders."""
        if not level.any():
            return 0.0
        g = mapped_gradient(level, cmap)
        total = 0.0
        if depth > 1:
            for a in range(3):
                total += below(g[a], depth - 1)
        # the children have read g; square it in place, no temporary
        g = g.reshape(3, -1)
        return total + float(np.sum(np.multiply(g, g, out=g) @ w))

    total = 0.0
    for c in np.asarray(field, dtype=float).reshape((-1,) + cmap.grid.shape):
        x = c.ravel()
        total += float(np.dot(w * x, x)) + (below(c, int(s)) if s else 0.0)
    return total


def _surface_norm2(g: np.ndarray, s: float = 0.0) -> float:
    return sobolev_norm(g, s) ** 2


def _extension_energy2(g: np.ndarray, cmap: CoordinateMap, weight):
    """(weighted, unweighted) Dirichlet energies of the harmonic extension."""
    ext = harmonic_ext_dirichlet(g, cmap)
    grad = mapped_gradient(ext, cmap)
    dens = grad[0] ** 2 + grad[1] ** 2 + grad[2] ** 2
    w = volume_weights(cmap)
    return float(np.sum(w * weight * dens)), float(np.sum(w * dens))


def _graded_energy(ref: FlowState, f, theta, u, F, cmap: CoordinateMap,
                   s: int, weight: np.ndarray, eps: float) -> EnergyReport:
    """The graded energy at index s of an interface f with rate theta and
    bulk fields u, F; both energies are this functional.

    The boundary terms act on the smoothed slopes <grad'>^(s - 3/2) d_i' f.
    Their material and column transports use the velocity and column
    traces of the reference state ref, and the coercive term integrates
    weight against the squared gradient of each smoothed slope's harmonic
    extension on ref's map.  eps scales the regularization norm
    <grad'>^(s - 1/2) d_i' f.  The bulk norms are derivative ladders of u
    and F on cmap, walked before any slope exists.
    """
    if ref.s < 4:
        raise PreconditionViolated(f"energy index must be an integer >= 4, got {ref.s}")
    u_hs = bulk_hs_norm2(u, cmap, s)
    F_hs = bulk_hs_norm2(F, cmap, s)
    ubar = [trace(ref.u[0]), trace(ref.u[1])]
    Fbar = ref.F[:, :2, :, :, -1]
    dt_term = elastic_term = eps_term = weighted_ext = plain_ext = 0.0
    for i in (1, 2):
        slope = horizontal_derivative(f, i)
        w_i = bessel_multiplier(slope, s - 1.5)
        dt_term += _surface_norm2(
            bessel_multiplier(horizontal_derivative(theta, i), s - 1.5)
            + _transport(w_i, ubar[0], ubar[1]))
        for k in range(3):
            elastic_term += _surface_norm2(_transport(w_i, Fbar[k, 0], Fbar[k, 1]))
        wext, pext = _extension_energy2(w_i, ref.cmap, weight)
        weighted_ext += wext
        plain_ext += pext
        eps_term += eps * _surface_norm2(slope, s - 0.5)
    return EnergyReport(
        dt_term=dt_term,
        elastic_term=elastic_term,
        eps_term=eps_term,
        weighted_extension=weighted_ext,
        extension=plain_ext,
        f_l2=_surface_norm2(f),
        dtf_l2=_surface_norm2(theta),
        u_hs=u_hs,
        F_hs=F_hs,
        weight_min=float(np.min(weight)),
        weight_max=float(np.max(weight)),
    )


def energy_es_eps(state: FlowState) -> EnergyReport:
    """Graded energy of a state at its Sobolev index s = state.s.

    The graded functional of the state's own interface, rate and bulk
    fields, with their transports and the extension domain from the state
    itself, the bulk ladders over the moving domain, and the state's
    coercivity_weight and eps.

    The report also carries the two initial-data functionals m0 and
    m_eps (the latter scales the top-order interface norm by eps).
    """
    s = state.s
    weight, _ = coercivity_weight(state)
    report = _graded_energy(state, state.f, kinematic_rate(state), state.u,
                            state.F, state.cmap, s, weight, state.eps)
    Fbar = state.F[:, :2, :, :, -1]
    m0 = _surface_norm2(state.f, s) + report.u_hs + report.F_hs
    for k in range(3):
        m0 += _surface_norm2(
            _transport(state.f, Fbar[k, 0], Fbar[k, 1]), s - 0.5)
    m_eps = (state.eps * _surface_norm2(state.f, s + 0.5)
             + _surface_norm2(state.f, s - 0.5) + report.u_hs + report.F_hs)
    return replace(report, m0=m0, m_eps=m_eps)


def difference_energy(a: FlowState, b: FlowState) -> EnergyReport:
    """The graded energy at s - 1 of the differences of two states on one
    grid, with s the first state's index.

    Both states store physical components at reference-slab nodes, so
    subtracting fields is already the pullback comparison.  The first
    state is the reference solution: its traces carry the transports and
    its map the extensions, the extension weight is its constant floor c0,
    and the bulk ladders run on the flat reference slab.

    The eps values of the two states may differ: the difference energy
    contains no regularization term, and comparing runs across eps is
    one of its jobs.
    """
    if a.grid.shape != b.grid.shape:
        raise GridMismatch(f"grids differ: {a.grid.shape} vs {b.grid.shape}")
    flat = build_map(np.zeros_like(a.f), a.grid)
    return _graded_energy(a, a.f - b.f, kinematic_rate(a) - kinematic_rate(b),
                          a.u - b.u, a.F - b.F, flat, a.s - 1,
                          np.full(a.grid.shape, a.c0), 0.0)


# ---------------------------------------------------------------------------
# dispersion oracle


def dispersion_omega(F_traces, a_taylor: float, eps: float, xi) -> float:
    """Linear wave frequency over a uniform background at wave vector xi.

    omega^2 = sum_j (F_j . xi)^2 + eps |xi|^2 + a |xi| coth |xi|; the
    last factor is the flat interface-operator symbol at xi, so the
    Taylor term feels the finite depth.  The background columns must be
    tangent to the flat interface (zero vertical component).
    """
    if a_taylor < 0:
        raise PreconditionViolated(f"Taylor coefficient must be >= 0, got {a_taylor}")
    if eps < 0:
        raise PreconditionViolated(f"eps must be >= 0, got {eps}")
    T = np.asarray(F_traces, dtype=float)
    if T.shape == (3, 3):
        if np.max(np.abs(T[:, 2])) > 1e-12:
            raise PreconditionViolated("background columns must be horizontal")
        T = T[:, :2]
    if T.shape != (3, 2):
        raise GridMismatch(f"expected (3, 2) constant column traces, got {T.shape}")
    xi = np.asarray(xi, dtype=float)
    kappa = float(np.hypot(xi[0], xi[1]))
    elastic = float(np.sum((T[:, 0] * xi[0] + T[:, 1] * xi[1]) ** 2))
    symbol = float(dn_symbol_dirichlet(np.array(kappa)))
    return float(np.sqrt(elastic + eps * kappa ** 2 + a_taylor * symbol))


def fit_frequency(samples, dt: float) -> float:
    """Oscillation frequency of a sampled scalar series.

    Uses the exact three-term recurrence of a sampled harmonic signal,
    s(t+dt) + s(t-dt) = 2 cos(omega dt) s(t), solved in least squares
    over the whole series; robust to the amplitude and phase and exact
    on a pure cosine.  The series must be sampled finely enough that
    omega dt < pi.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size < 3:
        raise PreconditionViolated("need a 1-d series of at least 3 samples")
    mid = s[1:-1]
    outer = s[2:] + s[:-2]
    denom = 2.0 * float(np.sum(mid * mid))
    if denom == 0.0:
        return 0.0
    c = float(np.sum(mid * outer)) / denom
    return float(np.arccos(np.clip(c, -1.0, 1.0)) / dt)


# ---------------------------------------------------------------------------
# CSV diagnostics


DIAGNOSTIC_COLUMNS = (
    "t",
    "taylor_min",
    "lambda_min",
    "dt_term",
    "elastic_term",
    "eps_term",
    "weighted_extension",
    "extension",
    "f_l2",
    "dtf_l2",
    "u_hs",
    "F_hs",
    "total",
    "div_u",
    "div_F",
    "trace_F",
)


def diagnostic_row(report: StabilityReport, energy: EnergyReport,
                   invariants: dict) -> list:
    """One CSV row in the order of DIAGNOSTIC_COLUMNS: the invariants by
    key, t and the two minima from the report, the energy columns (total
    included) from the energy."""
    return [invariants[name] if name in invariants
            else getattr(report if hasattr(report, name) else energy, name)
            for name in DIAGNOSTIC_COLUMNS]


def write_diagnostics(path, rows) -> None:
    """Write accumulated diagnostic rows with the stable header."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DIAGNOSTIC_COLUMNS)
        writer.writerows(rows)
