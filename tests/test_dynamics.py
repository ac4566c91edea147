"""Flow states, constraint projections, pressure assembly, time stepping,
the interface acceleration residual and initial-data preparation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastislab import dn
from elastislab import dynamics as dyn
from elastislab.errors import (
    CeilingViolated,
    GridMismatch,
    InsufficientHistory,
    PreconditionViolated,
)
from elastislab.geometry import (
    SlabGrid,
    bottom_trace,
    build_map,
    map_time_derivative,
    mapped_gradient,
    trace,
)
from elastislab.elliptic import solve_weak, volume_load
from elastislab.spectral import horizontal_derivative, mollify

from conftest import (
    full_gradient_stack,
    full_pressure_source,
    full_rates,
    loop_resample_columns,
    metric_correction_cells,
    random_band_limited,
    sample_flow,
    step_theta,
)


def _coords(n):
    x = 2 * np.pi * np.arange(n) / n
    return np.meshgrid(x, x, indexing="ij")


def _curved_map(n=16, nz=17):
    x1, x2 = _coords(n)
    f = 0.1 * (np.cos(x1) + 0.5 * np.sin(2 * x2))
    return build_map(f - f.mean(), SlabGrid(n, n, nz))


def _smooth_field(n=16, nz=17):
    x1, x2 = _coords(n)
    y = SlabGrid(n, n, nz).y3
    v = np.zeros((3, n, n, nz))
    v[0] = 0.3 * np.sin(x1)[..., None] * np.cos(1.1 * y)
    v[1] = 0.2 * np.cos(x2 + x1)[..., None] * (1 + 0.4 * y)
    v[2] = 0.25 * np.sin(x1 + x2)[..., None] * (1 + y)
    return v


def _cell_metric_angle(cmap, a, b):
    """Normalized inner product of cell averages in the J-weighted metric."""
    jc = cmap.phi3_cell if not cmap.is_flat else 1.0

    def ca(w):
        return 0.5 * (w[..., :-1] + w[..., 1:])

    ip = sum(np.sum(ca(a[i]) * ca(b[i]) * jc) for i in range(3))
    na = np.sqrt(sum(np.sum(ca(a[i]) ** 2 * jc) for i in range(3)))
    nb = np.sqrt(sum(np.sum(ca(b[i]) ** 2 * jc) for i in range(3)))
    return abs(ip) / max(na * nb, 1e-300)


class TestFlowState:
    def test_normalization(self):
        n, nz = 8, 9
        f = 0.01 + 0.05 * np.cos(_coords(n)[0])
        u = np.ones((3, n, n, nz))
        F = np.ones((3, 3, n, n, nz))
        st = dyn.FlowState(0.0, f, u, F, eps=0.0)
        assert abs(np.mean(st.f)) < 1e-15
        assert np.all(st.u[2, ..., 0] == 0.0)
        assert np.all(st.F[:, 2, ..., 0] == 0.0)

    def test_ceiling_guard(self):
        n, nz = 8, 9
        f = 0.95 * np.cos(_coords(n)[0])
        with pytest.raises(CeilingViolated):
            dyn.FlowState(0.0, f, np.zeros((3, n, n, nz)),
                          np.zeros((3, 3, n, n, nz)), eps=0.0)

    def test_shape_guards(self):
        with pytest.raises(GridMismatch):
            dyn.FlowState(0.0, np.zeros((8, 8)), np.zeros((2, 8, 8, 9)),
                          np.zeros((3, 3, 8, 8, 9)), eps=0.0)
        with pytest.raises(GridMismatch):
            dyn.FlowState(0.0, np.zeros((8, 6)), np.zeros((3, 8, 8, 9)),
                          np.zeros((3, 3, 8, 8, 9)), eps=0.0)

    def test_non_finite_interface_rejected(self):
        n, nz = 8, 9
        f = 0.05 * np.cos(_coords(n)[0])
        f[3, 2] = np.nan
        with pytest.raises(PreconditionViolated):
            dyn.FlowState(0.0, f, np.zeros((3, n, n, nz)),
                          np.zeros((3, 3, n, n, nz)), eps=0.0)

    @pytest.mark.parametrize("name", ["u", "F"])
    def test_non_finite_floor_row_rejected(self, name):
        # the floor rows of u3 and F[j, 3] are overwritten with 0, but the
        # finiteness scan reads the fields before that
        n, nz = 8, 9
        f = 0.05 * np.cos(_coords(n)[0])
        u, F = np.zeros((3, n, n, nz)), np.zeros((3, 3, n, n, nz))
        if name == "u":
            u[2, 3, 2, 0] = np.nan
        else:
            F[1, 2, 3, 2, 0] = np.inf
        with pytest.raises(PreconditionViolated, match=f"{name} has"):
            dyn.FlowState(0.0, f, u, F, eps=0.0)

    def test_scalar_flags_read_the_zeroed_fields(self):
        n, nz = 8, 9
        f = 0.05 * np.cos(_coords(n)[0])
        u, F = np.zeros((3, n, n, nz)), np.zeros((3, 3, n, n, nz))
        u[2] = 0.3        # constant, but its floor row is zeroed
        F[0, 0] = 1.0     # constant
        F[1, 1] = np.cos(_coords(n)[0])[..., None]
        st = dyn.FlowState(0.0, f, u, F, eps=0.0)
        assert st._varies.tolist() == [[False, False, True],
                                       [False, False, False],
                                       [False, True, False],
                                       [False, False, False]]
        assert st._nonzero.tolist() == [[False, False, True],
                                        [True, False, False],
                                        [False, True, False],
                                        [False, False, False]]

    def test_fields_are_read_only(self):
        st = sample_flow(8, 9, 0.05, 0.0)
        with pytest.raises(ValueError):
            st.u[0, 0, 0, 0] = 1.0

    def test_kinematic_rate_mean_free(self):
        st = sample_flow(8, 9, 0.05, 0.0)
        theta = dyn.kinematic_rate(st)
        assert abs(np.mean(theta)) < 1e-15


class TestWeakDivergence:
    def test_constants_annihilated_on_curved_map(self):
        cmap = _curved_map()
        v = np.ones((3,) + cmap.grid.shape)
        v[2] *= -0.7
        b = dyn.weak_div_load(v, cmap)
        assert np.max(np.abs(b)) < 1e-14

    def test_divergence_free_profile_consistent(self):
        # analytically divergence-free on the flat slab: the residual is
        # pure discretization error and refines at the stencil order
        def div_free(n, nz):
            grid = SlabGrid(n, n, nz)
            x1, _ = _coords(n)
            y = grid.y3
            v = np.zeros((3, n, n, nz))
            v[0] = np.cos(x1)[..., None] * np.cos(y)
            v[2] = np.sin(x1)[..., None] * (np.sin(y) + np.sin(1.0))
            return v, build_map(np.zeros((n, n)), grid)

        v16, m16 = div_free(16, 17)
        v32, m32 = div_free(32, 33)
        r16 = dyn.divergence_residual(v16, m16)
        r32 = dyn.divergence_residual(v32, m32)
        assert r16 < 2e-3
        assert r32 < 0.3 * r16


class TestMinNormLift:
    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(2, 16).map(lambda k: 2 * k),
        n2=st.integers(2, 16).map(lambda k: 2 * k),
        nz=st.integers(3, 50),
        amplitude=st.floats(0.01, 0.3),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_pair_averages_and_kernel_orthogonality(self, n1, n2, nz,
                                                    amplitude, seed):
        q = amplitude * np.random.default_rng(seed).standard_normal(
            (n1, n2, nz - 1))
        out = dyn._minnorm_lift(q)
        assert out.shape == (n1, n2, nz)
        avg = 0.5 * (out[..., :-1] + out[..., 1:])
        assert np.max(np.abs(avg - q)) <= 1e-13 * np.max(np.abs(q))
        # minimal norm: no component along the kernel of the averaging
        alt = (-1.0) ** np.arange(nz)
        bound = 1e-13 * np.linalg.norm(out, axis=-1) * np.sqrt(nz)
        assert np.all(np.abs(out @ alt) <= bound)


class TestProjectDiv:
    def test_correction_cells_match_metric_route(self, rng):
        cmap = _curved_map()
        psi = rng.standard_normal(cmap.grid.shape)
        for got, want in zip(dyn._correction_cells(cmap, psi),
                             metric_correction_cells(cmap, psi)):
            assert np.allclose(got, want, rtol=0,
                               atol=1e-14 * np.max(np.abs(want)))

    def test_removes_divergence(self, rng):
        cmap = _curved_map()
        v = rng.standard_normal((3,) + cmap.grid.shape)
        v[2, ..., 0] = 0.0
        p, _ = dyn.project_div(v, cmap)
        assert dyn.divergence_residual(p, cmap) <= 1e-8 * np.max(np.abs(v))

    def test_idempotent(self, rng):
        cmap = _curved_map()
        v = rng.standard_normal((3,) + cmap.grid.shape)
        v[2, ..., 0] = 0.0
        p, _ = dyn.project_div(v, cmap)
        q, _ = dyn.project_div(p, cmap)
        assert np.max(np.abs(q - p)) <= 1e-8 * np.max(np.abs(p))

    def test_floor_exact(self, rng):
        cmap = _curved_map()
        v = rng.standard_normal((3,) + cmap.grid.shape)
        v[2, ..., 0] = 0.0
        p, _ = dyn.project_div(v, cmap)
        assert np.all(bottom_trace(p[2]) == 0.0)

    def test_annihilates_discrete_gradients(self, rng):
        # gradients of potentials vanishing on the interface (the class
        # the correction is drawn from) project to zero
        cmap = _curved_map()
        chi = rng.standard_normal(cmap.grid.shape)
        chi[..., -1] = 0.0
        g = dyn._gradient_correction(cmap, chi)
        pg, _ = dyn.project_div(g, cmap)
        assert np.max(np.abs(pg)) <= 1e-7 * np.max(np.abs(g))

    def test_orthogonal_in_cell_metric(self):
        cmap = _curved_map()
        v = _smooth_field()
        p, _ = dyn.project_div(v, cmap)
        assert _cell_metric_angle(cmap, p, v - p) < 1e-12


class TestProjectDivNormal:
    def test_divergence_and_floor(self, rng):
        cmap = _curved_map()
        v = rng.standard_normal((3,) + cmap.grid.shape)
        v[2, ..., 0] = 0.0
        p, _ = dyn.project_div_normal(v, cmap)
        assert dyn.divergence_residual(p, cmap) <= 1e-11 * np.max(np.abs(v))
        assert np.all(bottom_trace(p[2]) == 0.0)

    def test_idempotent(self, rng):
        cmap = _curved_map()
        v = rng.standard_normal((3,) + cmap.grid.shape)
        v[2, ..., 0] = 0.0
        p, _ = dyn.project_div_normal(v, cmap)
        q, _ = dyn.project_div_normal(p, cmap)
        assert np.max(np.abs(q - p)) <= 1e-11 * np.max(np.abs(p))

    def test_trace_contraction_on_smooth_data(self):
        cmap = _curved_map()
        v = _smooth_field()
        before = dyn.normal_trace_defect(v, cmap)
        p, info = dyn.project_div_normal(v, cmap)
        assert before > 0.25
        assert info["trace_defect"] < 2e-4
        assert dyn.normal_trace_defect(p, cmap) == pytest.approx(
            info["trace_defect"]
        )

    def test_trace_target_flat_exact(self, rng):
        grid = SlabGrid(16, 16, 17)
        cmap = build_map(np.zeros((16, 16)), grid)
        v = rng.standard_normal((3,) + grid.shape)
        v[2, ..., 0] = 0.0
        p, info = dyn.project_div_normal(v, cmap)
        assert info["trace_defect"] <= 1e-10 * np.max(np.abs(v))

    def test_orthogonal_in_cell_metric(self):
        cmap = _curved_map()
        v = _smooth_field()
        p, _ = dyn.project_div_normal(v, cmap)
        assert _cell_metric_angle(cmap, p, v - p) < 1e-12

    def test_divergence_free_input_passes_through(self):
        cmap = _curved_map()
        v = _smooth_field()
        p, _ = dyn.project_div_normal(v, cmap)
        q, _ = dyn.project_div_normal(p, cmap)
        assert np.max(np.abs(q - p)) <= 1e-11 * np.max(np.abs(p))


class TestPressure:
    def test_ring_vanishes_on_interface(self):
        st = sample_flow(16, 17, 0.05, 0.02)
        pr = dyn.assemble_pressure(st)
        assert np.max(np.abs(trace(pr.ring))) < 1e-13

    def test_ring_flat_vertical_shear_profile(self):
        # u3 = x3 + 1 makes the ring source -tr(grad u grad u) = -1: the
        # ring is -y^2/2 - y, zero on top and flat at the floor
        grid = SlabGrid(8, 8, 33)
        u = np.zeros((3,) + grid.shape)
        u[2] = grid.y3 + 1.0
        st = dyn.FlowState(0.0, np.zeros((8, 8)), u, np.zeros((3,) + u.shape),
                           eps=0.0)
        exact = -0.5 * grid.y3 ** 2 - grid.y3
        assert np.max(np.abs(dyn.assemble_pressure(st).ring - exact)) < 2e-4

    def test_bar_trace_matches_inverse_flux_route(self):
        # same boundary value from the one-solve route and from the
        # inverse flux operator applied to the surface Laplacian
        st = sample_flow(16, 17, 0.05, 0.02)
        got = trace(dyn.assemble_pressure(st).bar)
        lap_f = (horizontal_derivative(horizontal_derivative(st.f, 1), 1)
                 + horizontal_derivative(horizontal_derivative(st.f, 2), 2))
        want = -st.eps * dn.invert_dn_neumann(lap_f, st.cmap)
        denom = max(float(np.max(np.abs(want))), 1e-30)
        assert np.max(np.abs(got - want)) / denom < 1e-8

    def test_bar_trace_flat_symbol_limit(self):
        # leading order in the slope: eps * delta * cos(x1) / tanh(1)
        n, nz = 16, 17
        x1, _ = _coords(n)
        errs = []
        for delta in (0.1, 0.02):
            f = delta * np.cos(x1)
            st = dyn.FlowState(0.0, f, np.zeros((3, n, n, nz)),
                               np.zeros((3, 3, n, n, nz)), eps=0.05)
            tr = trace(dyn.assemble_pressure(st).bar)
            formula = 0.05 * delta * np.cos(x1) / np.tanh(1.0)
            errs.append(np.max(np.abs(tr - formula)) / np.max(np.abs(formula)))
        assert errs[0] < 0.05
        assert errs[1] < 0.35 * errs[0]

    def test_total_is_sum(self):
        # the kept gradient is that of the whole pressure ring + bar
        st = sample_flow(16, 17, 0.05, 0.02)
        pr = dyn.assemble_pressure(st)
        assert np.array_equal(pr.grad, mapped_gradient(pr.ring + pr.bar, st.cmap))

    def test_stage_state_warm_starts_from_parent(self):
        st = sample_flow(16, 17, 0.15, 0.02)
        stage = dyn._advance(st, 0.01, dyn.bulk_rhs(st))
        assert stage._hint is dyn.assemble_pressure(st)
        cold = dyn.FlowState(stage.t, stage.f, stage.u, stage.F, stage.eps)
        warm_pr = dyn.assemble_pressure(stage)
        cold_pr = dyn.assemble_pressure(cold)
        assert stage._hint is None
        for part in ("ring", "bar"):
            assert (warm_pr.info[part]["iterations"]
                    < cold_pr.info[part]["iterations"])
            got, want = getattr(warm_pr, part), getattr(cold_pr, part)
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def test_no_regularization_no_bar(self):
        st = sample_flow(16, 17, 0.05, 0.0)
        pr = dyn.assemble_pressure(st)
        assert pr.bar is None
        assert np.array_equal(pr.grad, mapped_gradient(pr.ring, st.cmap))


def _skip_state(kind, n, nz, seed=5):
    """A state whose scalars are all zero, all constant (u3 and F[j, 3]
    then vary through their zeroed floor rows), x2-invariant with the
    zero and constant scalars of the elastic-mode preset, or random."""
    rng = np.random.default_rng(seed)
    x1, x2 = _coords(n)
    shape = (n, n, nz)
    u, F = np.zeros((3,) + shape), np.zeros((3, 3) + shape)
    if kind == "x2-invariant":
        f = 0.1 * np.cos(x1)
        for a in (0, 2):
            u[a] = rng.standard_normal((n, 1, nz))
        for a in (0, 2):
            F[0, a] = rng.standard_normal((n, 1, nz))
        F[1, 1] = 1.0
    else:
        f = random_band_limited(rng, n, n, 2, 0.1)
        if kind == "constant":
            u[:] = rng.standard_normal((3, 1, 1, 1))
            F[:] = rng.standard_normal((3, 3, 1, 1, 1))
        elif kind == "random":
            u = rng.standard_normal(u.shape)
            F = rng.standard_normal(F.shape)
    return dyn.FlowState(0.0, f - f.mean(), u, F, eps=0.01)


SKIP_KINDS = ["zero", "constant", "x2-invariant", "random"]


class TestSkippedScalars:
    """The stack, the pressure source and the rates skip what is exactly
    0; the full forms of conftest are the references, and the values
    agree up to the sign of zero."""

    @pytest.mark.parametrize("n, nz", [(8, 9), (16, 17)])
    @pytest.mark.parametrize("kind", SKIP_KINDS)
    def test_match_full_forms(self, kind, n, nz):
        st = _skip_state(kind, n, nz)
        du, dF, du_nz, dF_nz = dyn._gradient_stack(st)
        ref_du, ref_dF = full_gradient_stack(st)
        assert np.array_equal(du, ref_du) and np.array_equal(dF, ref_dF)
        assert np.array_equal(du_nz, ref_du.reshape(3, 3, -1).any(axis=-1))
        assert np.array_equal(dF_nz, ref_dF.reshape(3, 3, 3, -1).any(axis=-1))
        assert np.array_equal(dyn._pressure_source(st),
                              full_pressure_source(ref_du, ref_dF))
        _, rate_u, rate_F = dyn.bulk_rhs(st)
        ref_u, ref_F = full_rates(st, ref_du, ref_dF)
        assert np.array_equal(rate_u, ref_u) and np.array_equal(rate_F, ref_F)

    @pytest.mark.parametrize("kind", SKIP_KINDS)
    def test_one_gradient_call_per_varying_field(self, monkeypatch, kind):
        st = _skip_state(kind, 8, 9)
        calls = []
        original = dyn.mapped_gradient

        def counted(w, cmap):
            calls.append(w.shape)
            return original(w, cmap)

        monkeypatch.setattr(dyn, "mapped_gradient", counted)
        dyn._gradient_stack(st)
        varying = sum(any(np.ptp(c) > 0 for c in field)
                      for field in (st.u, *st.F))
        assert len(calls) == varying
        assert varying == {"zero": 0, "constant": 4, "x2-invariant": 2,
                           "random": 4}[kind]

    def test_zero_column_skipped_by_invariants_and_reprojection(self):
        st = _skip_state("x2-invariant", 8, 9)
        assert not st.F[2].any()
        rep = dyn.invariant_report(st)
        assert rep["div_F"] == max(dyn.divergence_residual(st.F[j], st.cmap)
                                   for j in range(3))
        assert rep["trace_F"] == max(dyn.normal_trace_defect(st.F[j], st.cmap)
                                     for j in range(3))
        new, flags = dyn._reproject(st, -1.0)
        assert flags["F"]
        want = np.stack([dyn.project_div_normal(st.F[j], st.cmap)[0]
                         for j in range(3)])
        assert np.array_equal(new.F, want)


class TestSteadyStates:
    def test_rest_is_exact(self):
        n, nz = 8, 9
        F = np.zeros((3, 3, n, n, nz))
        F[0, 0] = 1.0
        F[1, 1] = 1.0
        st = dyn.FlowState(0.0, np.zeros((n, n)), np.zeros((3, n, n, nz)),
                           F, eps=0.0)
        new, _ = dyn.step(st, 0.05)
        assert np.max(np.abs(new.f)) == 0.0
        assert np.max(np.abs(new.u)) == 0.0
        assert np.max(np.abs(new.F - st.F)) == 0.0

    def test_uniform_shear_background_is_exact(self):
        n, nz = 8, 9
        F = np.zeros((3, 3, n, n, nz))
        F[0, 0] = 1.0
        F[1, 1] = 1.0
        F[2, 0] = 0.4
        F[2, 1] = -0.3
        st = dyn.FlowState(0.0, np.zeros((n, n)), np.zeros((3, n, n, nz)),
                           F, eps=0.01)
        new, _ = dyn.step(st, 0.05)
        assert np.max(np.abs(new.f)) == 0.0
        assert np.max(np.abs(new.u)) == 0.0
        assert np.max(np.abs(new.F - st.F)) == 0.0


class TestStepping:
    def test_dt_guard(self):
        st = sample_flow(8, 9, 0.05, 0.0)
        bound = dyn.stable_dt(st)
        with pytest.raises(PreconditionViolated):
            dyn.step(st, 2.0 * bound)

    @staticmethod
    def _count_stacks(monkeypatch):
        calls = []
        original = dyn._gradient_stack

        def counted(state):
            calls.append(state.t)
            return original(state)

        monkeypatch.setattr(dyn, "_gradient_stack", counted)
        return calls

    def test_gradient_stack_built_once_per_stage(self, monkeypatch):
        # stable_dt already built the stack of st, which keeps it; the
        # step builds one for each of the three later stages
        st = sample_flow(8, 9, 0.05, 0.01)
        dt = 0.5 * dyn.stable_dt(st)
        calls = self._count_stacks(monkeypatch)
        dyn.step(st, dt)
        assert len(calls) == 3

    def test_invariants_persist_without_reprojection(self):
        st = sample_flow(16, 17, 1e-3, 0.0)
        for _ in range(40):
            st, info = dyn.step(st, 0.02, reproject_threshold=np.inf)
            assert not info["reprojected"]["u"]
            assert not info["reprojected"]["F"]
        rep = dyn.invariant_report(st)
        assert rep["div_u"] < 1e-6
        assert rep["div_F"] < 1e-6
        assert rep["trace_F"] < 1e-6

    def test_theta_formulation_tracks_velocity_formulation(self):
        st = sample_flow(16, 17, 0.02, 0.02)
        theta = dyn.kinematic_rate(st)
        a, b = st, st
        for _ in range(20):
            a, _ = dyn.step(a, 0.01)
        for _ in range(20):
            b, theta = step_theta(b, theta, 0.01)
        scale = np.max(np.abs(a.f))
        assert np.max(np.abs(a.f - b.f)) < 2e-5 * scale


class TestAccelerationResidual:
    def _residual(self, n, nz, dt, ablate=None):
        st = sample_flow(n, nz, 0.08, 0.01)
        states = [st]
        for _ in range(4):
            st, _ = dyn.step(st, dt)
            states.append(st)
        return dyn.evo_residual(states, ablate=ablate)

    def test_refines_at_second_order(self):
        r16 = self._residual(16, 17, 0.005)
        r24 = self._residual(24, 25, 0.0025)
        assert r16 < 1.5e-3
        assert r24 < 0.6 * r16

    def test_ablation_is_visible(self):
        base = self._residual(16, 17, 0.005)
        broken = self._residual(16, 17, 0.005, ablate="elastic")
        assert broken > 50.0 * base

    def test_unknown_term_rejected(self):
        st = sample_flow(8, 9, 0.05, 0.0)
        with pytest.raises(ValueError):
            dyn.interface_accel_rhs(st, ablate="gravity")

    def test_short_history_rejected(self):
        st = sample_flow(8, 9, 0.05, 0.0)
        with pytest.raises(InsufficientHistory):
            dyn.evo_residual([st, st, st, st])

    def test_uneven_spacing_rejected(self):
        st = sample_flow(8, 9, 0.05, 0.0)
        ts = [0.0, 0.1, 0.2, 0.31, 0.4]
        states = [st.with_fields(t, st.f, st.u, st.F) for t in ts]
        with pytest.raises(InsufficientHistory):
            dyn.evo_residual(states)


def _pressure(state):
    """The state's whole pressure ring + bar."""
    pr = dyn.assemble_pressure(state)
    return pr.ring if pr.bar is None else pr.ring + pr.bar


def material_pressure_derivative(state):
    """Material derivative of the pressure through its own boundary problem
    (the paper's D_t p problem): zero interface value without
    regularization, else the inverse-flux transported datum with its
    commutator correction; the floor takes the horizontal velocity shear."""
    cmap, u, F = state.cmap, state.u, state.F
    du, dF = dyn._gradients(state)[:2]
    dp = mapped_gradient(_pressure(state), cmap)
    ddu, ddF = mapped_gradient(du, cmap), mapped_gradient(dF, cmap)
    # gradient of the acceleration D_t u = -grad p + sum_j (F_j . grad) F_j
    dacc = mapped_gradient(np.einsum("jb...,jab...->a...", F, dF) - dp, cmap)
    src = (np.einsum("sii...,s...->...", ddu, dp)
           + np.einsum("si...,si...->...", du, mapped_gradient(dp, cmap))
           - 3.0 * np.einsum("ik...,ki...->...", du, dacc)  # (1 + 2) tr(dacc du)
           + 2.0 * np.einsum("si...,ks...,ik...->...", du, du, du)
           + np.einsum("jki...,jsk...,is...->...", dF, dF, du)
           + np.einsum("jk...,jski...,is...->...", F, ddF, du)
           + 2.0 * np.einsum("jki...,js...,isk...->...", dF, F, ddu))
    top = 0.0
    if state.eps != 0.0:
        lap_f = dyn._surface_laplacian(state.f)
        ubar = trace(u)
        dt_lap = (dyn._surface_laplacian(dyn.kinematic_rate(state))
                  + ubar[0] * horizontal_derivative(lap_f, 1)
                  + ubar[1] * horizontal_derivative(lap_f, 2))
        inner = dn.invert_dn_neumann(lap_f, cmap)
        comm = dn.material_dn_commutator(inner, u, cmap)
        top = state.eps * (dn.invert_dn_neumann(comm - np.mean(comm), cmap)
                           - dn.invert_dn_neumann(dt_lap - np.mean(dt_lap),
                                                  cmap))
    bot = sum(bottom_trace(du[a][2]) * bottom_trace(dp[a]) for a in range(2))
    load = volume_load(src, cmap)
    load[..., 0] -= cmap.grid.h1 * cmap.grid.h2 * bot
    dtp, _ = solve_weak(cmap, load, top=top)
    return dtp


class TestPressureDerivative:
    def _fd_gap(self, n, nz, dt, eps):
        st0 = sample_flow(n, nz, 0.05, eps)
        stp, _ = dyn.step(st0, dt)
        stm, _ = dyn.step(st0, -dt)
        pm, p0, pp = _pressure(stm), _pressure(st0), _pressure(stp)
        dp = mapped_gradient(p0, st0.cmap)
        dtphi = map_time_derivative(st0.cmap, dyn.kinematic_rate(st0))
        adv = sum(st0.u[a] * dp[a] for a in range(3))
        oracle = (pp - pm) / (2 * dt) + adv - dtphi * dp[2]
        got = material_pressure_derivative(st0)
        return np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))

    def test_matches_flow_difference(self):
        assert self._fd_gap(16, 17, 2e-3, eps=0.02) < 1e-2

    def test_refines_without_regularization(self):
        g16 = self._fd_gap(16, 17, 2e-3, eps=0.0)
        g24 = self._fd_gap(24, 25, 1e-3, eps=0.0)
        assert g16 < 2.5e-3
        assert g24 < 0.7 * g16


class TestResampleColumns:
    """_resample_columns against one np.interp call per column
    (conftest), bit for bit."""

    @pytest.mark.parametrize("batch", [(3,), (3, 3)])
    def test_matches_interp_loop_on_random_columns(self, rng, batch):
        n1, n2, nz = 6, 4, 9
        shape = (n1, n2, nz)
        old = -1.0 + np.cumsum(rng.uniform(0.02, 0.25, shape), axis=-1)
        new = rng.uniform(old[..., :1] - 0.3, old[..., -1:] + 0.3, shape)
        # exact hits of old nodes, the end nodes among them, and clamping
        hit = rng.random(shape) < 0.3
        pick = rng.integers(0, nz, shape)
        new = np.where(hit, np.take_along_axis(old, pick, axis=-1), new)
        new[0, 0, :2] = old[0, 0, 0], old[0, 0, -1]
        new[1, 1, :2] = old[1, 1, 0] - 0.5, old[1, 1, -1] + 0.5
        field = rng.standard_normal(batch + shape)
        assert np.array_equal(dyn._resample_columns(field, old, new),
                              loop_resample_columns(field, old, new))

    @pytest.mark.parametrize("n", [12, 24])
    @pytest.mark.parametrize("amplitude", [0.05, 0.2])
    def test_matches_interp_loop_on_mollified_maps(self, rng, n, amplitude):
        grid = SlabGrid(n, n, n + 1)
        f0 = random_band_limited(rng, n, n, 4, amplitude)
        f0 -= f0.mean()
        old = build_map(f0, grid).phi
        f = mollify(f0, 0.05)
        new = build_map(f - np.mean(f), grid).phi
        field = rng.standard_normal((3, 3) + grid.shape)
        assert np.array_equal(dyn._resample_columns(field, old, new),
                              loop_resample_columns(field, old, new))


class TestPreparation:
    def test_constraints_restored(self):
        st = sample_flow(16, 17, 0.05, 0.02)
        rep = dyn.invariant_report(st)
        assert rep["div_u"] < 1e-9
        assert rep["div_F"] < 1e-9
        assert rep["trace_F"] < 2e-5
        assert rep["f_mean"] < 1e-15

    def test_no_mollification_keeps_interface(self):
        n, nz = 16, 17
        x1, _ = _coords(n)
        f0 = 0.03 * np.cos(x1) + 0.01
        u0 = np.zeros((3, n, n, nz))
        F0 = np.zeros((3, 3, n, n, nz))
        F0[0, 0] = 1.0
        F0[1, 1] = 1.0
        st, _ = dyn.prepare_initial_data(f0, u0, F0, eps=0.0)
        assert np.max(np.abs(st.f - (f0 - np.mean(f0)))) < 1e-14

    def test_compatible_data_passes_through(self):
        # re-preparing an admissible state only moves it at solver level
        st = sample_flow(16, 17, 0.05, 0.0)
        st2, _ = dyn.prepare_initial_data(st.f, st.u, st.F, eps=0.0)
        assert np.max(np.abs(st2.u - st.u)) < 1e-7
        assert np.max(np.abs(st2.F - st.F)) < 1e-7

    def test_defect_report(self):
        n, nz = 16, 17
        x1, x2 = _coords(n)
        f0 = 0.05 * np.cos(x1)
        u0 = np.zeros((3, n, n, nz))
        u0[0] = 0.1 * np.sin(x1)[..., None] * np.ones(nz)
        F0 = np.zeros((3, 3, n, n, nz))
        F0[0, 0] = 1.0
        F0[1, 1] = 1.0
        _, info = dyn.prepare_initial_data(f0, u0, F0, eps=0.0)
        assert info["before"]["trace_F"] > info["after"]["trace_F"]
