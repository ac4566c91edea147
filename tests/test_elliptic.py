"""Elliptic machinery: adjointness, symmetry, analytic flat profiles,
manufactured solutions on curved maps, boundary flux recovery."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from elastislab import elliptic as el
from elastislab.errors import GridMismatch, PreconditionViolated, SolverDiverged
from elastislab.geometry import (
    SlabGrid,
    build_map,
    vertical_fem_rows,
)

from conftest import (
    energy_product,
    fft_flat_solve,
    fft_project_kernel,
    flat_work,
    free_level_flat_solve,
    free_level_pcg,
    free_level_solve_weak,
    kernel_mask,
    ksq_eff,
    metric_apply,
    metric_cell,
    node_apply_operator,
    node_grad_adjoint,
    node_grad_staggered,
    random_band_limited,
    thomas_batched,
)


def _coords(n1, n2):
    x1 = 2 * np.pi * np.arange(n1) / n1
    x2 = 2 * np.pi * np.arange(n2) / n2
    return x1, x2


def _wavy_map(n1, n2, nz, a1=0.12, a2=0.07):
    x1, x2 = _coords(n1, n2)
    f = a1 * np.cos(x1)[:, None] + a2 * np.sin(2 * x2)[None, :]
    f = f - f.mean()
    grid = SlabGrid(n1, n2, nz)
    return build_map(f, grid)


class TestOperatorAlgebra:
    def test_grad_adjoint_is_exact(self, rng):
        grid = SlabGrid(16, 12, 17)
        u = rng.standard_normal(grid.shape)
        p = tuple(rng.standard_normal((16, 12, grid.ncells)) for _ in range(3))
        lhs = sum(np.sum(a * b) for a, b in zip(el.grad_staggered(u, grid), p))
        rhs = np.sum(u * el.grad_adjoint(*p, grid))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_operator_symmetric_on_curved_map(self, rng):
        cmap = _wavy_map(16, 12, 17)
        u = rng.standard_normal(cmap.grid.shape)
        v = rng.standard_normal(cmap.grid.shape)
        uv = np.sum(el.apply_operator(u, cmap) * v)
        vu = np.sum(u * el.apply_operator(v, cmap))
        assert abs(uv - vu) <= 1e-12 * abs(uv)

    def test_operator_positive_semidefinite(self, rng):
        cmap = _wavy_map(16, 12, 17, a1=0.25, a2=0.15)
        for _ in range(5):
            u = rng.standard_normal(cmap.grid.shape)
            assert np.sum(u * el.apply_operator(u, cmap)) >= 0.0

    def test_constants_in_kernel(self):
        cmap = _wavy_map(16, 12, 17)
        assert np.max(np.abs(el.apply_operator(np.ones(cmap.grid.shape), cmap))) < 1e-12

    def test_batched_or_column_input_on_a_3d_map_is_refused(self, rng):
        # a (3, n1, n2, nz) batch would be read as a grid of n1 = 3 rows
        cmap = _wavy_map(8, 8, 9)
        u = rng.standard_normal((3,) + cmap.grid.shape)
        for bad in (u, u[0][:, :1]):
            with pytest.raises(GridMismatch):
                el.apply_operator(bad, cmap)

    def test_metric_apply_equals_metric_cell_formula(self, rng):
        cmap = _wavy_map(16, 12, 17, a1=0.25, a2=0.15)
        q = tuple(rng.standard_normal((16, 12, cmap.grid.ncells))
                  for _ in range(3))
        k11, k22, k33, k13, k23 = metric_cell(cmap)
        want = (k11 * q[0] + k13 * q[2],
                k22 * q[1] + k23 * q[2],
                k13 * q[0] + k23 * q[1] + k33 * q[2])
        for got, exp in zip(metric_apply(cmap, *q), want):
            assert np.array_equal(got, exp)

    def test_energy_product_matches_operator(self, rng):
        cmap = _wavy_map(16, 12, 17)
        u = rng.standard_normal(cmap.grid.shape)
        v = rng.standard_normal(cmap.grid.shape)
        assert energy_product(u, v, cmap) == pytest.approx(
            float(np.sum(el.apply_operator(u, cmap) * v)), rel=1e-12
        )


def _rel(got, want):
    """Relative distance of two tuples of arrays in the Euclidean norm."""
    diff = np.sqrt(sum(np.sum((a - b) ** 2) for a, b in zip(got, want)))
    return diff / np.sqrt(sum(np.sum(b * b) for b in want))


def _constant_along(a, axis):
    return np.array_equal(a, np.repeat(np.take(a, [0], axis=axis),
                                       a.shape[axis], axis=axis))


class TestAverageFirstForms:
    """The operator averages to cells before differentiating horizontally;
    the node-average-after forms of conftest are the references."""

    @settings(max_examples=40, deadline=None)
    @given(n1=st.integers(2, 8).map(lambda k: 2 * k),
           n2=st.integers(2, 8).map(lambda k: 2 * k),
           nz=st.integers(3, 13),
           amplitude=st.one_of(st.just(0.0), st.floats(0.01, 0.3)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_match_node_average_after_forms(self, n1, n2, nz, amplitude, seed):
        rng = np.random.default_rng(seed)
        grid = SlabGrid(n1, n2, nz)
        cmap = build_map(random_band_limited(rng, n1, n2, 2, amplitude), grid)
        u = rng.standard_normal(grid.shape)
        p = tuple(rng.standard_normal((n1, n2, nz - 1)) for _ in range(3))
        assert _rel(el.grad_staggered(u, grid), node_grad_staggered(u, grid)) <= 1e-13
        assert _rel([el.grad_adjoint(*p, grid)],
                    [node_grad_adjoint(*p, grid)]) <= 1e-13
        assert _rel([el.apply_operator(u, cmap)],
                    [node_apply_operator(u, cmap)]) <= 1e-13

    @pytest.mark.parametrize("amplitude", [0.0, 0.2])
    def test_exact_zeros_kept(self, rng, amplitude):
        # wherever the reference gives an exact 0, or a field exactly
        # constant along an axis, the average-first forms do too
        grid = SlabGrid(16, 12, 17)
        x1, x2 = _coords(16, 12)
        u = rng.standard_normal(grid.shape)
        vertical = np.broadcast_to(grid.y3, grid.shape).copy()
        for axis in (0, 1):
            # the field and the map are both constant along the axis
            w = np.repeat(np.take(u, [0], axis=axis), grid.shape[axis], axis=axis)
            f = (np.ones((16, 1)) * np.sin(x2) if axis == 0
                 else np.cos(x1)[:, None] * np.ones(12))
            cmap = build_map(amplitude * f, grid)
            for field in (w, vertical, np.ones(grid.shape)):
                got = el.grad_staggered(field, grid) + (
                    el.apply_operator(field, cmap),)
                want = node_grad_staggered(field, grid) + (
                    node_apply_operator(field, cmap),)
                for a, b in zip(got, want):
                    assert np.array_equal(a == 0.0, b == 0.0)
                    if _constant_along(b, axis):
                        assert _constant_along(a, axis)
            assert not np.any(el.grad_staggered(w, grid)[axis])
            assert not np.any(el.apply_operator(np.ones(grid.shape), cmap))

    def test_apply_operator_allocation_peak(self, rng):
        cmap = _wavy_map(16, 12, 17)
        u = rng.standard_normal(cmap.grid.shape)
        el.apply_operator(u, cmap)
        tracemalloc.start()
        try:
            el.apply_operator(u, cmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * u.nbytes


class TestOperatorWorkspace:
    """apply_operator writes into per-solve buffers: the node-shape cell
    coefficients and the flat-view vertical stencils must give the node
    reference's operator, on full arrays and x2 columns alike."""

    @settings(max_examples=40, deadline=None)
    @given(n1=st.integers(2, 8).map(lambda k: 2 * k),
           n2=st.integers(2, 8).map(lambda k: 2 * k),
           nz=st.integers(3, 17),
           amplitude=st.one_of(st.just(0.0), st.floats(0.01, 0.3)),
           seed=st.integers(0, 2 ** 32 - 1))
    # n1 != n2, and nz - 1 == n1: cell rows of 64 bytes, the stride of a
    # strided-output np.negative that numpy 2.4.6 gets wrong
    @example(n1=8, n2=12, nz=9, amplitude=0.2, seed=1)
    @example(n1=8, n2=8, nz=9, amplitude=0.2, seed=2)
    def test_matches_node_reference(self, n1, n2, nz, amplitude, seed):
        rng = np.random.default_rng(seed)
        grid = SlabGrid(n1, n2, nz)
        x1, _ = _coords(n1, n2)
        maps = (build_map(random_band_limited(rng, n1, n2, 2, amplitude), grid),
                build_map(amplitude * np.cos(x1)[:, None] * np.ones(n2), grid))
        for cmap in maps:
            u = rng.standard_normal(grid.shape)
            if cmap.x2_invariant:
                u[:, 1:] = u[:, :1]
            want = node_apply_operator(u, cmap)
            ws = el._operator_work(cmap, u.shape)
            for scale in (1.0, 2.0):  # the second call reuses the buffers
                got = el.apply_operator(scale * u, cmap, ws)
                assert _rel([got], [scale * want]) <= 1e-14
            if cmap.x2_invariant:
                column = el.apply_operator(u[:, :1], cmap)
                assert _rel([column], [want[:, :1]]) <= 1e-14

    def test_solve_allocation_does_not_grow_with_iterations(self, rng,
                                                            monkeypatch):
        cmap = _wavy_map(16, 12, 17, a1=0.2, a2=0.1)
        load = el.volume_load(rng.standard_normal(cmap.grid.shape), cmap)
        iterations, peaks = [], []
        for tol in (1e-4, 1e-10):
            monkeypatch.setattr(el, "DEFAULT_TOL", tol)
            el.solve_weak(cmap, load)  # caches filled
            tracemalloc.start()
            try:
                _, info = el.solve_weak(cmap, load)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            iterations.append(info["iterations"])
        assert iterations[1] >= 2 * iterations[0]
        assert peaks[1] <= peaks[0] + load.nbytes


class TestFlatSolves:
    def test_flat_dirichlet_single_iteration(self):
        grid = SlabGrid(16, 12, 33)
        flat = build_map(np.zeros((16, 12)), grid)
        x1, _ = _coords(16, 12)
        g = np.cos(x1)[:, None] * np.ones((1, 12))
        _, info = el.solve_weak(flat, None, top=g, bottom=np.zeros_like(g))
        assert info["iterations"] == 1

    def test_flat_extension_matches_sinh_profile(self):
        # single horizontal mode extends with a sinh vertical profile
        grid = SlabGrid(16, 12, 33)
        flat = build_map(np.zeros((16, 12)), grid)
        x1, _ = _coords(16, 12)
        g = np.cos(x1)[:, None] * np.ones((1, 12))
        u = el.harmonic_ext_dirichlet(g, flat)
        exact = g[..., None] * (np.sinh(grid.y3 + 1) / np.sinh(1.0))
        assert np.max(np.abs(u - exact)) < 1e-13

    def test_flat_extension_zero_mode_is_linear(self):
        grid = SlabGrid(8, 8, 17)
        flat = build_map(np.zeros((8, 8)), grid)
        g = np.full((8, 8), 0.7)
        u = el.harmonic_ext_dirichlet(g, flat)
        assert np.max(np.abs(u - 0.7 * (grid.y3 + 1.0))) < 1e-13
        un = el.harmonic_ext_neumann(g, flat)
        assert np.max(np.abs(un - 0.7)) < 1e-13

    def test_flat_neumann_extension_cosh_profile(self):
        grid = SlabGrid(16, 12, 33)
        flat = build_map(np.zeros((16, 12)), grid)
        x1, _ = _coords(16, 12)
        g = 0.4 * np.cos(2 * x1)[:, None] * np.ones((1, 12))
        u = el.harmonic_ext_neumann(g, flat)
        exact = g[..., None] * (np.cosh(2 * (grid.y3 + 1)) / np.cosh(2.0))
        assert np.max(np.abs(u - exact)) < 1e-13

    def test_discrete_path_second_order_against_profile(self):
        x1, _ = _coords(16, 12)
        g = np.cos(x1)[:, None] * np.ones((1, 12))
        errs = []
        for nz in (17, 33):
            grid = SlabGrid(16, 12, nz)
            flat = build_map(np.zeros((16, 12)), grid)
            u, _ = el.solve_weak(flat, None, top=g, bottom=0.0)
            exact = g[..., None] * (np.sinh(grid.y3 + 1) / np.sinh(1.0))
            errs.append(np.max(np.abs(u - exact)))
        assert np.log2(errs[0] / errs[1]) > 1.9

    def test_flat_poisson_manufactured_profile(self):
        # rhs = cos(x1): exact vertical profile cosh(y+1)/cosh(1) - 1
        errs = []
        for nz in (17, 33):
            grid = SlabGrid(16, 12, nz)
            flat = build_map(np.zeros((16, 12)), grid)
            x1, _ = _coords(16, 12)
            rhs = np.cos(x1)[:, None, None] * np.ones((1, 12, nz))
            u, _ = el.solve_weak(flat, el.volume_load(rhs, flat))
            w = np.cosh(grid.y3 + 1) / np.cosh(1.0) - 1.0
            errs.append(np.max(np.abs(u - np.cos(x1)[:, None, None] * w)))
        assert errs[1] < 5e-5
        assert np.log2(errs[0] / errs[1]) > 1.9

    def test_flat_poisson_dirichlet_both_profile(self):
        # same rhs, floor clamped: profile cosh(y+1/2)/cosh(1/2) - 1
        errs = []
        for nz in (17, 33):
            grid = SlabGrid(16, 12, nz)
            flat = build_map(np.zeros((16, 12)), grid)
            x1, _ = _coords(16, 12)
            rhs = np.cos(x1)[:, None, None] * np.ones((1, 12, nz))
            u, _ = el.solve_weak(flat, el.volume_load(rhs, flat),
                                 bottom=0.0)
            w = np.cosh(grid.y3 + 0.5) / np.cosh(0.5) - 1.0
            errs.append(np.max(np.abs(u - np.cos(x1)[:, None, None] * w)))
        assert errs[1] < 2e-4
        assert np.log2(errs[0] / errs[1]) > 1.9

    def test_all_neumann_flux_problem(self):
        # prescribed top flux cos(x1), zero floor flux: cosh(y+1)/sinh(1)
        errs = []
        for nz in (33, 65):
            grid = SlabGrid(16, 12, nz)
            flat = build_map(np.zeros((16, 12)), grid)
            x1, _ = _coords(16, 12)
            flux = np.cos(x1)[:, None] * np.ones((1, 12))
            load = np.zeros(grid.shape)
            load[..., -1] = grid.h1 * grid.h2 * flux
            u, info = el.solve_weak(flat, load, top=None)
            assert info["iterations"] == 1
            exact = np.cos(x1)[:, None, None] * (
                np.cosh(grid.y3 + 1) / np.sinh(1.0))
            d = u - exact
            d -= d.mean()
            errs.append(np.max(np.abs(d)))
        assert np.log2(errs[0] / errs[1]) > 1.9


def _thomas_flat_solve(r, grid, z0, z1):
    """Flat-operator solve by one tridiagonal system per horizontal mode
    (reference for the fast-diagonal preconditioner)."""
    n1, n2, nz = grid.shape
    ksq = ksq_eff(n1, n2)[..., None]
    off, mid = vertical_fem_rows(ksq, grid.dz)
    off = np.broadcast_to(off, ksq.shape[:2] + (z1 - z0,))
    diag = np.broadcast_to(mid, off.shape).copy()
    if z0 == 0:
        diag[..., 0] *= 0.5
    if z1 == nz:
        diag[..., -1] *= 0.5
    neumann_all = z0 == 0 and z1 == nz
    mask = kernel_mask(n1, n2)
    if neumann_all:
        # pin the singular kernel blocks, then take their mean-free solution
        diag[mask, 0] += 1.0
    rhat = np.fft.rfft2(r, axes=(0, 1)) / (grid.h1 * grid.h2)
    x = thomas_batched(off, diag, off, rhat)
    if neumann_all:
        x[mask, :] -= np.mean(x[mask, :], axis=-1, keepdims=True)
    return np.fft.irfft2(x, s=(n1, n2), axes=(0, 1))


def _full(r, grid, z0):
    """r on the free levels from z0 up, embedded in a full node array
    that is 0 on the other levels."""
    out = np.zeros(grid.shape)
    out[..., z0:z0 + r.shape[-1]] = r
    return out


class TestFlatPreconditioner:
    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(2, 8).map(lambda k: 2 * k),
        n2=st.integers(2, 8).map(lambda k: 2 * k),
        nz=st.integers(3, 17),
        levels=st.sampled_from(["dirichlet-both", "dirichlet-top",
                                "neumann-both"]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_tridiagonal_solve(self, n1, n2, nz, levels, seed):
        grid = SlabGrid(n1, n2, nz)
        z0, z1 = {"dirichlet-both": (1, nz - 1),
                  "dirichlet-top": (0, nz - 1),
                  "neumann-both": (0, nz)}[levels]
        r = np.random.default_rng(seed).standard_normal((n1, n2, z1 - z0))
        if levels == "neumann-both":
            r = el._project_kernel(r, grid)
        full = _full(r, grid, z0)
        got = el._flat_solve(full, grid, z0, z1, grid.n2, flat_work(full))
        want = _thomas_flat_solve(r, grid, z0, z1)
        assert not got[..., :z0].any() and not got[..., z1:].any()
        got = got[..., z0:z1]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("z0, z1", [(1, 8), (0, 8), (0, 9)])
    def test_axis_constant_data_stays_axis_constant(self, rng, z0, z1):
        # a load constant along x2 (or x1) gets a solution constant along
        # it, exactly: no rounding leaks into the other coefficients
        grid = SlabGrid(8, 6, 9)
        for shape in ((8, 1, z1 - z0), (1, 6, z1 - z0)):
            r = np.broadcast_to(rng.standard_normal(shape),
                                (8, 6, z1 - z0)).copy()
            if z1 == 9:
                r = el._project_kernel(r, grid)
            full = _full(r, grid, z0)
            x = el._flat_solve(full, grid, z0, z1, grid.n2, flat_work(full))
            axis = shape.index(1)
            assert np.array_equal(x, np.broadcast_to(x.take([0], axis), x.shape))

    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(2, 16).map(lambda k: 2 * k),
        n2=st.integers(2, 16).map(lambda k: 2 * k),
        nz=st.integers(3, 17),
        levels=st.sampled_from(["dirichlet-both", "dirichlet-top",
                                "neumann-both"]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matrix_products_match_transforms(self, n1, n2, nz, levels,
                                              seed):
        grid = SlabGrid(n1, n2, nz)
        z0, z1 = {"dirichlet-both": (1, nz - 1),
                  "dirichlet-top": (0, nz - 1),
                  "neumann-both": (0, nz)}[levels]
        r = np.random.default_rng(seed).standard_normal((n1, n2, z1 - z0))
        if levels == "neumann-both":
            got = el._project_kernel(r, grid)
            want = fft_project_kernel(r, grid)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            r = want
        full = _full(r, grid, z0)
        got = el._flat_solve(full, grid, z0, z1, grid.n2,
                             flat_work(full))[..., z0:z1]
        want = fft_flat_solve(r, grid, z0, z1)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("z0, z1", [(1, 8), (0, 8), (0, 9)])
    def test_fixed_levels_neither_read_nor_written(self, rng, z0, z1):
        grid = SlabGrid(8, 6, 9)
        r = rng.standard_normal(grid.shape)
        if z1 == 9:
            r = el._project_kernel(r, grid)
        got = el._flat_solve(r, grid, z0, z1, grid.n2, flat_work(r))
        want = free_level_flat_solve(r[..., z0:z1], grid, z0, z1)
        assert np.array_equal(got[..., z0:z1], want)
        assert not got[..., :z0].any() and not got[..., z1:].any()


BOUNDARIES = {"dirichlet-top": (0.0, None), "dirichlet-both": (0.3, 0.0),
              "neumann-both": (None, None)}


class TestFullArrayPCG:
    """PCG on full node arrays with the fixed levels held at 0; the
    free-level iteration of conftest is the reference."""

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("levels", sorted(BOUNDARIES))
    def test_matches_free_level_solve(self, rng, levels, warm):
        cmap = _wavy_map(16, 12, 17, a1=0.2, a2=0.1)
        grid = cmap.grid
        top, bottom = BOUNDARIES[levels]
        if top is not None:
            top = top + 0.1 * random_band_limited(rng, 16, 12, 3)
        load = el.volume_load(rng.standard_normal(grid.shape), cmap)
        x0 = rng.standard_normal(grid.shape) if warm else None
        got, _ = el.solve_weak(cmap, load, top=top, bottom=bottom, x0=x0)
        want, _ = free_level_solve_weak(cmap, load, top=top, bottom=bottom,
                                        x0=x0)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("levels", sorted(BOUNDARIES))
    def test_every_vector_is_zero_on_the_fixed_levels(self, rng, monkeypatch,
                                                      levels):
        # zero Dirichlet values: no lift, every operator call is the PCG's
        cmap = _wavy_map(8, 8, 9, a1=0.2, a2=0.1)
        grid = cmap.grid
        top, bottom = (None if v is None else 0.0 for v in BOUNDARIES[levels])
        z0 = 0 if bottom is None else 1
        z1 = grid.nz if top is None else grid.nz - 1
        load = el.volume_load(rng.standard_normal(grid.shape), cmap)
        b = load.copy()
        b[..., :z0] = 0.0
        b[..., z1:] = 0.0
        if z1 == grid.nz and z0 == 0:
            b = el._project_kernel(b, grid)
        seen = []  # operator inputs, preconditioner inputs and outputs
        apply_operator, flat_solve = el.apply_operator, el._flat_solve

        def applied(v, cmap, *args):
            seen.append(v.copy())
            return apply_operator(v, cmap, *args)

        def preconditioned(r, *args):
            # the solve's result is a buffer the next call overwrites
            z = flat_solve(r, *args)
            seen.extend([r.copy(), z.copy()])
            return z

        monkeypatch.setattr(el, "apply_operator", applied)
        monkeypatch.setattr(el, "_flat_solve", preconditioned)
        x0 = rng.standard_normal(grid.shape)
        x, info = el.solve_weak(cmap, load, top=top, bottom=bottom, x0=x0)
        iters = info["iterations"]
        assert iters > 1 and len(seen) == 3 * iters + 1
        for v in seen + [x]:
            assert not v[..., :z0].any() and not v[..., z1:].any()
        want, _, _ = free_level_pcg(cmap, b[..., z0:z1], z0, z1,
                                    z0 == 0 and z1 == grid.nz, x0[..., z0:z1])
        assert (np.linalg.norm(x[..., z0:z1] - want)
                <= 1e-12 * np.linalg.norm(want))

    @pytest.mark.parametrize("levels", sorted(BOUNDARIES))
    def test_one_workspace_per_solve(self, rng, monkeypatch, levels):
        # the Dirichlet lift runs in the iteration's workspace
        cmap = _wavy_map(8, 8, 9, a1=0.2, a2=0.1)
        top, bottom = BOUNDARIES[levels]
        if top is not None:
            top = top + 0.1 * random_band_limited(rng, 8, 8, 3)
        built = []
        operator_work = el._operator_work

        def counted(*args):
            built.append(1)
            return operator_work(*args)

        monkeypatch.setattr(el, "_operator_work", counted)
        load = el.volume_load(rng.standard_normal(cmap.grid.shape), cmap)
        el.solve_weak(cmap, load, top=top, bottom=bottom)
        assert len(built) == 1

    @pytest.mark.parametrize("n", [12, 24])
    @pytest.mark.parametrize("levels", sorted(BOUNDARIES))
    def test_x2_invariant_load_gives_x2_invariant_solution(self, rng, n,
                                                          levels):
        grid = SlabGrid(n, n, n + 1)
        x1, _ = _coords(n, n)
        cmap = build_map(0.15 * np.cos(x1)[:, None] * np.ones(n), grid)
        load = np.broadcast_to(rng.standard_normal((n, 1, n + 1)),
                               grid.shape)
        top, bottom = BOUNDARIES[levels]
        if top is not None:
            top = top + 0.1 * np.sin(x1)[:, None] * np.ones(n)
        u, _ = el.solve_weak(cmap, load, top=top, bottom=bottom)
        assert _constant_along(u, 1)


class TestCurvedSolves:
    def test_non_finite_load_fails_fast(self, monkeypatch):
        cmap = _wavy_map(8, 8, 9)
        rhs = np.zeros(cmap.grid.shape)
        rhs[3, 4, 5] = np.nan
        calls = []
        original = el.apply_operator

        def counted(u, cmap, *args):
            calls.append(1)
            return original(u, cmap, *args)

        monkeypatch.setattr(el, "apply_operator", counted)
        with pytest.raises(SolverDiverged):
            el.solve_weak(cmap, el.volume_load(rhs, cmap))
        assert len(calls) <= 2

    def test_manufactured_solution_second_order(self):
        # physical field sin(x1)cos(x2)(x3+1)^2 composed with the map
        errs = []
        for n, nz in ((16, 17), (32, 33)):
            grid = SlabGrid(n, n, nz)
            x1, x2 = _coords(n, n)
            f = 0.1 * np.cos(x1)[:, None] + 0.06 * np.sin(x2)[None, :]
            f = f - f.mean()
            cmap = build_map(f, grid)
            s = np.sin(x1)[:, None, None] * np.cos(x2)[None, :, None]
            exact = s * (cmap.phi + 1.0) ** 2
            rhs = -2.0 * exact + 2.0 * s
            top = s[..., 0] * (f + 1.0) ** 2
            u, _ = el.solve_weak(cmap, el.volume_load(rhs, cmap), top=top)
            errs.append(np.max(np.abs(u - exact)))
        assert np.log2(errs[0] / errs[1]) > 1.9

    def test_interior_residual_small_after_solve(self):
        cmap = _wavy_map(16, 12, 17, a1=0.2, a2=0.1)
        x1, _ = _coords(16, 12)
        g = 0.3 * np.cos(x1)[:, None] * np.ones((1, 12))
        u = el.harmonic_ext_dirichlet(g, cmap)
        res = el.apply_operator(u, cmap)[..., 1:-1]
        assert np.max(np.abs(res)) < 1e-9

    def test_flux_recovery_consistent_with_energy(self, rng):
        # sum over top rows of residual x data equals the energy pairing
        cmap = _wavy_map(16, 12, 17)
        grid = cmap.grid
        g = random_band_limited(rng, 16, 12, 4)
        h = random_band_limited(rng, 16, 12, 4)
        ug = el.harmonic_ext_dirichlet(g, cmap)
        uh = el.harmonic_ext_dirichlet(h, cmap)
        flux = el.boundary_flux_top(ug, cmap)
        pairing = np.sum(flux * h) * grid.h1 * grid.h2
        assert pairing == pytest.approx(energy_product(ug, uh, cmap),
                                        rel=1e-8, abs=1e-10)

    def test_bottom_flux_recovery_flat(self):
        # u = sinh profile: outward floor flux -d3 u = -cos(x1)/sinh(1)
        grid = SlabGrid(16, 12, 65)
        flat = build_map(np.zeros((16, 12)), grid)
        x1, _ = _coords(16, 12)
        g = np.cos(x1)[:, None] * np.ones((1, 12))
        u, _ = el.solve_weak(flat, None, top=g, bottom=0.0)
        # variational recovery: the operator residual at the floor rows
        flux = el.apply_operator(u, flat)[..., 0] / (grid.h1 * grid.h2)
        exact = -np.cos(x1)[:, None] / np.sinh(1.0) * np.ones((1, 12))
        assert np.max(np.abs(flux - exact)) < 2e-4


class TestSolveWeakContract:
    def test_load_left_unchanged(self, rng):
        # the caller keeps its load for the flux recovery after the solve,
        # so the Dirichlet lift must not be subtracted from it in place
        cmap = _wavy_map(8, 8, 9)
        load = rng.standard_normal(cmap.grid.shape)
        kept = load.copy()
        lift = random_band_limited(rng, 8, 8, 3)
        for top, bottom in ((lift, None), (lift, 0.5), (0.0, 0.5), (None, None)):
            el.solve_weak(cmap, load, top=top, bottom=bottom)
            assert np.array_equal(load, kept)

    def test_scalar_dirichlet_value_is_the_constant_field(self, rng):
        cmap = _wavy_map(8, 8, 9)
        abar = 2.0 + 0.5 * random_band_limited(rng, 8, 8, 3)
        c0 = 0.3
        u_scalar, _ = el.solve_weak(cmap, None, top=abar, bottom=c0)
        u_field, _ = el.solve_weak(cmap, None, top=abar,
                                   bottom=np.full((8, 8), c0))
        assert np.array_equal(u_scalar, u_field)


class TestWeightField:
    def test_flat_constant_data_interpolates_linearly(self):
        grid = SlabGrid(8, 8, 17)
        flat = build_map(np.zeros((8, 8)), grid)
        abar = np.full((8, 8), 3.0)
        w = el.weight_field(abar, 1.0, flat)
        exact = 1.0 + 2.0 * (grid.y3 + 1.0)
        assert np.max(np.abs(w - exact)) < 1e-10

    def test_maximum_principle_sandwich(self):
        cmap = _wavy_map(16, 12, 17)
        x1, _ = _coords(16, 12)
        abar = 2.0 + 0.5 * np.cos(x1)[:, None] * np.ones((1, 12))
        w = el.weight_field(abar, 0.5, cmap)
        assert w.min() >= 0.5 - 1e-8
        assert w.max() <= 2.5 + 1e-8

    def test_rejects_weight_below_floor(self):
        cmap = _wavy_map(8, 8, 9)
        abar = np.full((8, 8), 0.3)
        with pytest.raises(PreconditionViolated):
            el.weight_field(abar, 0.5, cmap)


class TestQuadrature:
    def test_volume_weights_integrate_jacobian(self):
        # total weight equals the volume of the moving domain
        cmap = _wavy_map(16, 12, 33, a1=0.2, a2=0.1)
        total = np.sum(el.volume_weights(cmap))
        assert total == pytest.approx(4.0 * np.pi ** 2, rel=1e-10)

    def test_bulk_l2_flat_cosine(self):
        grid = SlabGrid(16, 12, 65)
        flat = build_map(np.zeros((16, 12)), grid)
        x1, _ = _coords(16, 12)
        field = np.cos(x1)[:, None, None] * np.ones((1, 12, 65))
        # int over T^2 x [-1,0] of cos^2 = 2 pi^2
        norm = np.sqrt(np.sum(el.volume_weights(flat) * field ** 2))
        assert norm == pytest.approx(np.sqrt(2.0) * np.pi, rel=1e-12)
