"""Tests for the slab grid, harmonic map, and snapshot IO."""

import contextlib
import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastislab import cli, dynamics as dyn, elliptic as el, geometry as geo
from elastislab import spectral as sp, stability as stab
from elastislab.errors import DegenerateMap, GridMismatch, PreconditionViolated
from elastislab.snapshots import read_snapshot, write_snapshot

from conftest import (
    fft_dh_pair,
    fft_dh_pair_adjoint,
    flat_work,
    map_interior_residual,
    random_band_limited,
    stencil_d3_node,
    thomas_batched,
    thomas_map_solve,
    torus_grid,
)


def single_mode_map_oracle(delta, grid):
    """Analytic vertical map for f = delta*cos(x1): separation of variables."""
    X1, _ = torus_grid(grid.n1, grid.n2)
    y3 = grid.y3
    prof = np.sinh(y3 + 1.0) / np.sinh(1.0)
    return y3[None, None, :] + delta * np.cos(X1)[:, :, None] * prof[None, None, :]


class TestThomas:
    def test_against_dense_solve(self, rng):
        n = 17
        for _ in range(5):
            sub = rng.normal(size=n)
            sup = rng.normal(size=n)
            diag = rng.normal(size=n) + 8.0
            rhs = rng.normal(size=(3, n))
            x = thomas_batched(sub, diag, sup, rhs)
            mat = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
            for b in range(3):
                expect = np.linalg.solve(mat, rhs[b])
                assert np.allclose(x[b], expect, atol=1e-9)


class TestBuildMap:
    def test_flat_map_is_identity(self):
        grid = geo.SlabGrid(8, 8, 9)
        cmap = geo.build_map(np.zeros((8, 8)), grid)
        assert cmap.is_flat
        assert np.allclose(cmap.phi, np.broadcast_to(grid.y3, grid.shape))
        assert np.allclose(cmap.phi3, 1.0)

    @pytest.mark.parametrize("nz", [3, 9, 50, 99, 104])
    def test_flat_map_boundary_rows_exact(self, nz):
        grid = geo.SlabGrid(4, 6, nz)
        phi = geo.build_map(np.zeros((4, 6)), grid).phi
        assert np.all(phi[..., -1] == 0.0)
        assert np.all(phi[..., 0] == -1.0)
        assert np.array_equal(phi[..., 1:-1],
                              np.broadcast_to(grid.y3[1:-1], (4, 6, nz - 2)))

    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(2, 16).map(lambda k: 2 * k),
        n2=st.integers(2, 16).map(lambda k: 2 * k),
        nz=st.integers(3, 50),
        amplitude=st.one_of(st.just(0.0), st.floats(0.01, 0.3)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_map_matches_tridiagonal_solve(self, n1, n2, nz, amplitude, seed):
        rng = np.random.default_rng(seed)
        grid = geo.SlabGrid(n1, n2, nz)
        f = random_band_limited(rng, n1, n2, 1, amplitude)
        cmap = geo.build_map(f, grid)
        want = thomas_map_solve(grid, f, -1.0)
        assert np.max(np.abs(cmap.phi - want)) <= 1e-13
        g = rng.standard_normal((n1, n2))
        g *= amplitude / np.max(np.abs(g))
        want = thomas_map_solve(grid, g, 0.0)
        assert np.max(np.abs(geo.map_time_derivative(cmap, g) - want)) <= 1e-13

    def test_boundary_values_exact(self, rng):
        grid = geo.SlabGrid(16, 16, 17)
        X1, X2 = torus_grid(16, 16)
        f = 0.1 * np.cos(X1) + 0.05 * np.sin(2 * X2)
        cmap = geo.build_map(f, grid)
        assert np.array_equal(cmap.phi[..., -1], f)
        assert np.array_equal(cmap.phi[..., 0], np.full((16, 16), -1.0))

    def test_discrete_residual_small(self):
        grid = geo.SlabGrid(16, 16, 17)
        X1, X2 = torus_grid(16, 16)
        f = 0.2 * np.cos(X1) * np.cos(X2)
        cmap = geo.build_map(f, grid)
        assert map_interior_residual(cmap) < 1e-10

    def test_single_mode_matches_analytic_at_second_order(self):
        delta = 0.1
        errs = []
        for nz in (17, 33):
            grid = geo.SlabGrid(16, 16, nz)
            X1, _ = torus_grid(16, 16)
            cmap = geo.build_map(delta * np.cos(X1), grid)
            oracle = single_mode_map_oracle(delta, grid)
            errs.append(np.max(np.abs(cmap.phi - oracle)))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.9

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_interface_rejected(self, bad):
        grid = geo.SlabGrid(8, 8, 9)
        X1, _ = torus_grid(8, 8)
        f = 0.1 * np.cos(X1)
        f[3, 5] = bad
        with pytest.raises(PreconditionViolated, match="non-finite"):
            geo.build_map(f, grid)

    def test_degenerate_map_raises(self):
        grid = geo.SlabGrid(16, 16, 17)
        X1, _ = torus_grid(16, 16)
        with pytest.raises(DegenerateMap):
            geo.build_map(0.9 * np.cos(X1), grid)
        with pytest.raises(DegenerateMap):
            geo.build_map(np.full((16, 16), -1.01), grid)

    def test_time_derivative_is_linearization(self):
        grid = geo.SlabGrid(16, 16, 17)
        X1, X2 = torus_grid(16, 16)
        f = 0.1 * np.cos(X1)
        g = 0.07 * np.sin(X2)
        cmap = geo.build_map(f, grid)
        t = 1e-4
        lin = (geo.build_map(f + t * g, grid).phi - cmap.phi) / t
        dphi = geo.map_time_derivative(cmap, g)
        # the discrete solve is linear in the data, so this is exact
        assert np.max(np.abs(lin - dphi)) < 1e-8
        assert np.allclose(dphi[..., -1], g, atol=1e-12)
        assert np.allclose(dphi[..., 0], 0.0, atol=1e-12)


class TestMappedGradient:
    def test_flat_gradient_exact_modes(self):
        grid = geo.SlabGrid(16, 16, 17)
        cmap = geo.build_map(np.zeros((16, 16)), grid)
        X1, _ = torus_grid(16, 16)
        w = np.sin(X1)[:, :, None] * np.ones(grid.nz)[None, None, :]
        g = geo.mapped_gradient(w, cmap)
        assert np.allclose(g[0], np.cos(X1)[:, :, None], atol=1e-12)
        assert np.allclose(g[1], 0.0, atol=1e-12)
        assert np.allclose(g[2], 0.0, atol=1e-10)

    def test_manufactured_gradient_second_order(self):
        # F(x) = sin(x1) (x3+1)^2 + cos(x2) x3 evaluated through the map
        errs = []
        for nz in (17, 33):
            grid = geo.SlabGrid(32, 32, nz)
            X1, X2 = torus_grid(32, 32)
            f = 0.15 * np.cos(X1) + 0.1 * np.sin(X2)
            cmap = geo.build_map(f, grid)
            x3 = cmap.phi
            s1 = np.sin(X1)[:, :, None]
            c1 = np.cos(X1)[:, :, None]
            s2 = np.sin(X2)[:, :, None]
            c2 = np.cos(X2)[:, :, None]
            w = s1 * (x3 + 1.0) ** 2 + c2 * x3
            g = geo.mapped_gradient(w, cmap)
            exact = np.stack([
                c1 * (x3 + 1.0) ** 2,
                -s2 * x3,
                2.0 * s1 * (x3 + 1.0) + c2,
            ])
            errs.append(np.max(np.abs(g - exact)))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.9

    def test_inv_phi3_computed_once(self, rng):
        grid = geo.SlabGrid(16, 12, 9)
        cmap = geo.build_map(random_band_limited(rng, 16, 12, 2, 0.2), grid)
        w = rng.standard_normal((2,) + grid.shape)
        g = geo.mapped_gradient(w, cmap)
        assert cmap.inv_phi3 is cmap.inv_phi3
        assert not cmap.inv_phi3.flags.writeable
        # the chain rule of the module docstring, evaluated in that order
        d1, d2 = geo._dh_pair(w)
        g3 = 1.0 / cmap.phi3 * geo.d3_node(w, grid.dz)
        want = np.stack([d1 - cmap.phi1 * g3, d2 - cmap.phi2 * g3, g3],
                        axis=1)
        assert np.array_equal(g, want)

    def test_zero_field_has_all_zero_gradient(self, rng):
        # the energy ladder skips a zero node's subtree on this property
        grid = geo.SlabGrid(16, 12, 9)
        cmap = geo.build_map(random_band_limited(rng, 16, 12, 2, 0.2), grid)
        for batch in ((), (3,), (3, 3)):
            assert not geo.mapped_gradient(np.zeros(batch + grid.shape), cmap).any()

    @pytest.mark.parametrize("n, nz", [(12, 13), (24, 25), (28, 9), (40, 17)])
    def test_x2_invariant_interface_has_exact_zero_x2_slopes(self, rng, n, nz):
        """An interface and a field with no x2-dependence give an exactly
        zero phi2 and x2-derivative on every grid, so the energy ladder
        skips every x2-branch of the presets.

        This follows from how the map solve is built: its transform into
        the real basis takes axis 2 first and subtracts the first column,
        so the coefficients off the constant x2 column are exactly 0, and
        its inverse takes axis 2 last, so phi comes back exactly constant
        along x2 and its x2-derivative (again after a first-column
        subtraction) is exactly 0.  The x1-derivative is one GEMM over
        every (x2, level) column, and a GEMM need not give equal columns
        equal results (at 28x28x9 it does not), so phi1 and deeper ladder
        levels are not pinned here.
        """
        grid = geo.SlabGrid(n, n, nz)
        X1, _ = torus_grid(n, n)
        w = np.broadcast_to(rng.standard_normal((n, 1, nz)), grid.shape)
        for second in (0.0, 0.05):
            cmap = geo.build_map(0.15 * np.cos(X1) + second * np.sin(2 * X1),
                                 grid)
            assert not cmap.phi2.any()
            g = geo.mapped_gradient(w, cmap)
            assert not g[1].any()
            assert g[0].any() and g[2].any()

    def test_trace_and_bottom(self):
        grid = geo.SlabGrid(8, 8, 9)
        w = np.arange(np.prod(grid.shape), dtype=float).reshape(grid.shape)
        assert np.array_equal(geo.trace(w), w[:, :, -1])
        assert np.array_equal(geo.bottom_trace(w), w[:, :, 0])


    def test_no_fft_on_the_bulk_path(self, monkeypatch):
        # bulk derivatives, the operator, the preconditioner, the kernel
        # projection, the map and every interface helper that a step, the
        # stability report and the energy reach are real matrix products,
        # cached matrices included
        from elastislab import dynamics as dyn
        from elastislab import elliptic as el
        from elastislab import stability as stab
        from conftest import sample_flow
        state = sample_flow(8, 9, 0.05, 0.01)
        grid = state.grid
        w = state.u[0]
        calls = []
        for name in dir(np.fft):
            fn = getattr(np.fft, name)
            if callable(fn) and not name.startswith("_"):
                def counted(*args, _name=name, _fn=fn, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(np.fft, name, counted)
        assert state.eps > 0 and not state.cmap.is_flat
        geo.mapped_gradient(w, state.cmap)
        el.apply_operator(w, state.cmap)
        for z0, z1 in ((1, 8), (0, 8), (0, 9)):
            el._flat_solve(w, grid, z0, z1, grid.n2, flat_work(w))
        el._project_kernel(w, grid)
        geo.build_map(state.f, grid)
        geo.map_time_derivative(state.cmap, state.f)
        dyn.step(state, 0.5 * dyn.stable_dt(state))
        stab.stability_report(state)
        stab.energy_es_eps(state)
        assert calls == []

    def test_horizontal_constants_differentiate_to_zero(self, rng):
        col = rng.normal(size=9)
        const = np.broadcast_to(col, (8, 6, 9))
        d1, d2 = geo._dh_pair(const)
        assert np.array_equal(d1, np.zeros(const.shape))
        assert np.array_equal(d2, np.zeros(const.shape))
        # constant along one axis only: that derivative is exactly zero
        rows = np.broadcast_to(rng.normal(size=(6, 9)), (3, 8, 6, 9))
        assert np.array_equal(geo._dh_pair(rows)[0], np.zeros(rows.shape))
        cols = np.broadcast_to(rng.normal(size=(8, 1, 9)), (8, 6, 9))
        assert np.array_equal(geo._dh_pair(cols)[1], np.zeros(cols.shape))
        # and so does the adjoint
        zero = np.zeros(const.shape)
        assert np.array_equal(geo._dh_pair_adjoint(const, const), zero)
        assert np.array_equal(geo._dh_pair_adjoint(rows[0], zero), zero)
        assert np.array_equal(geo._dh_pair_adjoint(zero, cols), zero)

    @settings(max_examples=40, deadline=None)
    @given(
        n1=st.integers(2, 16).map(lambda k: 2 * k),
        n2=st.integers(2, 16).map(lambda k: 2 * k),
        nz=st.integers(3, 17),
        batch=st.sampled_from([(), (3,)]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matrix_pair_matches_transforms(self, n1, n2, nz, batch, seed):
        rng = np.random.default_rng(seed)
        shape = batch + (n1, n2, nz)
        w, p1, p2 = (rng.standard_normal(shape) for _ in range(3))
        for got, want in zip(geo._dh_pair(w), fft_dh_pair(w)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        got = geo._dh_pair_adjoint(p1, p2)
        want = fft_dh_pair_adjoint(p1, p2)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @settings(max_examples=30, deadline=None)
    @given(
        n1=st.integers(2, 6).map(lambda k: 2 * k),
        n2=st.integers(2, 6).map(lambda k: 2 * k),
        nz=st.integers(3, 9),
        amplitude=st.one_of(st.just(0.0), st.floats(0.01, 0.3)),
        batch=st.sampled_from([(), (3,), (3, 3)]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_batched_call_equals_stacked_calls(self, n1, n2, nz, amplitude,
                                               batch, seed):
        rng = np.random.default_rng(seed)
        grid = geo.SlabGrid(n1, n2, nz)
        X1, X2 = torus_grid(n1, n2)
        f = amplitude * np.cos(X1 + rng.uniform(0, 2 * np.pi)) * np.cos(X2)
        cmap = geo.build_map(f, grid)
        w = rng.normal(size=batch + grid.shape)
        g = geo.mapped_gradient(w, cmap)
        comps = w.reshape((-1,) + grid.shape)
        stacked = np.stack([geo.mapped_gradient(c, cmap) for c in comps])
        assert g.shape == batch + (3,) + grid.shape
        assert np.array_equal(g, stacked.reshape(g.shape))


class TestVerticalDerivative:
    @staticmethod
    def _view(base, view):
        """A (..., n1, n2, nz) view of base, (2,) + batch + grid, with
        the memory layout named by view."""
        if view == "contiguous":
            return base[1]
        if view == "column":  # as F[:, j]: one column out of each row
            return np.moveaxis(base, 0, -4)[..., 1, :, :, :]
        if view == "transposed":
            return base[1].swapaxes(-3, -2)
        if view == "fortran":
            return np.asfortranarray(base[1])
        return base[1][..., ::-1]

    @settings(max_examples=60, deadline=None)
    @given(
        nz=st.integers(3, 65),
        batch=st.sampled_from([(), (3,), (3, 3)]),
        view=st.sampled_from(["contiguous", "column", "transposed",
                              "fortran", "reversed"]),
        scale=st.floats(-6, 6),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_slicing_stencil(self, nz, batch, view, scale, seed):
        rng = np.random.default_rng(seed)
        base = 10.0 ** scale * rng.standard_normal((2,) + batch + (6, 4, nz))
        w = self._view(base, view)
        dz = 1.0 / (nz - 1)
        got = geo.d3_node(w, dz)
        assert got.shape == w.shape
        assert np.array_equal(got, stencil_d3_node(w, dz))

    @pytest.mark.parametrize("nz", [3, 4, 9, 25])
    def test_constant_fields_differentiate_to_zero(self, rng, nz):
        # exactly, on every level: each one-sided end differences from its
        # boundary level first, so it does not round 3 c (0.8 is the
        # mixed-regions stretch F[0, 0], whose 3 c is inexact)
        dz = 1.0 / (nz - 1)
        for c in (0.8, -7.0, 0.0, 1000.0, *rng.standard_normal(8)):
            d3 = geo.d3_node(np.full((3, 4, 4, nz), c), dz)
            assert np.array_equal(d3, np.zeros((3, 4, 4, nz)))


class TestNormalsAndTangents:
    def test_orthogonality_exact(self, rng):
        n = 32
        from conftest import random_band_limited
        f = random_band_limited(rng, n, n, 8, amplitude=0.2)
        N = geo.normal_vector(f)
        # the coordinate tangents (1, 0, d1 f) and (0, 1, d2 f)
        d1, d2 = (sp.horizontal_derivative(f, axis) for axis in (1, 2))
        one, zero = np.ones_like(f), np.zeros_like(f)
        tau1, tau2 = np.stack([one, zero, d1]), np.stack([zero, one, d2])
        assert np.max(np.abs(np.sum(N * tau1, axis=0))) == 0.0
        assert np.max(np.abs(np.sum(N * tau2, axis=0))) == 0.0

    def test_norm_squared(self):
        X1, X2 = torus_grid(32, 32)
        f = 0.1 * np.cos(X1) + 0.2 * np.sin(X2)
        N = geo.normal_vector(f)
        from elastislab.spectral import horizontal_derivative
        d1 = horizontal_derivative(f, 1)
        d2 = horizontal_derivative(f, 2)
        assert np.allclose(np.sum(N * N, axis=0), 1 + d1 ** 2 + d2 ** 2, atol=1e-13)


class TestSnapshots:
    def test_roundtrip(self, tmp_path, rng):
        grid = geo.SlabGrid(8, 8, 9)
        X1, _ = torus_grid(8, 8)
        cmap = geo.build_map(0.05 * np.cos(X1), grid)
        w = rng.normal(size=(3,) + grid.shape)
        p = tmp_path / "state.snap"
        write_snapshot(p, w, cmap, time=0.25)
        snap = read_snapshot(p)
        assert snap.time == 0.25
        assert snap.grid_shape == grid.shape
        assert np.array_equal(snap.values, w)
        assert snap.matches_map(cmap)

    def test_map_hash_detects_changes(self, tmp_path):
        grid = geo.SlabGrid(8, 8, 9)
        X1, _ = torus_grid(8, 8)
        cmap = geo.build_map(0.05 * np.cos(X1), grid)
        other = geo.build_map(0.06 * np.cos(X1), grid)
        p = tmp_path / "state.snap"
        write_snapshot(p, np.zeros(grid.shape), cmap, time=0.0)
        snap = read_snapshot(p)
        assert snap.matches_map(cmap)
        assert not snap.matches_map(other)

    def test_shape_guard(self, tmp_path):
        grid = geo.SlabGrid(8, 8, 9)
        cmap = geo.build_map(np.zeros((8, 8)), grid)
        with pytest.raises(GridMismatch):
            write_snapshot(tmp_path / "x", np.zeros((4, 4, 4)), cmap, 0.0)

    def test_payload_size_guard(self, tmp_path):
        grid = geo.SlabGrid(8, 8, 5)
        cmap = geo.build_map(np.zeros((8, 8)), grid)
        p = tmp_path / "state.snap"
        write_snapshot(p, np.zeros(grid.shape), cmap, time=0.0)
        raw = p.read_bytes()
        for bad in (raw[:-16], raw + bytes(8)):
            p.write_bytes(bad)
            with pytest.raises(GridMismatch, match="2560"):
                read_snapshot(p)

    @pytest.mark.parametrize("corrupt, error, match", [
        (lambda raw: raw[:24], GridMismatch, "24 bytes.* 64"),
        (lambda raw: b"XXXX" + raw[4:], PreconditionViolated, "not a slab"),
        (lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
         PreconditionViolated, "version 2"),
    ], ids=["short", "magic", "version"])
    def test_header_guard(self, tmp_path, corrupt, error, match):
        grid = geo.SlabGrid(8, 8, 5)
        cmap = geo.build_map(np.zeros((8, 8)), grid)
        p = tmp_path / "state.snap"
        write_snapshot(p, np.zeros(grid.shape), cmap, time=0.0)
        p.write_bytes(corrupt(p.read_bytes()))
        with pytest.raises(error, match=match):
            read_snapshot(p)


def _x2_invariant_map(n1, n2, nz):
    """Harmonic map of an interface with no x2-dependence."""
    x1 = np.arange(n1) * 2.0 * np.pi / n1
    f = 0.15 * np.cos(x1) + 0.05 * np.sin(2.0 * x1)
    return geo.build_map(np.repeat(f[:, None], n2, axis=1),
                         geo.SlabGrid(n1, n2, nz))


MAP_ARRAYS = ("phi1", "phi2", "phi3", "phi1_cell", "phi2_cell",
              "phi3_cell", "k33", "jac", "inv_phi3")


def _full_path(cmap):
    """The same map with its x2 flag cleared and its arrays spread to full
    width, so every operator takes the full path with full-array
    arithmetic."""
    full = copy.copy(cmap)
    full.x2_invariant = False
    for name in MAP_ARRAYS:
        setattr(full, name, np.repeat(getattr(cmap, name), cmap.grid.n2,
                                      axis=1))
    return full


def _x2_invariant_field(rng, shape):
    return np.repeat(rng.standard_normal(shape[:-2] + (1, shape[-1])),
                     shape[-2], axis=-2)


def _spy_scans(monkeypatch):
    """Record the shape of every value scan (_x2_constant) from here on,
    through each module's binding of it."""
    scans, constant = [], geo._x2_constant

    def spied(a):
        scans.append(a.shape)
        return constant(a)

    for module in (geo, el, dyn, stab):
        monkeypatch.setattr(module, "_x2_constant", spied)
    return scans


def _spreads_to(column, want):
    """column is an x2 column that broadcasts to want bit for bit."""
    return column.shape[-2] == 1 and np.array_equal(
        np.broadcast_to(column, want.shape), want)


# n1 != n2 and nz from 5 to 33, the presets' own 32 x 32 x 33 among them
X2_GRIDS = [(12, 8, 5), (8, 12, 9), (16, 12, 13), (24, 16, 17), (16, 24, 25),
            (12, 8, 31), (12, 8, 33), (32, 32, 33)]


class TestX2Rule:
    """An x2-invariant field on an x2-invariant map, given by its x2
    column, is computed on that column (the x2 rule of geometry's module
    docstring), bit for bit the full path's; given full, it takes the
    full path, unscanned."""

    @pytest.mark.parametrize("n1, n2, nz", X2_GRIDS)
    def test_map_build_is_the_full_path(self, n1, n2, nz):
        cmap = _x2_invariant_map(n1, n2, nz)
        grid = cmap.grid
        assert cmap.x2_invariant and not cmap.phi2.any()
        profiles = geo._map_profiles(n1, n2, nz)

        def full_map_solve(top):
            # every basis column, as on a map that varies along x2
            return sp._from_basis(sp._to_basis(top, n2)[..., None] * profiles,
                                  n2)

        phi = full_map_solve(cmap.f) + grid.y3
        phi[..., -1] = cmap.f
        phi[..., 0] = -1.0
        assert np.array_equal(cmap.phi, phi)
        # each derived array is kept at x2 width 1, and broadcasts to the
        # full path's value
        phi1, phi2 = geo._dh_pair(phi)
        phi3 = geo.d3_node(phi, grid.dz)
        cells = [geo._node_to_cell(phi1), geo._node_to_cell(phi2),
                 np.diff(phi, axis=-1) / grid.dz]
        k33 = (1.0 + cells[0] * cells[0] + cells[1] * cells[1]) / cells[2]
        for name, want in zip(MAP_ARRAYS, [phi1, phi2, phi3, *cells, k33,
                                           phi3, 1.0 / phi3]):
            got = getattr(cmap, name)
            assert got.shape == (n1, 1, want.shape[-1]), name
            assert np.array_equal(np.broadcast_to(got, want.shape), want), name
        dtf = 0.3 * cmap.f
        assert np.array_equal(geo.map_time_derivative(cmap, dtf),
                              full_map_solve(dtf))

    @pytest.mark.parametrize("n1, n2, nz", X2_GRIDS)
    def test_operators_are_the_full_path(self, rng, monkeypatch, n1, n2, nz):
        cmap = _x2_invariant_map(n1, n2, nz)
        full, grid = _full_path(cmap), cmap.grid
        scans = _spy_scans(monkeypatch)
        for batch in ((), (3,), (2, 3)):
            w = _x2_invariant_field(rng, batch + grid.shape)
            want = geo.mapped_gradient(w, full)
            assert _spreads_to(geo.mapped_gradient(w[..., :1, :], cmap), want)
            assert np.array_equal(geo.mapped_gradient(w, cmap), want)
        u = _x2_invariant_field(rng, grid.shape)
        column = el.apply_operator(u[:, :1], cmap)
        assert column.shape == (n1, 1, nz)
        assert np.array_equal(np.repeat(column, n2, axis=1),
                              el.apply_operator(u, cmap))
        # the all-Neumann case includes the kernel fix-up
        for z0, z1 in ((1, nz - 1), (0, nz - 1), (0, nz)):
            solves = [el._flat_solve(u, grid, z0, z1, m, flat_work(u))
                      for m in (1, n2)]
            assert np.array_equal(*solves)
        v = _x2_invariant_field(rng, (3,) + grid.shape)
        want = dyn.weak_div_load(v, full)
        assert _spreads_to(dyn.weak_div_load(v[..., :1, :], cmap), want)
        assert np.array_equal(dyn.weak_div_load(v, cmap), want)
        assert scans == []

    @pytest.mark.parametrize("n1, n2, nz", X2_GRIDS)
    def test_projections_are_the_full_path(self, rng, monkeypatch, n1, n2,
                                           nz):
        # the correction's cell data are taken on the x2 column, its lifts
        # on every row
        cmap = _x2_invariant_map(n1, n2, nz)
        v = _x2_invariant_field(rng, (3,) + cmap.grid.shape)
        scans = _spy_scans(monkeypatch)
        for project in (dyn.project_div, dyn.project_div_normal):
            want, want_info = project(v, _full_path(cmap))
            got, info = project(v[..., :1, :], cmap)
            assert _spreads_to(got, want) and info == want_info
            got, info = project(v, cmap)
            assert np.array_equal(got, want) and info == want_info
        assert scans == []

    @pytest.mark.parametrize("n1, n2, nz", X2_GRIDS)
    @pytest.mark.parametrize("top, bottom", [(0.0, 0.0), (0.0, None),
                                             (None, 0.0), (None, None)])
    def test_solves_are_the_full_path(self, rng, monkeypatch, n1, n2, nz,
                                      top, bottom):
        # a solve returns full arrays either way; only its Dirichlet plane
        # is scanned, and only when the load and the guess are columns
        cmap = _x2_invariant_map(n1, n2, nz)
        grid = cmap.grid
        load = el.volume_load(_x2_invariant_field(rng, grid.shape), cmap)
        if top is not None:
            top = np.repeat(rng.standard_normal((n1, 1)), n2, axis=1)
        shapes = _operator_shapes(monkeypatch)
        scans = _spy_scans(monkeypatch)
        for x0 in (None, _x2_invariant_field(rng, grid.shape)):
            want = el.solve_weak(_full_path(cmap), load, top=top,
                                 bottom=bottom, x0=x0)
            for m in (1, n2):
                shapes.clear()
                scans.clear()
                got = el.solve_weak(cmap, load[:, :m], top=top, bottom=bottom,
                                    x0=None if x0 is None else x0[:, :m])
                assert np.array_equal(got[0], want[0]) and got[1] == want[1]
                assert set(shapes) == {(n1, m, nz)}
                assert scans == [(n1, n2, 1)] * (m == 1 and top is not None)

    def test_three_d_fields_take_the_full_path(self, rng, monkeypatch):
        # the flat map is x2-invariant; a field that varies along x2 on it
        # must not be read from one column
        grid = geo.SlabGrid(12, 8, 9)
        flat = geo.build_map(np.zeros((12, 8)), grid)
        assert flat.x2_invariant
        w = rng.standard_normal(grid.shape)
        w[:, 1:] = w[:, :1]
        w[3, 5, 4] += 1e-3
        # a state's one scan keeps such a field full
        zeros = np.zeros((3, 3) + grid.shape)
        state = dyn.FlowState(0.0, np.zeros((12, 8)), np.stack([w] * 3),
                              zeros, 0.0)
        assert state._u.shape == state._F.shape[1:] == (3,) + grid.shape
        assert np.array_equal(geo.mapped_gradient(w, flat),
                              geo.mapped_gradient(w, _full_path(flat)))
        shapes = _operator_shapes(monkeypatch)
        el.solve_weak(flat, el.volume_load(w, flat))
        assert shapes and set(shapes) == {grid.shape}

    def test_no_x2_derivative_in_an_x2_invariant_step(self, monkeypatch):
        # deterministic counters: a step of either x2-invariant preset
        # takes no derivative along x2, a 3-D step does, and the column
        # path changes neither the PCG iteration total nor a bit of the
        # stepped state
        calls = []
        derivative = sp._derivative

        def counted(w, axis):
            calls.append(axis)
            return derivative(w, axis)

        def stepped(state):
            iters = []
            solve_weak = el.solve_weak

            def recorded(*args, **kwargs):
                out = solve_weak(*args, **kwargs)
                iters.append(out[1]["iterations"])
                return out

            with monkeypatch.context() as m:
                for module in (sp, geo):
                    m.setattr(module, "_derivative", counted)
                for module in (el, dyn):
                    m.setattr(module, "solve_weak", recorded)
                calls.clear()
                new, _ = dyn.step(state, 0.5 * dyn.stable_dt(state))
            return new, calls.count(2), sum(iters)

        def fresh(scenario):
            # a fresh state each time: a state keeps its pressure
            return cli.build_scenario(cli.preset(scenario, n1=12, n2=12,
                                                 nz=13))

        for scenario in ("elastic-mode", "mixed-regions"):
            new, x2_calls, iters = stepped(fresh(scenario))
            assert x2_calls == 0 and iters > 0
            with _full_path_maps(monkeypatch):
                full, full_x2_calls, full_iters = stepped(fresh(scenario))
            assert full_x2_calls > 0 and full_iters == iters
            for name in ("f", "u", "F"):
                assert np.array_equal(getattr(new, name), getattr(full, name))
        from conftest import sample_flow
        assert stepped(sample_flow(8, 9, 0.05, 0.01))[1] > 0


def _operator_shapes(monkeypatch):
    """Record the shape of every elliptic.apply_operator input from here
    on."""
    shapes = []
    apply_operator = el.apply_operator

    def recorded(u, cmap, *args):
        shapes.append(u.shape)
        return apply_operator(u, cmap, *args)

    monkeypatch.setattr(el, "apply_operator", recorded)
    return shapes


@contextlib.contextmanager
def _full_path_maps(monkeypatch):
    """Within it, every map a state builds has its x2 flag cleared
    (_full_path), so states built or stepped there take the full path."""
    with monkeypatch.context() as m:
        m.setattr(dyn, "build_map",
                  lambda f, grid: _full_path(geo.build_map(f, grid)))
        yield


class TestColumnState:
    """An x2-invariant state keeps u and F on its x2 column (FlowState),
    and steps bit for bit as its full-path twin: every field is the
    twin's x2 column."""

    @staticmethod
    def _assert_twins(col, full):
        n2 = col.grid.n2
        assert col._u.shape[-2] == 1 and col._F.shape[-2] == 1
        assert full._u.shape[-2] == n2 and full._F.shape[-2] == n2
        assert col.t == full.t and np.array_equal(col.f, full.f)
        assert np.array_equal(col._u, full._u[..., :1, :])
        assert np.array_equal(col._F, full._F[..., :1, :])
        assert np.array_equal(col.u, full.u) and np.array_equal(col.F, full.F)
        assert col.u.shape == full.u.shape and not col.u.flags.writeable
        assert not col.F.flags.writeable

    # 12x8x9 puts column rows 64 bytes apart (numpy 2.4.6 strided out=),
    # 32x32x33 meets the BLAS rounding by row count of the z products
    @pytest.mark.parametrize("scenario", ["elastic-mode", "mixed-regions"])
    @pytest.mark.parametrize("grid, steps", [((12, 12, 13), 20),
                                             ((12, 8, 9), 20),
                                             ((32, 32, 33), 1)],
                             ids=["12x12x13", "12x8x9", "32x32x33"])
    def test_steps_as_the_full_path(self, monkeypatch, scenario, grid, steps):
        cfg = cli.preset(scenario, n1=grid[0], n2=grid[1], nz=grid[2])
        col = cli.build_scenario(cfg)
        with _full_path_maps(monkeypatch):
            full = cli.build_scenario(cfg)
        self._assert_twins(col, full)
        for k in range(steps):
            dt = 0.5 * dyn.stable_dt(col)
            assert dt == 0.5 * dyn.stable_dt(full)
            col, info = dyn.step(col, dt)
            with _full_path_maps(monkeypatch):
                full, full_info = dyn.step(full, dt)
            assert info == full_info
            if k in (0, steps - 1):
                self._assert_twins(col, full)

    @pytest.mark.parametrize("scenario", ["elastic-mode", "mixed-regions"])
    def test_stages_spread_and_scan_no_bulk_field(self, monkeypatch,
                                                  scenario):
        # the four RK4 stages of an x2-invariant step call no _spread and
        # scan no bulk field: the only _x2_constant calls are each stage
        # map's two reads of its interface plane (map solve and x2 flag)
        state = cli.build_scenario(cli.preset(scenario, n1=12, n2=12, nz=13))
        calls, inside = [], [False]
        spread, constant, rk4 = geo._spread, geo._x2_constant, dyn._rk4

        def spy(name, fn):
            def wrapped(a, *args):
                if inside[0]:
                    calls.append((name, a.shape))
                return fn(a, *args)
            return wrapped

        def stages(*args):
            inside[0] = True
            try:
                return rk4(*args)
            finally:
                inside[0] = False

        for module in (geo, dyn, stab):
            monkeypatch.setattr(module, "_spread", spy("_spread", spread))
        for module in (geo, el, dyn, stab):
            monkeypatch.setattr(module, "_x2_constant",
                                spy("_x2_constant", constant))
        monkeypatch.setattr(dyn, "_rk4", stages)
        new, _ = dyn.step(state, 0.5 * dyn.stable_dt(state))
        assert new._u.shape[-2] == 1
        assert calls == [("_x2_constant", (12, 12, 1))] * 8

    @pytest.mark.parametrize("scenario", ["elastic-mode", "mixed-regions"])
    def test_output_and_step_scan_no_bulk_field(self, monkeypatch, scenario):
        # an output (stability report, energy, invariants), then a step:
        # every value scan is of a plane, and no full u or F is built
        state = cli.build_scenario(cli.preset(scenario, n1=12, n2=12, nz=13))
        scans = _spy_scans(monkeypatch)
        stab.stability_report(state)
        stab.energy_es_eps(state)
        dyn.invariant_report(state)
        new, _ = dyn.step(state, 0.5 * dyn.stable_dt(state))
        assert scans and {shape[-1] for shape in scans} == {1}
        assert state._full is None and new._full is None

    def test_column_input_is_not_scanned(self, monkeypatch):
        state = cli.build_scenario(cli.preset("elastic-mode", n1=12, n2=8,
                                              nz=9))
        scans = _spy_scans(monkeypatch)
        given_col = dyn.FlowState(state.t, state.f, state._u, state._F,
                                  state.eps)
        assert scans == [(12, 8, 1)] * 2  # the map's: its interface only
        given_full = dyn.FlowState(state.t, state.f, state.u, state.F,
                                   state.eps)
        # full fields: the map's two, then the one scan of u and of F
        assert scans[2:] == [(12, 8, 1)] * 2 + [state.u.shape, state.F.shape]
        for a, b in ((given_col, given_full), (given_col, state)):
            assert np.array_equal(a._u, b._u) and np.array_equal(a._F, b._F)
            assert np.array_equal(a.u, b.u) and np.array_equal(a.F, b.F)

    def test_three_d_state_keeps_full_fields(self):
        # the steps-curved set-up: a seeded curved interface, sheared
        # columns e1 and e2, zero velocity
        n, nz = 12, 13
        f0 = random_band_limited(np.random.default_rng(7), n, n, 3, 0.2)
        grid = geo.SlabGrid(n, n, nz)
        F0 = np.zeros((3, 3) + grid.shape)
        F0[0, 0] = F0[1, 1] = 1.0
        F0[0, 1] = 0.1 * (1.0 + grid.y3)
        state, _ = dyn.prepare_initial_data(f0, np.zeros((3,) + grid.shape),
                                            F0, eps=0.01)
        for _ in range(2):
            assert not state.cmap.x2_invariant
            assert state._u.shape == state.u.shape == (3,) + grid.shape
            assert state._F is state.F
            state, _ = dyn.step(state, 0.5 * dyn.stable_dt(state))
        # x2 columns given on a map that varies along x2 are spread
        col = np.zeros((3, n, 1, nz))
        spread = dyn.FlowState(0.0, state.f, col, state.F, state.eps)
        assert spread._u.shape == (3,) + grid.shape
