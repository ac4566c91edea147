"""Exact discrete identities over random grids, seeds and map amplitudes.

Each test draws an even horizontal grid, a vertical ladder and a
band-limited interface (amplitude 0 gives the flat map) and checks an
identity the discretization holds by construction.  Bounds are set by
the floating-point dtype for the exact identities and by the solver
tolerance where a solve takes part.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from elastislab import dn, dynamics as dyn, elliptic as el
from elastislab.geometry import SlabGrid, build_map
from elastislab.spectral import sobolev_norm

from conftest import random_band_limited

EVEN = st.integers(2, 8).map(lambda k: 2 * k)
MAPS = dict(
    n1=EVEN,
    n2=EVEN,
    nz=st.integers(3, 13),
    amplitude=st.one_of(st.just(0.0), st.floats(0.01, 0.3)),
    seed=st.integers(0, 2 ** 32 - 1),
)


def _map(n1, n2, nz, amplitude, seed):
    rng = np.random.default_rng(seed)
    f = random_band_limited(rng, n1, n2, 2, amplitude)
    return build_map(f, SlabGrid(n1, n2, nz)), rng


def _norm(fields):
    return np.sqrt(sum(np.sum(a * a) for a in fields))


def _velocity(rng, grid):
    v = rng.standard_normal((3,) + grid.shape)
    v[2, ..., 0] = 0.0
    return v


class TestOperatorIdentities:
    @settings(max_examples=40, deadline=None)
    @given(**MAPS)
    def test_grad_adjoint_is_exact(self, n1, n2, nz, amplitude, seed):
        cmap, rng = _map(n1, n2, nz, amplitude, seed)
        grid = cmap.grid
        u = rng.standard_normal(grid.shape)
        p = tuple(rng.standard_normal((n1, n2, nz - 1)) for _ in range(3))
        gu = el.grad_staggered(u, grid)
        lhs = sum(np.sum(a * b) for a, b in zip(gu, p))
        rhs = np.sum(u * el.grad_adjoint(*p, grid))
        assert abs(lhs - rhs) <= 1e-13 * _norm(gu) * _norm(p)

    @settings(max_examples=40, deadline=None)
    @given(**MAPS)
    def test_operator_symmetric_and_semidefinite(self, n1, n2, nz,
                                                 amplitude, seed):
        cmap, rng = _map(n1, n2, nz, amplitude, seed)
        u = rng.standard_normal(cmap.grid.shape)
        v = rng.standard_normal(cmap.grid.shape)
        au = el.apply_operator(u, cmap)
        av = el.apply_operator(v, cmap)
        scale = max(np.linalg.norm(au) * np.linalg.norm(v),
                    np.linalg.norm(av) * np.linalg.norm(u))
        assert abs(np.sum(au * v) - np.sum(u * av)) <= 1e-13 * scale
        assert np.sum(u * au) >= -1e-13 * np.linalg.norm(au) * np.linalg.norm(u)

    @settings(max_examples=40, deadline=None)
    @given(**MAPS)
    def test_constants_in_kernel(self, n1, n2, nz, amplitude, seed):
        cmap, rng = _map(n1, n2, nz, amplitude, seed)
        c = rng.uniform(-2.0, 2.0)
        out = el.apply_operator(np.full(cmap.grid.shape, c), cmap)
        assert np.max(np.abs(out)) <= 1e-13 * abs(c)


class TestProjectionIdentities:
    @settings(max_examples=20, deadline=None)
    @given(**MAPS)
    def test_project_div_idempotent(self, n1, n2, nz, amplitude, seed):
        cmap, rng = _map(n1, n2, nz, amplitude, seed)
        p, _ = dyn.project_div(_velocity(rng, cmap.grid), cmap)
        q, _ = dyn.project_div(p, cmap)
        assert np.max(np.abs(q - p)) <= 1e-8 * np.max(np.abs(p))

    @settings(max_examples=20, deadline=None)
    @given(**MAPS)
    def test_project_div_normal_idempotent(self, n1, n2, nz, amplitude, seed):
        cmap, rng = _map(n1, n2, nz, amplitude, seed)
        p, _ = dyn.project_div_normal(_velocity(rng, cmap.grid), cmap)
        q, _ = dyn.project_div_normal(p, cmap)
        assert np.max(np.abs(q - p)) <= 1e-11 * np.max(np.abs(p))


class TestFluxMapIdentities:
    @settings(max_examples=20, deadline=None)
    @given(**{**MAPS, "amplitude": st.floats(0.01, 0.3)})
    def test_flux_maps_self_adjoint(self, n1, n2, nz, amplitude, seed):
        cmap, rng = _map(n1, n2, nz, amplitude, seed)
        g = random_band_limited(rng, n1, n2, 2)
        h = random_band_limited(rng, n1, n2, 2)
        for variant in (dn.apply_dn, dn.apply_dn_neumann):
            ag = variant(g, cmap)
            ah = variant(h, cmap)
            scale = max(np.linalg.norm(ag) * np.linalg.norm(h),
                        np.linalg.norm(ah) * np.linalg.norm(g))
            assert abs(np.sum(ag * h) - np.sum(g * ah)) <= 1e-8 * scale


@settings(max_examples=40, deadline=None)
@given(n1=EVEN, n2=EVEN, seed=st.integers(0, 2 ** 32 - 1))
def test_parseval(n1, n2, seed):
    g = np.random.default_rng(seed).standard_normal((n1, n2))
    ref = (2 * np.pi) ** 2 * np.mean(g ** 2)
    assert abs(sobolev_norm(g, 0) ** 2 - ref) <= 1e-13 * ref
