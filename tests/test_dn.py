"""Interface flux operators: symbols, duality, inversion, commutators."""

import numpy as np
import pytest

from elastislab import dn
from elastislab.elliptic import DEFAULT_TOL
from elastislab.errors import NotMeanZero, SolverDiverged
from elastislab.geometry import SlabGrid, build_map
from elastislab.spectral import horizontal_derivative as hd

from conftest import random_band_limited


def _flat(n, nz):
    return build_map(np.zeros((n, n)), SlabGrid(n, n, nz))


def _curved(n, nz, amp=0.12):
    x1 = 2 * np.pi * np.arange(n) / n
    f = amp * (np.cos(x1)[:, None] + 0.6 * np.sin(2 * x1)[None, :])
    f = f - f.mean()
    return build_map(f, SlabGrid(n, n, nz))


class TestFlatSymbols:
    def test_clamped_variant_coth_symbol(self):
        flat = _flat(32, 33)
        x1 = 2 * np.pi * np.arange(32) / 32
        for k in (1, 3, 7):
            g = np.cos(k * x1)[:, None] * np.ones((1, 32))
            out = dn.apply_dn(g, flat)
            assert np.max(np.abs(out - (k / np.tanh(k)) * g)) < 1e-12

    def test_free_variant_tanh_symbol(self):
        flat = _flat(32, 33)
        x1 = 2 * np.pi * np.arange(32) / 32
        for k in (1, 3, 7):
            g = np.cos(k * x1)[:, None] * np.ones((1, 32))
            out = dn.apply_dn_neumann(g, flat)
            assert np.max(np.abs(out - (k * np.tanh(k)) * g)) < 1e-12

    def test_mean_mode_handling(self):
        flat = _flat(16, 17)
        const = np.full((16, 16), 0.6)
        assert np.max(np.abs(dn.apply_dn(const, flat) - 0.6)) < 1e-13
        assert np.max(np.abs(dn.apply_dn_neumann(const, flat))) < 1e-13

    def test_discrete_route_second_order(self):
        x1 = 2 * np.pi * np.arange(16) / 16
        g = np.cos(2 * x1)[:, None] * np.ones((1, 16))
        for bottom, ref in ((0.0, 2 / np.tanh(2)), (None, 2 * np.tanh(2))):
            errs = [np.max(np.abs(dn._solved_flux(g, _flat(16, nz), bottom,
                                                  DEFAULT_TOL)
                                  - ref * g)) for nz in (17, 33)]
            assert np.log2(errs[0] / errs[1]) > 1.9


class TestDualityAndInversion:
    def test_self_adjoint_on_curved_map(self, rng):
        cmap = _curved(32, 33)
        g = random_band_limited(rng, 32, 32, 4)
        h = random_band_limited(rng, 32, 32, 4)
        for variant in (dn.apply_dn, dn.apply_dn_neumann):
            lhs = np.sum(variant(g, cmap) * h)
            rhs = np.sum(g * variant(h, cmap))
            assert abs(lhs - rhs) <= 1e-8 * abs(lhs)

    def test_positive_on_mean_free_data(self, rng):
        cmap = _curved(16, 17)
        g = random_band_limited(rng, 16, 16, 4)
        assert np.sum(g * dn.apply_dn(g, cmap)) > 0.0
        assert np.sum(g * dn.apply_dn_neumann(g, cmap)) > 0.0

    def test_invert_roundtrip_flat_exact(self, rng):
        flat = _flat(16, 17)
        g = random_band_limited(rng, 16, 16, 5)
        h = dn.apply_dn_neumann(g, flat)
        z = dn.invert_dn_neumann(h, flat)
        assert np.max(np.abs(z - g)) < 1e-12

    def test_invert_roundtrip_curved(self, rng):
        # h comes from the discrete map itself
        cmap = _curved(24, 25)
        g = random_band_limited(rng, 24, 24, 4)
        h = dn.apply_dn_neumann(g, cmap, tol=1e-12)
        z = dn.invert_dn_neumann(h, cmap)
        rel = np.linalg.norm(z - g) / np.linalg.norm(g)
        assert rel < 1e-8

    @pytest.mark.parametrize("n, amp", [(16, 0.2), (16, 0.3), (24, 0.2)])
    def test_invert_curved_has_no_kernel_component(self, rng, n, amp):
        # the curved kernel is the constant and the three Nyquist products
        cmap = _curved(n, n + 1, amp)
        h = dn.apply_dn_neumann(random_band_limited(rng, n, n, 4), cmap)
        z = dn.invert_dn_neumann(h, cmap)
        alt = (-1.0) ** np.arange(n)
        for a in (np.ones(n), alt):
            for b in (np.ones(n), alt):
                coef = np.mean(z * a[:, None] * b[None, :])
                assert abs(coef) <= 1e-12 * np.max(np.abs(z))

    @pytest.mark.parametrize("rel", [1e-6, 1e-3])
    @pytest.mark.parametrize("axes", [(1, 0), (0, 1), (1, 1)])
    def test_invert_curved_drops_nyquist_datum(self, rng, rel, axes):
        # a Nyquist product lies outside the curved range: least squares
        # drops it rather than letting the metric couple it into the rest
        n = 16
        cmap = _curved(n, n + 1, 0.2)
        h = dn.apply_dn_neumann(random_band_limited(rng, n, n, 4), cmap)
        alt = (-1.0) ** np.arange(n)
        a, b = (alt if ax else np.ones(n) for ax in axes)
        z = dn.invert_dn_neumann(h, cmap)
        off = dn.invert_dn_neumann(
            h + rel * np.max(np.abs(h)) * a[:, None] * b[None, :], cmap)
        assert np.max(np.abs(off - z)) <= 1e-12 * np.max(np.abs(z))

    def test_invert_rejects_nonzero_mean(self):
        flat = _flat(16, 17)
        with pytest.raises(NotMeanZero):
            dn.invert_dn_neumann(np.full((16, 16), 0.3), flat)

    @pytest.mark.parametrize("curved", [False, True])
    def test_invert_rejects_non_finite_datum(self, curved):
        cmap = _curved(8, 9) if curved else _flat(8, 9)
        h = np.zeros((8, 8))
        h[2, 5] = np.nan
        with pytest.raises(SolverDiverged):
            dn.invert_dn_neumann(h, cmap)


class TestMovingNormal:
    def test_decomposition_matches_direct_derivative(self, rng):
        # assembled A t1 + B t2 + c N equals (-d1(u.N), -d2(u.N), 0)
        n = 24
        f = random_band_limited(rng, n, n, 3, amplitude=0.2)
        u_trace = np.stack([random_band_limited(rng, n, n, 3) for _ in range(3)])
        out = dn.dt_normal(u_trace, f)
        from elastislab.geometry import normal_vector
        nv = normal_vector(f)
        c1 = sum(hd(u_trace[a], 1) * nv[a] for a in range(3))
        c2 = sum(hd(u_trace[a], 2) * nv[a] for a in range(3))
        assert np.max(np.abs(out.vector[0] + c1)) < 1e-10
        assert np.max(np.abs(out.vector[1] + c2)) < 1e-10
        assert np.max(np.abs(out.vector[2])) < 1e-10

    def test_flat_interface_tangential_only(self, rng):
        n = 16
        f = np.zeros((n, n))
        u_trace = np.stack([random_band_limited(rng, n, n, 3) for _ in range(3)])
        out = dn.dt_normal(u_trace, f)
        assert np.max(np.abs(out.normal_coef)) < 1e-13
        np.testing.assert_allclose(out.tangential_1, -hd(u_trace[2], 1),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.tangential_2, -hd(u_trace[2], 2),
                                   rtol=0, atol=1e-12)


class TestMultiplierCommutator:
    def test_two_routes_converge_together(self):
        # formula vs direct N(a g) - a N(g); routes differ at O(dz^2)
        n = 16
        x1 = 2 * np.pi * np.arange(n) / n
        a = 0.5 + 0.2 * np.cos(x1)[:, None] * np.ones((1, n))
        g = np.cos(x1)[None, :] * np.ones((n, 1)) + 0.3 * np.sin(x1)[:, None]
        for builder in (_flat, lambda nn, nz: _curved(nn, nz, amp=0.1)):
            errs = []
            for nz in (17, 33):
                cmap = builder(n, nz)
                direct = dn.apply_dn(a * g, cmap) - a * dn.apply_dn(g, cmap)
                formula = dn.multiplier_dn_commutator(g, a, cmap)
                errs.append(np.max(np.abs(direct - formula)))
            assert np.log2(errs[0] / errs[1]) > 1.8
            assert errs[1] < 6e-4

    def test_constant_multiplier_commutes(self):
        # linearity makes the direct commutator vanish identically; the
        # formula's two terms must cancel to discretization accuracy
        cmap = _curved(16, 33, amp=0.1)
        x1 = 2 * np.pi * np.arange(16) / 16
        g = np.cos(x1)[:, None] * np.ones((1, 16))
        out = dn.multiplier_dn_commutator(g, np.full((16, 16), 0.7), cmap)
        assert np.max(np.abs(out)) < 5e-3


def _manufactured_velocity(x1m, x2m, x3):
    u1 = 0.15 * np.sin(x1m + 0.3 * x3) * np.cos(x2m)
    u2 = 0.10 * np.cos(x1m) * np.sin(x2m + 0.2 * x3)
    u3 = 0.12 * np.sin(x1m) * np.sin(x2m) * np.sin(np.pi * (x3 + 1) / 2)
    return u1, u2, u3


def _kinematic_velocity(f, x1m, x2m):
    u1, u2, u3 = _manufactured_velocity(x1m, x2m, f)
    return u3 - u1 * hd(f, 1) - u2 * hd(f, 2)


def _evolve_interface(f0, x1m, x2m, t, nsub=8):
    h = t / nsub
    f = f0.copy()
    for _ in range(nsub):
        k1 = _kinematic_velocity(f, x1m, x2m)
        k2 = _kinematic_velocity(f + 0.5 * h * k1, x1m, x2m)
        k3 = _kinematic_velocity(f + 0.5 * h * k2, x1m, x2m)
        k4 = _kinematic_velocity(f + h * k3, x1m, x2m)
        f = f + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return f


class TestMaterialCommutator:
    def test_against_time_difference_oracle(self):
        # transport the interface with a manufactured velocity whose
        # floor trace is impermeable, difference the flux map in time,
        # and compare with the assembled commutator; the two routes
        # agree at second order in the grid
        errs = []
        for n, nz in ((16, 17), (32, 33)):
            grid = SlabGrid(n, n, nz)
            x1 = 2 * np.pi * np.arange(n) / n
            x1m = x1[:, None] * np.ones((1, n))
            x2m = np.ones((n, 1)) * x1[None, :]
            f0 = 0.10 * np.cos(x1)[:, None] + 0.06 * np.sin(x1)[None, :]
            f0 -= f0.mean()
            cmap = build_map(f0, grid)
            u = np.stack(_manufactured_velocity(
                x1m[..., None], x2m[..., None], cmap.phi))
            g = (np.cos(x1)[:, None] + 0.5 * np.sin(x1)[None, :]) * np.ones((n, n))

            delta = 1e-3
            fp = _evolve_interface(f0, x1m, x2m, delta)
            fm = _evolve_interface(f0, x1m, x2m, -delta)
            hp = dn.apply_dn_neumann(g, build_map(fp, grid), tol=1e-12)
            hm = dn.apply_dn_neumann(g, build_map(fm, grid), tol=1e-12)
            u1t, u2t, _ = _manufactured_velocity(x1m, x2m, f0)
            n0 = dn.apply_dn_neumann(g, cmap, tol=1e-12)
            dt_of_flux = (hp - hm) / (2 * delta) + u1t * hd(n0, 1) + u2t * hd(n0, 2)
            flux_of_dt = dn.apply_dn_neumann(u1t * hd(g, 1) + u2t * hd(g, 2),
                                             cmap, tol=1e-12)
            oracle = dt_of_flux - flux_of_dt
            formula = dn.material_dn_commutator(g, u, cmap, tol=1e-12)
            errs.append(np.max(np.abs(formula - oracle)))
        assert errs[0] < 1.0e-3
        assert errs[1] < 2.5e-4
        assert np.log2(errs[0] / errs[1]) > 1.7
