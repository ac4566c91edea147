"""Tests for the horizontal spectral toolkit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from elastislab import dn
from elastislab import elliptic as el
from elastislab import geometry as geo
from elastislab import spectral as sp
from elastislab.errors import GridMismatch

from conftest import (
    fft_bessel_multiplier,
    fft_dealiased_product,
    fft_flat_extension,
    fft_flux_symbols,
    fft_horizontal_derivative,
    fft_map_solve,
    fft_mollify,
    fft_sobolev_norm,
    fft_symbol_apply,
    random_band_limited,
    torus_grid,
)


def conv_product_oracle(g, h, keep1, keep2):
    """Brute-force coefficient convolution of two periodic fields.

    Computes the full product coefficients on an enlarged grid size by
    direct summation over mode pairs, then truncates to |k1| <= keep1,
    |k2| <= keep2.  Independent of any fft-padding tricks.
    """
    n1, n2 = g.shape
    cg = np.fft.fft2(g) / (n1 * n2)
    ch = np.fft.fft2(h) / (n1 * n2)
    k1 = np.fft.fftfreq(n1, d=1.0 / n1).astype(int)
    k2 = np.fft.fftfreq(n2, d=1.0 / n2).astype(int)
    out = np.zeros((n1, n2), dtype=complex)
    for a1 in range(n1):
        for a2 in range(n2):
            if cg[a1, a2] == 0:
                continue
            for b1 in range(n1):
                for b2 in range(n2):
                    if ch[b1, b2] == 0:
                        continue
                    s1 = k1[a1] + k1[b1]
                    s2 = k2[a2] + k2[b2]
                    if abs(s1) <= keep1 and abs(s2) <= keep2:
                        out[s1 % n1, s2 % n2] += cg[a1, a2] * ch[b1, b2]
    return np.fft.ifft2(out * (n1 * n2)).real


class TestNormsAndMultipliers:
    def test_l2_norm_of_cosine(self):
        X1, _ = torus_grid(32, 32)
        assert np.isclose(sp.sobolev_norm(np.cos(X1), 0.0), np.pi * np.sqrt(2.0), rtol=1e-12)

    def test_hs_norm_of_cosine(self):
        X1, _ = torus_grid(32, 32)
        expect = np.pi * np.sqrt(2.0) * 2.0 ** 1.0  # (1+1)^(s/2) with s=2
        assert np.isclose(sp.sobolev_norm(np.cos(X1), 2.0), expect, rtol=1e-12)

    def test_bessel_single_mode(self):
        X1, _ = torus_grid(32, 32)
        out = sp.bessel_multiplier(np.cos(X1), 2.0)
        assert np.allclose(out, 2.0 * np.cos(X1), atol=1e-12)

    def test_bessel_composition_inverse(self, rng):
        g = random_band_limited(rng, 32, 32, 10)
        for s in (0.5, 1.5, -2.0):
            back = sp.bessel_multiplier(sp.bessel_multiplier(g, s), -s)
            assert np.allclose(back, g, atol=1e-11)

    def test_norm_multiplier_consistency(self, rng):
        # |g|_{H^s} equals the L^2 norm of <grad'>^s g
        g = random_band_limited(rng, 32, 32, 10)
        for s in (0.5, 1.0, 2.5):
            a = sp.sobolev_norm(g, s)
            b = sp.sobolev_norm(sp.bessel_multiplier(g, s), 0.0)
            assert np.isclose(a, b, rtol=1e-10)


class TestDerivatives:
    def test_cosine_derivative(self):
        X1, X2 = torus_grid(32, 48)
        d = sp.horizontal_derivative(np.cos(X1), 1)
        assert np.allclose(d, -np.sin(X1), atol=1e-12)
        d2 = sp.horizontal_derivative(np.sin(2 * X2), 2)
        assert np.allclose(d2, 2 * np.cos(2 * X2), atol=1e-12)

    def test_mixed_partials_commute(self, rng):
        g = random_band_limited(rng, 32, 32, 10)
        a = sp.horizontal_derivative(sp.horizontal_derivative(g, 1), 2)
        b = sp.horizontal_derivative(sp.horizontal_derivative(g, 2), 1)
        assert np.allclose(a, b, atol=1e-12)

    def test_derivative_antisymmetric(self, rng):
        # <Dg, h> = -<g, Dh> exactly on the grid
        for _ in range(20):
            g = rng.normal(size=(16, 16))
            h = rng.normal(size=(16, 16))
            lhs = np.sum(sp.horizontal_derivative(g, 1) * h)
            rhs = -np.sum(g * sp.horizontal_derivative(h, 1))
            assert np.isclose(lhs, rhs, atol=1e-10)

    def test_derivative_kills_mean(self, rng):
        g = rng.normal(size=(16, 16))
        assert abs(np.mean(sp.horizontal_derivative(g, 1))) < 1e-14


class TestMollifier:
    def test_single_mode_decay(self):
        X1, _ = torus_grid(32, 32)
        out = sp.mollify(0.1 * np.cos(X1), 0.01)
        assert np.allclose(out, 0.1 * np.exp(-0.0025) * np.cos(X1), atol=1e-14)

    def test_high_mode_decay(self):
        X1, _ = torus_grid(64, 64)
        out = sp.mollify(np.cos(8 * X1), 0.1)
        assert np.allclose(out, np.exp(-1.6) * np.cos(8 * X1), atol=1e-12)

    def test_eps_zero_identity(self, rng):
        g = rng.normal(size=(16, 16))
        assert np.array_equal(sp.mollify(g, 0.0), g)

    def test_mean_preserved(self, rng):
        g = rng.normal(size=(32, 32)) + 0.7
        for eps in (1e-3, 1e-1, 1.0):
            assert np.isclose(np.mean(sp.mollify(g, eps)), np.mean(g), atol=1e-13)

    def test_smoothing_gains_half_derivative(self, rng):
        # sqrt(eps)*|mollified|_{H^{s+1/2}} <= C |g|_{H^s}; the symbol bound
        # gives C = sup_t (1+t^2)^(1/4) exp(-eps t^2/4) sqrt(eps) ... <= 2 for
        # the range below, checked over an ensemble.
        for _ in range(100):
            g = random_band_limited(rng, 32, 32, 15)
            for eps in (1e-2, 1e-1):
                lhs = np.sqrt(eps) * sp.sobolev_norm(sp.mollify(g, eps), 1.5)
                rhs = sp.sobolev_norm(g, 1.0)
                assert lhs <= 2.0 * rhs

    def test_contracts_hs(self, rng):
        g = random_band_limited(rng, 32, 32, 15)
        for s in (0.0, 2.0):
            assert sp.sobolev_norm(sp.mollify(g, 0.05), s) <= sp.sobolev_norm(g, s) + 1e-12


class TestDealiasedProduct:
    def test_single_mode_pair(self):
        # cos(3x1)*cos(2x1) = cos(x1)/2 + cos(5x1)/2, all inside the cutoff
        X1, _ = torus_grid(32, 32)
        out = sp.dealiased_product(np.cos(3 * X1), np.cos(2 * X1))
        expect = 0.5 * np.cos(X1) + 0.5 * np.cos(5 * X1)
        assert np.allclose(out, expect, atol=1e-12)

    def test_cutoff_drops_high_modes(self):
        # product mode 14 lies beyond 32//3 = 10 and must vanish
        X1, _ = torus_grid(32, 32)
        out = sp.dealiased_product(np.cos(7 * X1), np.cos(7 * X1))
        expect = 0.5 * np.ones_like(X1)  # cos(14 x1)/2 removed
        assert np.allclose(out, expect, atol=1e-12)

    def test_matches_convolution_oracle(self, rng):
        n = 16
        keep = n // 3
        for _ in range(5):
            g = random_band_limited(rng, n, n, 5)
            h = random_band_limited(rng, n, n, 5)
            oracle = conv_product_oracle(g, h, keep, keep)
            out = sp.dealiased_product(g, h)
            assert np.allclose(out, oracle, atol=1e-11)

    @pytest.mark.parametrize("n1, n2", [(n, n) for n in (4, 6, 8, 10, 12,
                                                         14, 16, 24)]
                             + [(10, 6), (14, 22), (8, 16), (24, 12)])
    def test_matches_padded_fft_reference(self, rng, n1, n2):
        # below Nyquist the doubled-grid product equals the padded rfft2 one
        kmax = min(n1, n2) // 2 - 1
        for _ in range(3):
            g = random_band_limited(rng, n1, n2, kmax)
            h = random_band_limited(rng, n1, n2, kmax)
            assert np.allclose(sp.dealiased_product(g, h),
                               fft_dealiased_product(g, h), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_nyquist_reads_as_cosine(self, axis):
        # cos(4 x) cos(2 x) = cos(2 x) / 2 + cos(6 x) / 2 on 8 points, and
        # 6 > 8 // 3 is dropped, along either axis
        x = torus_grid(8, 8)[axis]
        out = sp.dealiased_product(np.cos(4 * x), np.cos(2 * x))
        assert np.allclose(out, 0.5 * np.cos(2 * x), rtol=0, atol=1e-13)

    def test_axes_treated_alike(self, rng):
        g, h = rng.standard_normal((2, 8, 8))
        assert np.allclose(sp.dealiased_product(g.T, h.T),
                           sp.dealiased_product(g, h).T, rtol=0, atol=1e-13)

    def test_shape_mismatch_raises(self):
        with pytest.raises(GridMismatch):
            sp.dealiased_product(np.zeros((8, 8)), np.zeros((8, 16)))


def test_roundtrip_norm_and_derivative():
    X1, _ = torus_grid(32, 32)
    f = np.cos(X1)
    assert np.isclose(sp.sobolev_norm(f, 0.0), np.pi * np.sqrt(2.0))
    # cos x1 is the first cosine column of Q1 times sqrt(n1 / 2), and the
    # constant column of Q2 times sqrt(n2): exactly nothing else along x2
    c = sp._to_basis(f)
    assert np.isclose(c[1, 0], np.sqrt(16 * 32), rtol=1e-14)
    assert not c[:, 1:].any()
    assert np.allclose(sp._from_basis(c), f, atol=1e-13)
    assert np.allclose(sp.horizontal_derivative(f, 1), -np.sin(X1), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n1=st.integers(2, 16).map(lambda k: 2 * k),
    n2=st.integers(2, 16).map(lambda k: 2 * k),
    nz=st.integers(3, 17),
    s=st.floats(-2.0, 3.0),
    eps=st.floats(0.0, 1.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_real_basis_matches_fft_references(n1, n2, nz, s, eps, seed):
    # every horizontal operator that acts in the real Fourier basis agrees
    # with its rfft2 route, on fields with Nyquist content along both axes
    rng = np.random.default_rng(seed)
    i1, i2 = np.indices((n1, n2))
    g = (rng.standard_normal((n1, n2)) + rng.standard_normal() * (-1.0) ** i1
         + rng.standard_normal() * (-1.0) ** i2)
    grid = geo.SlabGrid(n1, n2, nz)
    flat = geo.build_map(np.zeros((n1, n2)), grid)

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    for axis in (1, 2):
        assert close(sp.horizontal_derivative(g, axis),
                     fft_horizontal_derivative(g, axis))
    assert close(sp.bessel_multiplier(g, s), fft_bessel_multiplier(g, s))
    assert close(sp.mollify(g, eps), fft_mollify(g, eps))
    want = fft_sobolev_norm(g, s)
    assert abs(sp.sobolev_norm(g, s) - want) <= 1e-12 * want
    for bottom in (-1.0, 0.0):
        assert close(geo._map_solve(grid, g, bottom),
                     fft_map_solve(grid, g, bottom))
    clamped, free, inverse = fft_flux_symbols(n1, n2)
    assert close(dn.apply_dn(g, flat), fft_symbol_apply(g, clamped))
    assert close(dn.apply_dn_neumann(g, flat), fft_symbol_apply(g, free))
    h = g - g.mean()
    z = fft_symbol_apply(h, inverse)
    assert close(dn.invert_dn_neumann(h, flat), z - z.mean())
    assert close(el.harmonic_ext_dirichlet(g, flat),
                 fft_flat_extension(g, grid, "sinh"))
    assert close(el.harmonic_ext_neumann(g, flat),
                 fft_flat_extension(g, grid, "cosh"))
