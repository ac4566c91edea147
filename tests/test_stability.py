"""Non-collinearity modulus, Taylor coefficient, region machinery, energy
functionals, difference energy and the linear dispersion formula."""

import tracemalloc

import numpy as np
import pytest

from elastislab import cli
from elastislab import dynamics as dyn
from elastislab import stability as stab
from elastislab.errors import GridMismatch, PreconditionViolated, StabilityLost
from elastislab.geometry import SlabGrid, build_map, mapped_gradient
from elastislab.elliptic import harmonic_ext_neumann, volume_weights
from elastislab.dynamics import FlowState, step

from conftest import mixed_flow, sample_flow


def _flat_state(n=16, nz=9, c0=0.1, eps=0.0, f=None, u=None, F=None,
                s=4, regions=None):
    f = np.zeros((n, n)) if f is None else f
    u = np.zeros((3, n, n, nz)) if u is None else u
    F = np.zeros((3, 3, n, n, nz)) if F is None else F
    return FlowState(0.0, f, u, F, eps, s=s, c0=c0, regions=regions)


def _waterwave_state(n, nz, scale=0.4):
    """Irrotational flow under a small wave, sealed floor."""
    grid = SlabGrid(n, n, nz)
    x1, _ = grid.horizontal_meshes()
    f = 0.03 * np.cos(x1)
    cmap = build_map(f, grid)
    u = scale * mapped_gradient(harmonic_ext_neumann(np.cos(x1), cmap), cmap)
    return FlowState(0.0, f, u, np.zeros((3, 3, n, n, nz)), 0.0)


def reference_hs_norm2(field, cmap, s):
    """bulk_hs_norm2 with every node of every scalar differentiated, zero
    or not: the walk the pruned ladder must equal bit for bit.  A field
    given by its x2 column is walked on columns, each node spread to full
    width for its weighted sum.  The gradient is looked up on the
    stability module, so a counter patched in there counts these calls
    too."""
    w = volume_weights(cmap).ravel()

    def full(a):
        return np.repeat(a, cmap.grid.n2 // a.shape[-2], axis=-2)

    def below(level, depth):
        """The ladder under one scalar, down depth >= 1 more orders."""
        g = stab.mapped_gradient(level, cmap)
        total = 0.0
        if depth > 1:
            for a in range(3):
                total += below(g[a], depth - 1)
        g = full(g).reshape(3, -1)
        return total + float(np.sum(np.multiply(g, g, out=g) @ w))

    field = np.asarray(field, dtype=float)
    total = 0.0
    for c in field.reshape((-1,) + field.shape[-3:]):
        x = full(c).ravel()
        total += float(np.dot(w * x, x)) + (below(c, int(s)) if s else 0.0)
    return total


def count_gradients(monkeypatch):
    """Record the shape of every gradient the stability module takes."""
    shapes = []

    def counted(w, cm):
        shapes.append(w.shape)
        return mapped_gradient(w, cm)

    monkeypatch.setattr(stab, "mapped_gradient", counted)
    return shapes


class TestLambda:
    def test_identity_columns(self):
        T = np.zeros((3, 2, 4, 4))
        T[0, 0] = 1.0
        T[1, 1] = 1.0
        assert np.all(stab.lambda_noncollinear(T) == 1.0)

    def test_collinear_columns(self):
        T = np.zeros((3, 2, 4, 4))
        T[0, 0] = 1.0
        T[1, 0] = 2.0
        assert np.all(stab.lambda_noncollinear(T) == 0.0)

    def test_rank_one_ensemble(self, rng):
        # second Gram row proportional to the first: the form degenerates
        base = rng.normal(size=(3, 8, 8))
        fac = rng.normal(size=(8, 8))
        T = np.stack([base, base * fac], axis=1)
        assert np.max(stab.lambda_noncollinear(T)) < 1e-13 * np.max(base ** 2)

    def test_matches_circle_scan(self, rng):
        T = rng.normal(size=(3, 2, 8, 8))
        lam = stab.lambda_noncollinear(T)
        # 360-point scan of the quadratic form; the form is an exact
        # sinusoid in the doubled angle, so the three samples around the
        # minimum determine (mean, cos, sin) amplitudes and the true
        # infimum mean - amplitude exactly
        phis = np.arange(360) * (2 * np.pi / 360)
        forms = np.stack([
            np.sum((T[:, 0] * np.cos(p) + T[:, 1] * np.sin(p)) ** 2, axis=0)
            for p in phis
        ])
        idx = np.argmin(forms, axis=0)
        oracle = np.empty((8, 8))
        for i in range(8):
            for j in range(8):
                k = idx[i, j]
                angles = phis[[(k - 1) % 360, k, (k + 1) % 360]]
                A = np.stack([np.ones(3), np.cos(2 * angles),
                              np.sin(2 * angles)], axis=1)
                mean, c, s = np.linalg.solve(
                    A, forms[[(k - 1) % 360, k, (k + 1) % 360], i, j])
                oracle[i, j] = mean - np.hypot(c, s)
        assert np.max(np.abs(lam - oracle)) < 1e-6

    def test_rotation_invariance(self, rng):
        T = rng.normal(size=(3, 2, 6, 6))
        lam = stab.lambda_noncollinear(T)
        ang = 0.7
        R = np.array([[np.cos(ang), -np.sin(ang), 0.0],
                      [np.sin(ang), np.cos(ang), 0.0],
                      [0.0, 0.0, 1.0]])
        TR = np.einsum("jk,kaxy->jaxy", R, T)
        assert np.max(np.abs(stab.lambda_noncollinear(TR) - lam)) < 1e-10

    def test_shape_guard(self):
        with pytest.raises(GridMismatch):
            stab.lambda_noncollinear(np.zeros((2, 2, 4, 4)))


class TestTaylorCoefficient:
    def test_rest_state_zero(self):
        st = _flat_state()
        tay = stab.taylor_coefficient(st)
        assert np.all(tay.normal == 0.0)
        assert np.all(tay.vertical == 0.0)
        assert np.all(np.sum(st.cmap.normal ** 2, axis=0) == 1.0)

    def test_uniform_tangential_background_zero(self):
        F = np.zeros((3, 3, 16, 16, 9))
        F[0, 0] = 1.0
        F[1, 1] = 0.7
        F[2, 0] = 0.3
        tay = stab.taylor_coefficient(_flat_state(F=F))
        assert np.max(np.abs(tay.normal)) == 0.0

    def test_waterwave_sign_against_refined_grid(self):
        # frozen from a 48^2 x 49 solve of the same state: the
        # coefficient is strictly positive with min 0.089386, max
        # 0.157149, mean 0.121663
        tay = stab.taylor_coefficient(_waterwave_state(24, 25))
        assert np.min(tay.normal) > 0.085
        assert abs(np.min(tay.normal) - 0.089386) < 5e-3
        assert abs(np.mean(tay.normal) - 0.121663) / 0.121663 < 1e-2

    def test_form_conversion_identity(self):
        # with a zero interface trace the two conventions differ by |N|^2
        st = _waterwave_state(16, 17)
        tay = stab.taylor_coefficient(st)
        nsq = np.sum(st.cmap.normal ** 2, axis=0)
        gap = np.max(np.abs(tay.normal - nsq * tay.vertical))
        assert gap < 1e-12 * np.max(np.abs(tay.normal))


class TestRegions:
    def test_whole_torus(self):
        # a state without regions holds both conditions everywhere
        reg = stab._resolve_regions(_flat_state(nz=5))
        assert np.all(reg.chi1 == 1.0)
        assert np.all(reg.mask2)
        assert np.all(reg.phi == 0.0)

    def test_rectangle_membership(self):
        grid = SlabGrid(32, 32, 5)
        reg = stab.Regions([(1.0, 3.0, 0.0, 2 * np.pi)],
                           [(0.0, 2 * np.pi, 0.0, 2 * np.pi)], grid)
        x1 = 2 * np.pi * np.arange(32) / 32
        deep_in = np.argmin(np.abs(x1 - 2.0))
        deep_out = np.argmin(np.abs(x1 - 5.2))
        assert reg.mask1[deep_in, 0]
        assert not reg.mask1[deep_out, 0]
        assert np.all(reg.chi1 >= 0.0) and np.all(reg.chi1 <= 1.0)

    def test_wrapping_rectangle(self):
        grid = SlabGrid(32, 32, 5)
        reg = stab.Regions([(-0.5, 0.5, 0.0, 2 * np.pi)],
                           [(0.0, 2 * np.pi, 0.0, 2 * np.pi)], grid)
        assert reg.mask1[0, 0]
        assert not reg.mask1[16, 0]

    def test_cutoff_endpoints(self):
        # wide separated bands: the cutoff saturates far from either edge
        grid = SlabGrid(32, 32, 5)
        reg = stab.Regions([(0.0, 2.0, 0.0, 2 * np.pi)],
                           [(1.5, 2 * np.pi + 0.5, 0.0, 2 * np.pi)], grid)
        x1 = 2 * np.pi * np.arange(32) / 32
        far_outside_g1 = np.argmin(np.abs(x1 - 4.14))
        gap_outside_g2 = np.argmin(np.abs(x1 - 1.0))
        assert reg.phi[far_outside_g1, 0] > 0.99
        assert reg.phi[gap_outside_g2, 0] < 0.1
        assert np.all(reg.phi >= 0.0) and np.all(reg.phi <= 1.0)

    def test_built_once_per_rectangles_and_grid(self):
        rects = ([(0.0, 2.0, 0.0, 2 * np.pi)], [(1.5, 7.0, 0.0, 2 * np.pi)])
        a = stab._resolve_regions(_flat_state(regions=rects))
        b = stab._resolve_regions(_flat_state(regions=tuple(map(tuple, rects))))
        assert a is b
        assert stab._resolve_regions(_flat_state(n=32, regions=rects)) is not a
        for field in (a.chi1, a.chi2, a.mask1, a.mask2, a.phi):
            assert not field.flags.writeable

    def test_uncovered_torus_rejected(self):
        grid = SlabGrid(32, 32, 5)
        with pytest.raises(PreconditionViolated):
            stab.Regions([(0.0, 0.5, 0.0, 0.5)], [(3.0, 3.5, 3.0, 3.5)], grid)


class TestStabilityReport:
    def test_elastic_background_passes_without_taylor(self):
        c0 = 0.1
        c = np.sqrt(2 * c0)
        F = np.zeros((3, 3, 16, 16, 9))
        F[0, 0] = c
        F[1, 1] = c
        st = _flat_state(c0=c0, F=F,
                         regions=([], [(0.0, 2 * np.pi, 0.0, 2 * np.pi)]))
        rep = stab.stability_report(st)
        assert rep.taylor_min == np.inf
        assert abs(rep.lambda_min - 2 * c0) < 1e-14
        assert rep.ok

    def test_rest_state_fails_taylor_everywhere(self):
        rep = stab.stability_report(_flat_state(c0=0.1))
        assert rep.taylor_min == 0.0
        assert not rep.taylor_ok
        assert not rep.ok
        with pytest.raises(StabilityLost):
            stab.stability_report(_flat_state(c0=0.1), enforce=True)

    def test_mixed_state_split_regions(self):
        # each condition holds only on its own region at this threshold
        st = mixed_flow(32, 33, c0=0.22)
        rep = stab.stability_report(st)
        assert rep.ok
        assert 0.115 < rep.taylor_min < 0.126
        assert 0.32 < rep.lambda_min < 0.34
        # a state without regions is held to both conditions everywhere
        whole = stab.stability_report(
            FlowState(st.t, st.f, st.u, st.F, st.eps, st.s, st.c0))
        assert not whole.taylor_ok and not whole.lambda_ok
        assert 0.085 < whole.taylor_min < 0.092
        assert whole.lambda_min < 0.03


class TestPressureGradientReaders:
    def test_readers_take_the_kept_gradient(self, monkeypatch):
        # the step bound, the report, the weight and the momentum rate all
        # read assemble_pressure(st).grad and differentiate nothing again
        st = mixed_flow(24, 25, c0=0.1)
        pr = dyn.assemble_pressure(st)

        def refuse(*args):
            raise AssertionError("pressure differentiated again")

        monkeypatch.setattr(dyn, "mapped_gradient", refuse)
        monkeypatch.setattr(stab, "mapped_gradient", refuse)
        dyn.stable_dt(st)
        stab.stability_report(st)
        stab.coercivity_weight(st)
        dyn.bulk_rhs(st)
        assert dyn.assemble_pressure(st) is pr


class TestCoercivityWeight:
    def test_rest_state_constant_floor(self):
        w, info = stab.coercivity_weight(_flat_state(c0=0.1))
        assert np.max(np.abs(w - 0.1)) < 1e-8
        assert info["clip"] == pytest.approx(0.1)

    def test_mixed_state_range(self):
        st = mixed_flow(32, 33, c0=0.1)
        w, info = stab.coercivity_weight(st)
        assert np.min(w) >= st.c0 - 1e-8
        assert np.max(w) <= info["abar_max"] + 1e-6
        # stable data needs no more than mollification-slack clipping
        assert info["clip"] < 1e-3


class TestEnergy:
    def test_rest_state_all_zero(self):
        rep = stab.energy_es_eps(_flat_state())
        assert rep.total == 0.0
        assert rep.m0 == 0.0

    def test_single_mode_eps_term_arithmetic(self):
        n, nz, s, eps, delta = 32, 9, 4, 0.3, 0.05
        grid = SlabGrid(n, n, nz)
        x1, _ = grid.horizontal_meshes()
        st = _flat_state(n=n, nz=nz, eps=eps, f=delta * np.cos(x1))
        rep = stab.energy_es_eps(st)
        want = eps * delta ** 2 * 2 ** (s - 0.5) * 2 * np.pi ** 2
        assert abs(rep.eps_term - want) / want < 1e-12

    def test_components_nonnegative_and_sandwich(self):
        rep = stab.energy_es_eps(sample_flow(16, 17, 0.05, 1e-2))
        for name in ("dt_term", "elastic_term", "eps_term",
                     "weighted_extension", "extension", "f_l2", "dtf_l2",
                     "u_hs", "F_hs"):
            assert getattr(rep, name) >= 0.0
        slack = 1e-12 * rep.extension
        assert rep.weighted_extension >= rep.weight_min * rep.extension - slack
        assert rep.weighted_extension <= rep.weight_max * rep.extension + slack

    def test_eps_zero_total_is_es(self):
        rep = stab.energy_es_eps(sample_flow(16, 17, 0.04, 0.0))
        assert rep.eps_term == 0.0
        # E_s: the total without its regularization term
        assert rep.total == (rep.dt_term + rep.elastic_term
                             + rep.weighted_extension + rep.f_l2 + rep.dtf_l2
                             + rep.u_hs + rep.F_hs)

    def test_index_guard(self):
        with pytest.raises(PreconditionViolated):
            stab.energy_es_eps(_flat_state(s=3))


class TestBulkLadderNorm:
    def test_single_mode_hand_value(self):
        n, nz, s = 16, 9, 4
        grid = SlabGrid(n, n, nz)
        x1, _ = grid.horizontal_meshes()
        flat = build_map(np.zeros((n, n)), grid)
        field = np.broadcast_to(np.sin(x1)[..., None], grid.shape)
        # each derivative level keeps a single unit mode of mass 2 pi^2
        want = (s + 1) * 2 * np.pi ** 2
        got = stab.bulk_hs_norm2(field, flat, s)
        assert abs(got - want) / want < 1e-12

    @staticmethod
    def _curved_map(n, nz):
        grid = SlabGrid(n, n, nz)
        x1, x2 = grid.horizontal_meshes()
        return build_map(0.15 * np.cos(x1) + 0.1 * np.sin(x1 + x2), grid)

    @staticmethod
    def _ordering_sum(field, cmap, s):
        """Every ordering of every derivative held level by level."""
        level = np.asarray(field, dtype=float).reshape((-1,) + cmap.grid.shape)
        total = np.sum(volume_weights(cmap) * level ** 2)
        for _ in range(s):
            level = np.concatenate([mapped_gradient(c, cmap) for c in level])
            total += np.sum(volume_weights(cmap) * level ** 2)
        return total

    @pytest.mark.parametrize("batch", [(), (3,), (3, 3)])
    def test_matches_ordering_sum(self, rng, batch):
        cmap = self._curved_map(8, 9)
        field = rng.normal(size=batch + cmap.grid.shape)
        for s in range(5):
            want = self._ordering_sum(field, cmap, s)
            got = stab.bulk_hs_norm2(field, cmap, s)
            assert abs(got - want) <= 1e-12 * want

    def test_peak_memory_grows_with_order_not_its_power(self, rng):
        # holding every ordering at s = 4 would peak about 9x its s = 2 peak
        cmap = self._curved_map(8, 9)
        F = rng.normal(size=(3, 3) + cmap.grid.shape)
        peaks = {}
        for s in (2, 4):
            tracemalloc.start()
            try:
                stab.bulk_hs_norm2(F, cmap, s)
                peaks[s] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] < 3 * peaks[2]

    def test_peak_memory_does_not_grow_with_the_batch(self, rng):
        # each scalar is walked on its own, so a (3, 3) field peaks where
        # one of its components does
        cmap = self._curved_map(8, 9)
        F = rng.normal(size=(3, 3) + cmap.grid.shape)
        peaks = []
        for field in (F[0, 0], F):
            tracemalloc.start()
            try:
                stab.bulk_hs_norm2(field, cmap, 4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("batch", [(), (3,), (3, 3)])
    def test_one_unbatched_gradient_per_inner_node(self, rng, monkeypatch,
                                                   batch):
        cmap = self._curved_map(8, 9)
        field = rng.normal(size=batch + cmap.grid.shape)
        shapes = count_gradients(monkeypatch)
        components = int(np.prod(batch))
        for s in range(5):
            shapes.clear()
            stab.bulk_hs_norm2(field, cmap, s)
            assert set(shapes) <= {cmap.grid.shape}
            assert len(shapes) == components * (3 ** s - 1) // 2

    # component kinds of the (3, 3) field below, in row-major order
    ZERO, X2, FULL = "zero", "x2-invariant", "3-D"
    KINDS = ((X2, FULL, ZERO), (ZERO, X2, FULL), (X2, ZERO, ZERO))

    @classmethod
    def _kinds_field(cls, rng, grid):
        """A (3, 3) field with exactly-zero, x2-invariant and 3-D scalars."""
        F = np.zeros((3, 3) + grid.shape)
        for (i, j), kind in np.ndenumerate(np.array(cls.KINDS)):
            if kind == cls.X2:
                F[i, j] = rng.normal(size=(grid.n1, 1, grid.nz))
            elif kind == cls.FULL:
                F[i, j] = rng.normal(size=grid.shape)
        return F

    @staticmethod
    def _x2_invariant_map(n, nz):
        grid = SlabGrid(n, n, nz)
        x1, _ = grid.horizontal_meshes()
        return build_map(0.15 * np.cos(x1), grid)

    @pytest.mark.parametrize("n, nz", [(8, 9), (16, 17)])
    def test_skipping_zero_subtrees_is_exact(self, rng, n, nz):
        cmap = self._x2_invariant_map(n, nz)
        F = self._kinds_field(rng, cmap.grid)
        for s in range(5):
            assert stab.bulk_hs_norm2(F, cmap, s) == reference_hs_norm2(F, cmap, s)

    @pytest.mark.parametrize("n, nz", [(8, 9), (16, 17)])
    def test_zero_branches_take_no_gradient(self, rng, monkeypatch, n, nz):
        # a zero scalar takes none; an x2-invariant one differentiates to
        # an exactly zero x2-branch, so only orderings of x1 and x3 remain
        cmap = self._x2_invariant_map(n, nz)
        F = self._kinds_field(rng, cmap.grid)
        shapes = count_gradients(monkeypatch)
        for s in range(5):
            want = {self.ZERO: 0, self.X2: 2 ** s - 1, self.FULL: (3 ** s - 1) // 2}
            for (i, j), kind in np.ndenumerate(np.array(self.KINDS)):
                shapes.clear()
                stab.bulk_hs_norm2(F[i, j], cmap, s)
                assert len(shapes) == want[kind], (kind, s)
            shapes.clear()
            stab.bulk_hs_norm2(F, cmap, s)
            assert len(shapes) == sum(want[k] for row in self.KINDS for k in row)

    @pytest.mark.parametrize("scenario", ["mixed-regions", "elastic-mode"])
    def test_columns_walk_as_full_fields(self, scenario):
        # a column state's ladder runs on its x2 columns, bit for bit the
        # walk of its full fields
        st = cli.build_scenario(cli.preset(scenario, n1=12, n2=12, nz=13))
        assert st._u.shape[-2] == st._F.shape[-2] == 1
        for column, full in ((st._u, st.u), (st._F, st.F)):
            for s in (0, 1, st.s):
                assert (stab.bulk_hs_norm2(column, st.cmap, s)
                        == stab.bulk_hs_norm2(full, st.cmap, s))

    @pytest.mark.parametrize("scenario, n, nz", [("mixed-regions", 16, 17),
                                                 ("elastic-mode", 12, 13)])
    def test_preset_energy_is_the_reference_walk(self, monkeypatch, scenario,
                                                 n, nz):
        # both presets are x2-invariant, and most of their scalars are zero
        st = cli.build_scenario(cli.preset(scenario, n1=n, n2=n, nz=nz))
        shapes = count_gradients(monkeypatch)
        got = stab.energy_es_eps(st)
        pruned = len(shapes)
        shapes.clear()
        monkeypatch.setattr(stab, "bulk_hs_norm2", reference_hs_norm2)
        want = stab.energy_es_eps(st)
        assert (got.u_hs, got.F_hs, got.total) == (want.u_hs, want.F_hs, want.total)
        assert pruned <= 0.2 * len(shapes)

    def test_order_guard(self):
        flat = build_map(np.zeros((8, 8)), SlabGrid(8, 8, 5))
        with pytest.raises(PreconditionViolated):
            stab.bulk_hs_norm2(np.zeros((8, 8, 5)), flat, -1)


class TestDifferenceEnergy:
    def test_identical_states_zero(self):
        st = sample_flow(16, 17, 0.05, 1e-2)
        assert stab.difference_energy(st, st).total == 0.0

    def test_grid_guard(self):
        with pytest.raises(GridMismatch):
            stab.difference_energy(_flat_state(n=16), _flat_state(n=8, nz=9))

    def test_dt_self_convergence(self):
        # RK4 halving: the squared difference drops by about 2^8
        T = 0.04
        runs = {}
        for dt in (0.02, 0.01, 0.005):
            st = sample_flow(16, 17, 0.05, 1e-2)
            while st.t < T - 1e-12:
                st, _ = step(st, dt, reproject_threshold=np.inf)
            runs[dt] = st
        d1 = stab.difference_energy(runs[0.02], runs[0.01]).total
        d2 = stab.difference_energy(runs[0.01], runs[0.005]).total
        assert d1 / d2 > 100.0

    def test_small_perturbation_grows_slowly(self):
        # frozen probe: a 1e-6 single-mode nudge stays within half a
        # percent of its initial separation up to t = 0.06
        eps, dt, T = 1e-2, 0.01, 0.06
        a = sample_flow(16, 17, 0.05, eps)
        b = sample_flow(16, 17, 0.05, eps)
        x1, _ = a.grid.horizontal_meshes()
        b = b.with_fields(b.t, b.f + 1e-6 * np.cos(x1), b.u, b.F)
        d0 = stab.difference_energy(a, b).total
        assert 8e-11 < d0 < 1.2e-10
        while a.t < T - 1e-12:
            a, _ = step(a, dt, reproject_threshold=np.inf)
            b, _ = step(b, dt, reproject_threshold=np.inf)
        dT = stab.difference_energy(a, b).total
        rate = np.log(dT / d0) / T
        assert 0.9 * d0 < dT < 1.05 * d0
        assert abs(rate) < 1.0


class TestOneFunctional:
    """The difference energy is the graded energy at s - 1: against a zero
    state it equals energy_es_eps one index down, where both weights are
    the floor c0 = 0 and neither has an eps term."""

    @staticmethod
    def _pair(f, u, F):
        zero = FlowState(0.0, np.zeros_like(f), np.zeros_like(u),
                         np.zeros_like(F), 0.0, s=4, c0=0.0)
        diff = stab.difference_energy(
            FlowState(0.0, f, u, F, 0.0, s=5, c0=0.0), zero)
        return diff, stab.energy_es_eps(FlowState(0.0, f, u, F, 0.0, s=4,
                                                  c0=0.0))

    INTERFACE = ("dt_term", "elastic_term", "eps_term", "weighted_extension",
                 "extension", "f_l2", "dtf_l2", "weight_min", "weight_max")

    def test_interface_terms_are_equal(self):
        st = sample_flow(16, 17, 0.05, 0.0)
        diff, energy = self._pair(st.f, st.u, st.F)
        assert energy.dt_term > 0.0 and energy.elastic_term > 0.0
        for name in self.INTERFACE:
            assert getattr(diff, name) == getattr(energy, name), name

    def test_flat_interface_every_term_is_equal(self):
        # on a flat interface the moving domain is the reference slab, so
        # the bulk ladders agree too
        st = sample_flow(16, 17, 0.05, 0.0)
        diff, energy = self._pair(np.zeros_like(st.f), st.u, st.F)
        assert energy.u_hs > 0.0 and energy.dtf_l2 > 0.0
        for name in self.INTERFACE + ("u_hs", "F_hs", "total"):
            assert getattr(diff, name) == getattr(energy, name), name
        assert (diff.m0, diff.m_eps) == (None, None)


class TestDispersion:
    def test_neutral(self):
        assert stab.dispersion_omega(np.zeros((3, 2)), 0.0, 0.0, (1, 0)) == 0.0

    def test_unit_elastic_mode(self):
        T = np.zeros((3, 2))
        T[0, 0] = 1.0
        T[1, 1] = 1.0
        assert stab.dispersion_omega(T, 0.0, 0.0, (1, 0)) == pytest.approx(1.0)

    def test_taylor_term_uses_finite_depth_symbol(self):
        xi = (2.0, 1.0)
        kap = np.hypot(*xi)
        a = 0.37
        om = stab.dispersion_omega(np.zeros((3, 2)), a, 0.0, xi)
        want = a * kap * np.cosh(kap) / np.sinh(kap)
        assert om ** 2 == pytest.approx(want, rel=1e-12)

    def test_monotone_in_each_argument(self):
        T = np.zeros((3, 2))
        T[0, 0] = 0.5
        base = stab.dispersion_omega(T, 0.2, 0.1, (1, 1))
        assert stab.dispersion_omega(T, 0.4, 0.1, (1, 1)) > base
        assert stab.dispersion_omega(T, 0.2, 0.3, (1, 1)) > base
        T2 = T.copy()
        T2[0, 0] = 0.9
        assert stab.dispersion_omega(T2, 0.2, 0.1, (1, 1)) > base

    def test_guards(self):
        with pytest.raises(PreconditionViolated):
            stab.dispersion_omega(np.zeros((3, 2)), -0.1, 0.0, (1, 0))
        tilted = np.zeros((3, 3))
        tilted[0, 2] = 0.5
        with pytest.raises(PreconditionViolated):
            stab.dispersion_omega(tilted, 0.0, 0.0, (1, 0))
        with pytest.raises(GridMismatch):
            stab.dispersion_omega(np.zeros((2, 2)), 0.0, 0.0, (1, 0))


class TestFitFrequency:
    def test_exact_on_cosine(self):
        t = np.arange(50) * 0.04
        got = stab.fit_frequency(np.cos(2.7 * t + 0.3) * 1.7, 0.04)
        assert got == pytest.approx(2.7, rel=1e-10)

    def test_zero_series(self):
        assert stab.fit_frequency(np.zeros(10), 0.1) == 0.0

    def test_short_series_rejected(self):
        with pytest.raises(PreconditionViolated):
            stab.fit_frequency(np.ones(2), 0.1)


class TestDiagnostics:
    def test_roundtrip(self, tmp_path):
        st = mixed_flow(32, 33, c0=0.1)
        rep = stab.stability_report(st)
        en = stab.energy_es_eps(st)
        from elastislab.dynamics import invariant_report
        row = stab.diagnostic_row(rep, en, invariant_report(st))
        assert len(row) == len(stab.DIAGNOSTIC_COLUMNS)
        path = tmp_path / "diag.csv"
        stab.write_diagnostics(path, [row])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(stab.DIAGNOSTIC_COLUMNS)
        assert len(lines) == 2
        back = [float(x) for x in lines[1].split(",")]
        assert back[0] == st.t
        assert back[1] == pytest.approx(rep.taylor_min)
