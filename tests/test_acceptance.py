"""Acceptance battery: twelve gate criteria, one verdict line each.

Every test prints a single line

    acceptance NN name: PASS|FAIL (measured values)

before asserting, so a run with -s reads as a checklist and a plain run
still shows the measurements of any failed criterion.  The battery
exercises the package end to end: operator symbols and duality, the
exact flux and transport identities, constraint preservation, the
interface-equation oracle with ablations, linear dispersion, stability
persistence, energy bounds, the regularized initial-data scheme, the
difference-energy probe, and determinism of the check suite.
"""

import json

import numpy as np
import pytest

from conftest import ablation_flow, mixed_flow, random_band_limited, sample_flow
from elastislab import cli, dn
from elastislab import dynamics as dyn
from elastislab import stability as stab
from elastislab.errors import StabilityLost
from elastislab.geometry import SlabGrid, build_map, normal_vector
from elastislab.spectral import dealiased_product, horizontal_derivative


def _verdict(num, name, ok, detail):
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _meshes(n, nz=9):
    grid = SlabGrid(n, n, nz)
    return (grid,) + grid.horizontal_meshes()


def test_01_flat_interface_flux_symbols():
    grid, x1, x2 = _meshes(64, 65)
    flat = build_map(np.zeros((64, 64)), grid)
    worst = 0.0
    for k1, k2 in ((1, 0), (0, 1), (2, 1), (3, 3), (5, 0), (0, 7), (10, 4)):
        kap = float(np.hypot(k1, k2))
        mode = np.cos(k1 * x1 + k2 * x2)
        rd = kap / np.tanh(kap)
        rn = kap * np.tanh(kap)
        worst = max(
            worst,
            np.max(np.abs(dn.apply_dn(mode, flat) - rd * mode)) / rd,
            np.max(np.abs(dn.apply_dn_neumann(mode, flat) - rn * mode)) / rn)

    # the discrete flux route must approach the same symbols at second
    # order across an interval refinement pair
    _, x1s, _ = _meshes(16)
    mode = np.cos(2 * x1s)
    errs = []
    for nz in (33, 65):
        fl = build_map(np.zeros((16, 16)), SlabGrid(16, 16, nz))
        errs.append(max(
            np.max(np.abs(dn._solved_flux(mode, fl, 0.0)
                          - (2 / np.tanh(2)) * mode)),
            np.max(np.abs(dn._solved_flux(mode, fl, None)
                          - (2 * np.tanh(2)) * mode))))
    order = float(np.log2(errs[0] / errs[1]))
    _verdict(1, "flat-flux-symbols", worst <= 1e-6 and order >= 1.9,
             f"max rel err {worst:.2e}, refinement order {order:.3f}")


def test_02_flux_duality_positivity_inverse():
    rng = np.random.default_rng(314159)
    n, nz = 16, 17
    grid = SlabGrid(n, n, nz)
    defect, rayleigh, round_err = 0.0, np.inf, 0.0
    for trial in range(100):
        f = random_band_limited(rng, n, n, 3, amplitude=0.2)
        phi = random_band_limited(rng, n, n, 4)
        psi = random_band_limited(rng, n, n, 4)
        cm = build_map(f, grid)
        for apply_ in (dn.apply_dn, dn.apply_dn_neumann):
            lp = apply_(phi, cm)
            lq = apply_(psi, cm)
            lhs = np.sum(lp * psi)
            rhs = np.sum(phi * lq)
            defect = max(defect, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            rayleigh = min(rayleigh,
                           np.sum(phi * lp) / np.sum(phi * phi),
                           np.sum(psi * lq) / np.sum(psi * psi))
        if trial % 10 == 0:
            back = dn.invert_dn_neumann(dn.apply_dn_neumann(phi, cm), cm)
            round_err = max(round_err,
                            np.max(np.abs(back - phi)) / np.max(np.abs(phi)))
    ok = defect <= 1e-8 and rayleigh > 0.0 and round_err <= 1e-8
    _verdict(2, "flux-duality", ok,
             f"defect {defect:.2e}, rayleigh min {rayleigh:.2f}, "
             f"roundtrip {round_err:.2e}")


def test_03_flux_derivative_formulas():
    rng = np.random.default_rng(271828)
    grid, x1, x2 = _meshes(16, 17)

    # moving-normal decomposition reassembles the derivative exactly
    fb = random_band_limited(rng, 16, 16, 3, amplitude=0.2)
    utr = np.stack([random_band_limited(rng, 16, 16, 3) for _ in range(3)])
    mv = dn.dt_normal(utr, fb)
    nv = normal_vector(fb)
    c1 = sum(horizontal_derivative(utr[a], 1) * nv[a] for a in range(3))
    c2 = sum(horizontal_derivative(utr[a], 2) * nv[a] for a in range(3))
    exact = max(np.max(np.abs(mv.vector[0] + c1)),
                np.max(np.abs(mv.vector[1] + c2)),
                np.max(np.abs(mv.vector[2])))

    # material commutator against a transported-interface difference
    # oracle; Richardson defects isolate the oracle's own step error
    def man_vel(a1, a2, a3):
        return (0.15 * np.sin(a1 + 0.3 * a3) * np.cos(a2),
                0.10 * np.cos(a1) * np.sin(a2 + 0.2 * a3),
                0.12 * np.sin(a1) * np.sin(a2) * np.sin(np.pi * (a3 + 1) / 2))

    def kin(fh):
        v1, v2, v3 = man_vel(x1, x2, fh)
        return (v3 - v1 * horizontal_derivative(fh, 1)
                - v2 * horizontal_derivative(fh, 2))

    def evolve(fh, t, nsub=8):
        h = t / nsub
        for _ in range(nsub):
            r1 = kin(fh)
            r2 = kin(fh + 0.5 * h * r1)
            r3 = kin(fh + 0.5 * h * r2)
            r4 = kin(fh + h * r3)
            fh = fh + (h / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4)
        return fh

    f0 = 0.10 * np.cos(x1) + 0.06 * np.sin(x2)
    cmapf = build_map(f0, grid)
    g = np.cos(x1) + 0.5 * np.sin(x2)
    v1t, v2t, _ = man_vel(x1, x2, f0)
    n0 = dn.apply_dn_neumann(g, cmapf)
    rot = dn.apply_dn_neumann(v1t * horizontal_derivative(g, 1)
                              + v2t * horizontal_derivative(g, 2),
                              cmapf)

    def oracle(delta):
        hp = dn.apply_dn_neumann(g, build_map(evolve(f0, delta), grid))
        hm = dn.apply_dn_neumann(g, build_map(evolve(f0, -delta), grid))
        return ((hp - hm) / (2 * delta)
                + v1t * horizontal_derivative(n0, 1)
                + v2t * horizontal_derivative(n0, 2) - rot)

    ubulk = np.stack(man_vel(x1[..., None], x2[..., None], cmapf.phi))
    formula = dn.material_dn_commutator(g, ubulk, cmapf)
    o1, o2, o3 = oracle(4e-2), oracle(2e-2), oracle(1e-2)
    t_order = float(np.log2(np.max(np.abs(o1 - o2)) / np.max(np.abs(o2 - o3))))
    agree = np.max(np.abs(formula - o3))

    # multiplier commutator: closed formula vs the direct difference of
    # two flux applications, second order in the interval spacing
    am = 0.5 + 0.2 * np.cos(x1)
    g2 = np.cos(x1) + 0.3 * np.sin(x2)
    merrs = []
    for nz in (33, 65):
        cm = build_map(0.1 * np.cos(x1) + 0.07 * np.sin(x2),
                       SlabGrid(16, 16, nz))
        direct = dn.apply_dn(am * g2, cm) - am * dn.apply_dn(g2, cm)
        merrs.append(np.max(np.abs(direct
                                   - dn.multiplier_dn_commutator(g2, am, cm))))
    m_order = float(np.log2(merrs[0] / merrs[1]))

    ok = (exact <= 1e-10 and t_order >= 1.7 and agree <= 3e-3
          and m_order >= 1.9)
    _verdict(3, "flux-derivative-formulas", ok,
             f"normal exact {exact:.1e}, oracle order {t_order:.2f} "
             f"agree {agree:.1e}, multiplier order {m_order:.2f}")


def test_04_surface_transport_commutators():
    rng = np.random.default_rng(161803)
    n = 16
    ub = np.stack([random_band_limited(rng, n, n, 2) for _ in range(2)])
    col = np.stack([random_band_limited(rng, n, n, 2) for _ in range(2)])
    g = random_band_limited(rng, n, n, 2)

    def dp(a, b):
        return dealiased_product(a, b)

    def hd(a, i):
        return horizontal_derivative(a, i)

    adv = sum(dp(ub[b], hd(g, b + 1)) for b in range(2))
    r1 = np.max(np.abs(
        hd(adv, 1) - sum(dp(ub[b], hd(hd(g, 1), b + 1)) for b in range(2))
        - sum(dp(hd(ub[b], 1), hd(g, b + 1)) for b in range(2))))

    carry = sum(dp(col[b], hd(g, b + 1)) for b in range(2))
    r2 = np.max(np.abs(
        hd(carry, 2) - sum(dp(col[b], hd(hd(g, 2), b + 1)) for b in range(2))
        - sum(dp(hd(col[b], 2), hd(g, b + 1)) for b in range(2))))

    # with the column rate given by the stretching law the material and
    # column transports commute
    rate = [sum(dp(col[b], hd(ub[a], b + 1)) for b in range(2))
            for a in range(2)]
    r3 = np.max(np.abs(
        sum(dp(rate[a], hd(g, a + 1)) for a in range(2))
        - sum(dp(col[a], dp(hd(ub[b], a + 1), hd(g, b + 1)))
              for a in range(2) for b in range(2))))

    worst = max(r1, r2, r3)
    _verdict(4, "transport-commutators", worst <= 1e-10,
             f"residuals {r1:.1e} {r2:.1e} {r3:.1e}")


def test_05_transported_constraints():
    st = sample_flow(16, 17, 1e-3, 0.0)
    worst = {"div_u": 0.0, "div_F": 0.0, "trace_F": 0.0}
    for _ in range(100):
        st, _ = dyn.step(st, 0.02, reproject_threshold=np.inf)
        rep = dyn.invariant_report(st)
        for key in worst:
            worst[key] = max(worst[key], rep[key])
    ok = all(v < 1e-6 for v in worst.values())
    _verdict(5, "transported-constraints", ok,
             "100 steps, " + ", ".join(f"{k} {v:.2e}"
                                       for k, v in worst.items()))


def test_06_interface_equation_oracle():
    residuals = []
    for n, nz, dtl in ((16, 17, 0.005), (24, 25, 0.0025), (32, 33, 0.00125)):
        st = sample_flow(n, nz, 0.08, 0.01)
        states = [st]
        for _ in range(4):
            st, _ = dyn.step(st, dtl)
            states.append(st)
        residuals.append(dyn.evo_residual(states))
    decreasing = residuals[0] > residuals[1] > residuals[2]

    # dropping any single right-hand-side term must blow the residual
    # up by an order of magnitude; the trajectory itself is unablated
    st = ablation_flow(32, 33)
    states = [st]
    for _ in range(4):
        st, _ = dyn.step(st, 0.004)
        states.append(st)
    base = dyn.evo_residual(states)
    ratios = {term: dyn.evo_residual(states, ablate=term) / base
              for term in dyn.ABLATABLE_TERMS}
    weakest = min(ratios, key=ratios.get)
    ok = decreasing and ratios[weakest] >= 10.0
    _verdict(6, "interface-equation-oracle", ok,
             f"refinement {residuals[0]:.2e} > {residuals[1]:.2e} > "
             f"{residuals[2]:.2e}, weakest ablation {weakest} "
             f"x{ratios[weakest]:.1f}")


def test_07_linear_dispersion():
    table = cli.measure_dispersion(cli.preset("elastic-mode",
                                              n1=12, n2=12, nz=13))
    worst = max(row["rel_error"] for row in table)
    ok = len(table) == 3 and worst <= 0.05
    _verdict(7, "linear-dispersion", ok,
             ", ".join(f"{row['regime']} rel {row['rel_error']:.1e}"
                       for row in table))


def test_08_stability_persistence_and_halt():
    st = mixed_flow(32, 33, 0.1)
    reports = [stab.stability_report(st)]
    while st.t < 0.05 - 1e-12:
        st, _ = dyn.step(st, 0.0125)
        reports.append(stab.stability_report(st))
    tmin = min(r.taylor_min for r in reports)
    lmin = min(r.lambda_min for r in reports)

    # a failing report must be able to halt a monitored run
    bad = dyn.FlowState(t=0.0, f=np.zeros((8, 8)), u=np.zeros((3, 8, 8, 9)),
                        F=np.zeros((3, 3, 8, 8, 9)), eps=0.0, c0=0.1)
    with pytest.raises(StabilityLost):
        stab.stability_report(bad, enforce=True)

    ok = st.t >= 0.05 - 1e-12 and tmin >= 0.05 and lmin >= 0.05
    _verdict(8, "stability-persistence", ok,
             f"t {st.t:.3f}, taylor_min {tmin:.4f}, lambda_min {lmin:.4f} "
             f"vs threshold 0.05")


def test_09_energy_bound_across_regularizations():
    horizon, dtl = 0.1, 0.008
    rates, growths = [], []
    for eps in (1e-2, 1e-3, 0.0):
        st = sample_flow(16, 17, 0.1, eps)
        e0 = stab.energy_es_eps(st).total
        peak = e0
        k = 0
        while st.t < horizon - 1e-12:
            st, _ = dyn.step(st, dtl, reproject_threshold=np.inf)
            k += 1
            if k % 4 == 0:
                peak = max(peak, stab.energy_es_eps(st).total)
        e_end = stab.energy_es_eps(st).total
        peak = max(peak, e_end)
        growths.append(peak / e0)
        rates.append(float(np.log(e_end / e0) / st.t))
    spread = max(rates) / min(rates)
    ok = max(growths) <= 2.0 and min(rates) > 0 and spread <= 2.0
    _verdict(9, "energy-bound", ok,
             "growths " + " ".join(f"{g:.5f}" for g in growths)
             + f", rate spread {spread:.2f}")


def test_10_regularized_initial_data():
    n, nz = 16, 17
    flat = build_map(np.zeros((n, n)), SlabGrid(n, n, nz))
    worst_ratio = 0.0
    monotone = True
    dist_note = []
    for amp in (0.03, 0.06):
        base = sample_flow(n, nz, amp, 0.0)
        m0 = stab.energy_es_eps(base).m0
        dists = []
        for eps in (1e-1, 1e-2, 1e-3):
            prep = sample_flow(n, nz, amp, eps)
            rep = stab.energy_es_eps(prep)
            worst_ratio = max(worst_ratio, rep.m_eps / m0)
            dists.append(float(np.sqrt(
                stab.bulk_hs_norm2(prep.u - base.u, flat, 4)
                + stab.bulk_hs_norm2(prep.F - base.F, flat, 4))))
        monotone &= dists[0] > dists[1] > dists[2]
        dist_note.append("->".join(f"{d:.3f}" for d in dists))
    ok = worst_ratio <= 2.0 and monotone
    _verdict(10, "regularized-initial-data", ok,
             f"max m_eps/m0 {worst_ratio:.3f}, distances "
             + " and ".join(dist_note))


def test_11_difference_energy_probe():
    horizon = 0.08
    runs = {}
    for dtl in (0.01, 0.005, 0.0025):
        st = sample_flow(16, 17, 0.05, 1e-2)
        while st.t < horizon - 1e-12:
            st, _ = dyn.step(st, dtl, reproject_threshold=np.inf)
        runs[dtl] = st
    d1 = stab.difference_energy(runs[0.01], runs[0.005]).total
    d2 = stab.difference_energy(runs[0.005], runs[0.0025]).total
    # the squared difference energy of step-halved runs falls by 2^8
    order = float(0.5 * np.log2(d1 / d2))

    finals = {}
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        st = sample_flow(16, 17, 0.05, eps)
        while st.t < 0.05 - 1e-12:
            st, _ = dyn.step(st, 0.01)
        finals[eps] = st
    pair = [stab.difference_energy(finals[a], finals[b]).total
            for a, b in ((1e-1, 1e-2), (1e-2, 1e-3), (1e-3, 1e-4))]
    ok = order >= 3.8 and pair[0] > pair[1] > pair[2]
    _verdict(11, "difference-energy-probe", ok,
             f"step order {order:.2f}, regularization pairs "
             f"{pair[0]:.2e} > {pair[1]:.2e} > {pair[2]:.2e}")


def test_12_check_suite_determinism(tmp_path):
    args = ["checks", "--seed", "5"]
    code_a = cli.main(args + ["--out", str(tmp_path / "a")])
    code_b = cli.main(args + ["--out", str(tmp_path / "b")])
    raw_a = (tmp_path / "a" / "checks.json").read_bytes()
    raw_b = (tmp_path / "b" / "checks.json").read_bytes()
    report = json.loads(raw_a)
    ok = (code_a == 0 and code_b == 0 and raw_a == raw_b
          and report["all_pass"])
    _verdict(12, "check-suite-determinism", ok,
             f"{report['passed']}/{len(report['checks'])} checks, "
             f"identical reruns {raw_a == raw_b}")
