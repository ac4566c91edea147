"""Command line harness: scenario runs, the property-check suite,
refinement studies and dispersion measurements.

Configuration is plain ``key = value`` text with a mandatory ``schema``
version; unknown keys are rejected so a stale config never runs
silently with defaults.  Every subcommand writes its artifacts
(resolved config, CSV diagnostics, snapshots, JSON reports) into the
--out directory, and the only randomness anywhere is the single seeded
generator recorded in those artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import dn
from . import dynamics as dyn
from . import stability as stab
from .elliptic import harmonic_ext_neumann, weight_field
from .errors import (
    CeilingViolated,
    ConfigInvalid,
    DegenerateMap,
    PreconditionViolated,
    SolverDiverged,
    StabilityLost,
)
from .geometry import SlabGrid, build_map, mapped_gradient, normal_vector
from .snapshots import write_snapshot
from .spectral import (
    dealiased_product,
    horizontal_derivative,
    mollify,
    sobolev_norm,
)

__all__ = [
    "RunConfig",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "build_scenario",
    "config_text",
    "load_config",
    "main",
    "measure_dispersion",
    "preset",
    "run_checks",
]

SCHEMA_VERSION = 1
SCENARIOS = ("rest", "elastic-mode", "mixed-regions")
STUDIES = ("all", "spatial", "temporal", "evo")
# a run may ask for at most MAX_OUTPUTS output times (t_final /
# output_interval rounded up; elastic-mode, the most of the presets, asks
# for 18) and at most MAX_STEPS steps (t_final / dt rounded up); validate
# refuses either before any work, cmd_run a dt = 0 run once dt is known
MAX_OUTPUTS = 10_000
MAX_STEPS = 1_000_000
# measured peak RSS slope per grid node of checks, the steepest command
# (68 -> 108 MB from 24x24x25 to 32x32x33; run: 1.4 KB per node), and per
# nz^2 of the dense vertical matrices, steepest in convergence, whose
# spatial study runs 2 nz - 1 levels (152 -> 458 MB from 4x4x513 to
# 4x4x1025; checks: 120 bytes per nz^2)
PEAK_BYTES_PER_NODE = 2_200
PEAK_BYTES_PER_NZ2 = 420
MAX_S = 8  # largest energy index (its ladder grows as 2^s to 3^s)
# fewest points per horizontal axis that the checks data fit: below it the
# band-3 draws reach the Nyquist mode (n = 6) or the symbol modes alias (n = 4)
CHECKS_MIN_N = 8
HALTS = (StabilityLost, CeilingViolated, DegenerateMap, PreconditionViolated,
         SolverDiverged)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings; field defaults are the rest scenario."""

    schema: int = SCHEMA_VERSION
    scenario: str = "rest"
    n1: int = 32
    n2: int = 32
    nz: int = 33
    eps: float = 0.0
    c0: float = 0.0
    s: int = 4
    amplitude: float = 0.0
    stretch: float = 0.0
    mode1: int = 1
    mode2: int = 0
    t_final: float = 0.1
    dt: float = 0.0
    output_interval: float = 0.02
    snapshot_interval: float = 0.0
    study: str = "all"
    seed: int = 0


_SCENARIO_DEFAULTS = {
    "rest": {},
    "elastic-mode": {
        "amplitude": 1e-3,
        "stretch": 1.0,
        "t_final": 9.0,
        "output_interval": 0.5,
    },
    "mixed-regions": {
        "c0": 0.1,
        "amplitude": 0.03,
        "stretch": 0.8,
        "t_final": 0.05,
        "output_interval": 0.0125,
    },
}

# config-file key -> value type ('int', 'float' or 'str') in RunConfig's
# field order; the one key 'grid' (type 'grid') stands for n1, n2 and nz
_GRID_FIELDS = ("n1", "n2", "nz")
_CONFIG_KEYS = dict(("grid", "grid") if f.name in _GRID_FIELDS
                    else (f.name, f.type) for f in fields(RunConfig))


def _parse_grid(text: str):
    parts = str(text).lower().split("x")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        dims = ()
    if len(dims) != 3 or any(d <= 0 for d in dims):
        raise ConfigInvalid(f"grid: expected N1xN2xNz, got {text!r}")
    return dims


def parse_config(text: str) -> dict:
    """Raw key/value pairs from ``key = value`` lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in out:
            raise ConfigInvalid(f"line {lineno}: duplicate key '{key}'")
        kind = _CONFIG_KEYS.get(key)
        if kind == "grid":
            out[key] = _parse_grid(val)
        elif kind == "int":
            try:
                out[key] = int(val)
            except ValueError:
                raise ConfigInvalid(
                    f"{key}: expected an integer, got {val!r}") from None
        elif kind == "float":
            try:
                out[key] = float(val)
            except ValueError:
                raise ConfigInvalid(
                    f"{key}: expected a number, got {val!r}") from None
        elif kind == "str":
            out[key] = val
        else:
            raise ConfigInvalid(f"line {lineno}: unknown key '{key}'")
    return out


def validate(cfg: RunConfig) -> None:
    """Raise ConfigInvalid listing every field that is out of range."""
    bad = []
    if cfg.schema != SCHEMA_VERSION:
        bad.append(f"schema: version {cfg.schema} not supported "
                   f"(this build reads {SCHEMA_VERSION})")
    if cfg.scenario not in SCENARIOS:
        bad.append(f"scenario: must be one of {', '.join(SCENARIOS)}, "
                   f"got {cfg.scenario!r}")
    if min(cfg.n1, cfg.n2) < 4 or cfg.nz < 3:
        bad.append(f"grid: need n1, n2 >= 4 and nz >= 3, "
                   f"got {cfg.n1}x{cfg.n2}x{cfg.nz}")
    if cfg.n1 % 2 or cfg.n2 % 2:
        bad.append(f"grid: n1 and n2 must be even, "
                   f"got {cfg.n1}x{cfg.n2}x{cfg.nz}")
    need = (cfg.n1 * cfg.n2 * cfg.nz * PEAK_BYTES_PER_NODE
            + cfg.nz ** 2 * PEAK_BYTES_PER_NZ2)
    if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        bad.append(f"grid: {need / 1e9:.3g} GB at PEAK_BYTES_PER_NODE = "
                   f"{PEAK_BYTES_PER_NODE} and PEAK_BYTES_PER_NZ2 = "
                   f"{PEAK_BYTES_PER_NZ2} is above physical memory")
    for name in (k for k, kind in _CONFIG_KEYS.items() if kind == "float"):
        if not np.isfinite(getattr(cfg, name)):
            bad.append(f"{name}: must be finite, got {getattr(cfg, name)}")
    for name, lo in (("eps", 0.0), ("c0", 0.0), ("amplitude", 0.0),
                     ("stretch", 0.0), ("dt", 0.0), ("snapshot_interval", 0.0)):
        if getattr(cfg, name) < lo:
            bad.append(f"{name}: must be >= {lo}, got {getattr(cfg, name)}")
    if not 4 <= cfg.s <= MAX_S:
        bad.append(f"s: energy index must be from 4 to MAX_S = {MAX_S}, got {cfg.s}")
    if cfg.t_final <= 0.0:
        bad.append(f"t_final: must be positive, got {cfg.t_final}")
    if cfg.output_interval <= 0.0:
        bad.append(f"output_interval: must be positive, got {cfg.output_interval}")
    if cfg.t_final > 0.0:
        # a ratio above a whole number means its ceiling is above it too
        for name, count, cap in (("output_interval", "outputs", MAX_OUTPUTS),
                                 ("dt", "steps", MAX_STEPS)):
            step = getattr(cfg, name)
            if step > 0.0 and cfg.t_final / step > cap:
                bad.append(f"{name}: t_final / {name} asks for more than "
                           f"{cap} {count}, got {cfg.t_final} / {step}")
    if cfg.mode1 == 0 and cfg.mode2 == 0:
        bad.append("mode1/mode2: the seeded wavenumber cannot be (0, 0)")
    for name, n in (("mode1", cfg.n1), ("mode2", cfg.n2)):
        # at or past Nyquist the seeded mode aliases onto another one
        if abs(getattr(cfg, name)) >= n // 2:
            bad.append(f"{name}: |{name}| must be below n/2 = {n // 2}, "
                       f"got {getattr(cfg, name)}")
    if cfg.study not in STUDIES:
        bad.append(f"study: must be one of {', '.join(STUDIES)}, got {cfg.study!r}")
    if cfg.seed < 0:
        bad.append(f"seed: must be >= 0, got {cfg.seed}")
    if bad:
        raise ConfigInvalid("; ".join(bad))


def preset(scenario: str, **overrides) -> RunConfig:
    """Scenario defaults overlaid with explicit settings, validated."""
    if scenario not in _SCENARIO_DEFAULTS:
        raise ConfigInvalid(f"scenario: must be one of {', '.join(SCENARIOS)}, "
                            f"got {scenario!r}")
    unknown = sorted(set(overrides) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ConfigInvalid(f"unknown setting(s): {', '.join(unknown)}")
    merged = dict(_SCENARIO_DEFAULTS[scenario])
    merged.update(overrides)
    cfg = replace(RunConfig(scenario=scenario), **merged)
    validate(cfg)
    return cfg


def load_config(path):
    """Read a config file; returns (config, keys the file set explicitly)."""
    raw = parse_config(Path(path).read_text())
    if "schema" not in raw:
        raise ConfigInvalid("schema: required field is missing")
    if raw.pop("schema") != SCHEMA_VERSION:
        raise ConfigInvalid(f"schema: only version {SCHEMA_VERSION} is supported")
    explicit = frozenset(raw)
    scenario = raw.pop("scenario", "rest")
    if "grid" in raw:
        raw["n1"], raw["n2"], raw["nz"] = raw.pop("grid")
    return preset(scenario, **raw), explicit


def config_text(cfg: RunConfig) -> str:
    """Round-trippable text form of a resolved config."""
    grid = "x".join(str(getattr(cfg, n)) for n in _GRID_FIELDS)
    return "".join(f"{key} = {grid if key == 'grid' else getattr(cfg, key)}\n"
                   for key in _CONFIG_KEYS)


# ---------------------------------------------------------------------------
# scenario presets


def build_scenario(cfg: RunConfig):
    """Prepared initial state for a preset.

    rest: everything zero.  elastic-mode: a single interface mode over a
    uniform tangential background, so the linear response is one
    oscillator.  mixed-regions: a wave-like irrotational velocity whose
    vertical pressure gradient peaks near x1 = 0 and pi paired with a
    deformation column whose strength follows sin^2(x1); each stability
    mechanism then holds only on its own band.
    """
    grid = SlabGrid(cfg.n1, cfg.n2, cfg.nz)
    x1, x2 = grid.horizontal_meshes()
    u0 = np.zeros((3, cfg.n1, cfg.n2, cfg.nz))
    F0 = np.zeros((3, 3, cfg.n1, cfg.n2, cfg.nz))
    regions = None
    if cfg.scenario == "rest":
        f0 = np.zeros((cfg.n1, cfg.n2))
    elif cfg.scenario == "elastic-mode":
        f0 = cfg.amplitude * np.cos(cfg.mode1 * x1 + cfg.mode2 * x2)
        F0[0, 0] = cfg.stretch
        F0[1, 1] = cfg.stretch
    else:
        f0 = cfg.amplitude * np.cos(x1)
        cmap = build_map(f0, grid)
        u0 = 0.4 * mapped_gradient(harmonic_ext_neumann(np.cos(x1), cmap), cmap)
        F0[0, 0] = cfg.stretch
        F0[1, 1] = (0.15 + 0.85 * np.sin(x1) ** 2)[:, :, None]
        regions = (
            ((-0.8, 0.8, 0.0, 2 * np.pi),
             (np.pi - 0.8, np.pi + 0.8, 0.0, 2 * np.pi)),
            ((np.pi / 2 - 0.95, np.pi / 2 + 0.95, 0.0, 2 * np.pi),
             (3 * np.pi / 2 - 0.95, 3 * np.pi / 2 + 0.95, 0.0, 2 * np.pi)),
        )
    state, _ = dyn.prepare_initial_data(f0, u0, F0, cfg.eps, s=cfg.s,
                                        c0=cfg.c0, regions=regions)
    return state


def _smooth_flow(n1, n2, nz, amp, eps):
    """Generic smooth prepared state used by checks and studies: wavy
    interface, gentle velocity, sheared background columns."""
    grid = SlabGrid(n1, n2, nz)
    x1, x2 = grid.horizontal_meshes()
    y = grid.y3
    f0 = amp * (np.cos(x1) + 0.6 * np.sin(x2) + 0.3 * np.cos(x1 + 2 * x2))
    u0 = np.zeros((3, n1, n2, nz))
    u0[0] = 0.1 * amp * np.sin(x1)[..., None] * np.cos(np.pi * (y + 1) / 2)
    u0[1] = 0.1 * amp * np.cos(x2)[..., None] * np.ones_like(y)
    u0[2] = 0.1 * amp * (np.sin(x2) * np.cos(x1))[..., None] * (1 + y)
    F0 = np.zeros((3, 3, n1, n2, nz))
    F0[0, 0] = 1.0
    F0[1, 1] = 1.0
    F0[2, 0] = 0.5
    F0[2, 1] = 0.2
    F0[0, 1] = 0.2 * amp * np.sin(x2)[..., None]
    F0[0, 2] = 0.1 * amp * np.sin(x1)[..., None] * (1 + y)
    state, _ = dyn.prepare_initial_data(f0, u0, F0, eps=eps)
    return state


def _evo_case(n1, n2, nz, dt):
    """Interface-equation residual of four steps at dt from the smooth
    flow of amplitude 0.08, used by checks and the evo study."""
    st = _smooth_flow(n1, n2, nz, 0.08, 0.01)
    states = [st]
    for _ in range(4):
        st, _ = dyn.step(st, dt)
        states.append(st)
    return dyn.evo_residual(states)


# ---------------------------------------------------------------------------
# run


def _mode_coefficient(f: np.ndarray, k1: int, k2: int) -> float:
    """sum f cos(k1 x1 + k2 x2), the real part of the (k1, k2) DFT
    coefficient of f."""
    n1, n2 = f.shape
    # 2 pi k j / n with k j reduced mod n, so each phase is one rounding
    x1 = (2.0 * np.pi / n1) * (k1 * np.arange(n1) % n1)
    x2 = (2.0 * np.pi / n2) * (k2 * np.arange(n2) % n2)
    return float(np.sum(f * np.cos(x1[:, None] + x2)))


def _predicted_omega(state, xi) -> float:
    """Linear frequency of mode xi over the state's mean column traces,
    its mean Taylor coefficient (floored at 0) and its eps."""
    tbar = state.F[:, :2, :, :, -1].mean(axis=(2, 3))
    a = max(0.0, float(np.mean(stab.taylor_coefficient(state).normal)))
    return stab.dispersion_omega(tbar, a, state.eps, xi)


def _write_snapshots(outdir: Path, state, index: int) -> None:
    stem = outdir / f"snap_{index:06d}"
    write_snapshot(f"{stem}_u.bin", state.u, state.cmap, state.t)
    for j in range(3):
        write_snapshot(f"{stem}_F{j + 1}.bin", state.F[j], state.cmap, state.t)


def cmd_run(cfg: RunConfig, outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.resolved").write_text(config_text(cfg))
    monitor = cfg.c0 > 0.0

    rows = []

    def emit(st):
        # every diagnostic below reads the state's pressure; solving it
        # first keeps the start of an output phase at this call
        dyn.assemble_pressure(st)
        rep = stab.stability_report(st)
        en = stab.energy_es_eps(st)
        rows.append(stab.diagnostic_row(rep, en, dyn.invariant_report(st)))
        if monitor and not rep.ok:
            # the failing row is kept; the report's typed halt ends the run
            stab.stability_report(st, enforce=True)

    # output times are multiples of the interval (plus the final time);
    # each segment is stepped uniformly so the recorded mode series has
    # a single sample spacing for the frequency fit
    targets = []
    t = cfg.output_interval
    while t < cfg.t_final - 1e-12:
        targets.append(t)
        t += cfg.output_interval
    targets.append(cfg.t_final)

    snap_every = 0
    if cfg.snapshot_interval > 0:
        snap_every = max(1, round(cfg.snapshot_interval / cfg.output_interval))

    state = None
    dtcap = cfg.dt
    series = []
    series_dt = None
    series_uniform = True
    reason, message, steps = "completed", "", 0
    try:
        state = build_scenario(cfg)
        if dtcap <= 0:
            dtcap = 0.5 * dyn.stable_dt(state)
            if np.ceil((cfg.t_final - state.t) / dtcap) > MAX_STEPS:
                raise ConfigInvalid(f"dt: half stable_dt = {dtcap:.3g} asks "
                                    f"for more than MAX_STEPS = {MAX_STEPS} steps")
        series.append(_mode_coefficient(state.f, cfg.mode1, cfg.mode2))
        emit(state)
        if snap_every:
            _write_snapshots(outdir, state, 0)
        for iout, target in enumerate(targets, 1):
            nsub = max(1, int(np.ceil((target - state.t) / dtcap - 1e-9)))
            dtl = (target - state.t) / nsub
            if series_dt is None:
                series_dt = dtl
            for _ in range(nsub):
                state, _ = dyn.step(state, dtl)
                steps += 1
                if series_uniform and abs(dtl - series_dt) < 1e-12:
                    series.append(
                        _mode_coefficient(state.f, cfg.mode1, cfg.mode2))
                else:
                    series_uniform = False
            emit(state)
            if snap_every and iout % snap_every == 0:
                _write_snapshots(outdir, state, iout)
    except HALTS as exc:
        reason, message = type(exc).__name__, str(exc)

    t_end = 0.0 if state is None else float(state.t)
    stab.write_diagnostics(outdir / "diagnostics.csv", rows)
    result = {
        "schema": SCHEMA_VERSION,
        "scenario": cfg.scenario,
        "grid": [cfg.n1, cfg.n2, cfg.nz],
        "seed": cfg.seed,
        "reason": reason,
        "message": message,
        "t_end": t_end,
        "steps": steps,
        "dt": float(series_dt if series_dt is not None else dtcap),
    }
    if cfg.scenario == "elastic-mode" and reason == "completed" and len(series) >= 3:
        predicted = _predicted_omega(state, (cfg.mode1, cfg.mode2))
        measured = stab.fit_frequency(np.asarray(series), series_dt)
        result["predicted_omega"] = float(predicted)
        result["measured_omega"] = float(measured)
        if predicted > 0:
            result["rel_error"] = abs(measured - predicted) / predicted
    with open(outdir / "result.json", "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"run {cfg.scenario}: {reason} at t={t_end:.4f} "
          f"({steps} steps, {len(rows)} diagnostic rows)")
    if message:
        print(f"  {message}")
    if "measured_omega" in result:
        print(f"  omega measured {result['measured_omega']:.6f} "
              f"predicted {result['predicted_omega']:.6f}")
    return 0 if reason == "completed" else 3


# ---------------------------------------------------------------------------
# checks


def _band(rng, n1, n2, kmax, amplitude=1.0):
    """Random real field with modes only inside |k1|, |k2| <= kmax."""
    c = np.zeros((n1, n2 // 2 + 1), dtype=complex)
    k1 = np.fft.fftfreq(n1, d=1.0 / n1)[:, None]
    k2 = np.fft.rfftfreq(n2, d=1.0 / n2)[None, :]
    mask = (np.abs(k1) <= kmax) & (np.abs(k2) <= kmax)
    c[mask] = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
    c[0, 0] = 0.0
    g = np.fft.irfft2(c, s=(n1, n2))
    peak = np.max(np.abs(g))
    return g * (amplitude / peak) if peak > 0 else g


def _corrupted(fn):
    # test hook: a solver that returns a slightly wrong field
    def wrapped(g, cmap):
        out = fn(g, cmap)
        return out + 5e-3 * horizontal_derivative(out, 1)
    return wrapped


def run_checks(cfg: RunConfig, corrupt: bool = False) -> dict:
    """Deterministic property suite at the configured grid.

    Entries are either exact identities of the discrete scheme or
    resolution-dependent residuals.  The exact entries hold on every grid
    with at least CHECKS_MIN_N points on each horizontal axis, coarse
    vertical grids included; `checks` refuses fewer.  The resolution
    tolerances scale with n1 alone (the multiplier commutator's with nz),
    so an entry whose error follows another axis can fail on a grid the
    suite accepts (32x32x17, 16x12x17, 8x8x9).  With corrupt=True the
    flux solvers are wrapped by the deliberate-error hook and the
    solver-backed entries must fail; this is the suite's negative control.
    """
    n1, n2, nz = cfg.n1, cfg.n2, cfg.nz
    rng = np.random.default_rng(cfg.seed)
    dirichlet = _corrupted(dn.apply_dn) if corrupt else dn.apply_dn
    neumann = _corrupted(dn.apply_dn_neumann) if corrupt else dn.apply_dn_neumann
    grid = SlabGrid(n1, n2, nz)
    x1, x2 = grid.horizontal_meshes()
    flat = build_map(np.zeros((n1, n2)), grid)
    curved = build_map(0.1 * np.cos(x1) + 0.07 * np.sin(x2), grid)

    checks = []

    def add(name, kind, measured, tol, comparator="<="):
        ok = measured <= tol if comparator == "<=" else measured >= tol
        checks.append({
            "name": name,
            "kind": kind,
            "measured": float(measured),
            "tolerance": float(tol),
            "comparator": comparator,
            "pass": bool(ok),
        })

    # plane identities
    g = _band(rng, n1, n2, 3)
    ref = (2 * np.pi) ** 2 * np.mean(g ** 2)
    add("spectral_parseval", "exact",
        abs(sobolev_norm(g, 0) ** 2 - ref) / ref, 1e-12)
    gm = np.cos(3 * x1)
    add("spectral_mollify_symbol", "exact",
        np.max(np.abs(mollify(gm, 0.3) - np.exp(-9 * 0.3 / 4) * gm)), 1e-12)

    # flux symbols on the flat interface (exact fast path)
    worst_d = worst_n = 0.0
    for k1m, k2m in ((1, 0), (2, 0), (0, 3), (2, 1)):
        kap = float(np.hypot(k1m, k2m))
        mode = np.cos(k1m * x1 + k2m * x2)
        ref_d = kap / np.tanh(kap)
        ref_n = kap * np.tanh(kap)
        worst_d = max(worst_d,
                      np.max(np.abs(dirichlet(mode, flat) - ref_d * mode)) / ref_d)
        worst_n = max(worst_n,
                      np.max(np.abs(neumann(mode, flat) - ref_n * mode)) / ref_n)
    add("dn_symbol_dirichlet", "exact", worst_d, 1e-10)
    add("dn_symbol_neumann", "exact", worst_n, 1e-10)

    # duality, positivity and inversion on a curved map
    ga = _band(rng, n1, n2, 3)
    gb = _band(rng, n1, n2, 3)
    defect, quot = 0.0, np.inf
    for apply_ in (dirichlet, neumann):
        ha, hb = apply_(ga, curved), apply_(gb, curved)
        lhs, rhs = np.sum(ha * gb), np.sum(ga * hb)
        defect = max(defect, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        quot = min(quot, np.sum(ga * ha) / np.sum(ga * ga),
                   np.sum(gb * hb) / np.sum(gb * gb))
    add("dn_self_adjoint", "exact", defect, 1e-8)
    add("dn_positivity", "exact", quot, 1e-8, ">=")
    back = dn.invert_dn_neumann(ha, curved)  # ha = neumann(ga, curved)
    add("dn_roundtrip", "exact",
        np.max(np.abs(back - ga)) / np.max(np.abs(ga)), 1e-8)

    # moving-normal reassembly
    fb = _band(rng, n1, n2, 3, amplitude=0.2)
    utr = np.stack([_band(rng, n1, n2, 3) for _ in range(3)])
    mv = dn.dt_normal(utr, fb)
    nv = normal_vector(fb)
    c1 = sum(horizontal_derivative(utr[a], 1) * nv[a] for a in range(3))
    c2 = sum(horizontal_derivative(utr[a], 2) * nv[a] for a in range(3))
    add("appendix_dt_normal", "exact",
        max(np.max(np.abs(mv.vector[0] + c1)),
            np.max(np.abs(mv.vector[1] + c2)),
            np.max(np.abs(mv.vector[2]))), 1e-10)

    # multiplier commutator: closed formula vs direct difference
    am = 0.5 + 0.2 * np.cos(x1)
    gm2 = np.cos(x1) + 0.3 * np.sin(x2)
    direct = dirichlet(am * gm2, curved) - am * dirichlet(gm2, curved)
    formula = dn.multiplier_dn_commutator(gm2, am, curved)
    add("appendix_multiplier_commutator", "resolution",
        np.max(np.abs(direct - formula)), 2.4e-3 * (32.0 / (nz - 1)) ** 2)

    # material commutator vs a transported-interface difference oracle
    def man_vel(a1, a2, a3):
        return (0.15 * np.sin(a1 + 0.3 * a3) * np.cos(a2),
                0.10 * np.cos(a1) * np.sin(a2 + 0.2 * a3),
                0.12 * np.sin(a1) * np.sin(a2) * np.sin(np.pi * (a3 + 1) / 2))

    def kin(fh):
        v1, v2, v3 = man_vel(x1, x2, fh)
        return (v3 - v1 * horizontal_derivative(fh, 1)
                - v2 * horizontal_derivative(fh, 2))

    def evolve(fh, t, nsub=8):
        for _ in range(nsub):
            fh = dyn._rk4(fh, t / nsub, lambda y: (kin(y),),
                          lambda y, h, k: y + h * k[0])
        return fh

    f0 = 0.10 * np.cos(x1) + 0.06 * np.sin(x2)
    cmapf = build_map(f0, grid)
    gcm = np.cos(x1) + 0.5 * np.sin(x2)
    delta = 1e-3
    hp = neumann(gcm, build_map(evolve(f0, delta), grid))
    hm = neumann(gcm, build_map(evolve(f0, -delta), grid))
    v1t, v2t, _ = man_vel(x1, x2, f0)
    n0 = neumann(gcm, cmapf)
    oracle = (dyn._material_rate((hp - hm) / (2 * delta), n0, (v1t, v2t))
              - neumann(dyn._transport(gcm, v1t, v2t), cmapf))
    ubulk = np.stack(man_vel(x1[..., None], x2[..., None], cmapf.phi))
    formula = dn.material_dn_commutator(gcm, ubulk, cmapf)
    add("appendix_material_commutator", "resolution",
        np.max(np.abs(formula - oracle)), 3e-3 * (16.0 / n1) ** 2)

    # transport commutators; band limit keeps every product alias-free
    kb = 2 if min(n1, n2) >= 16 else 1
    ub = np.stack([_band(rng, n1, n2, kb) for _ in range(2)])
    fcol = np.stack([_band(rng, n1, n2, kb) for _ in range(2)])
    gt = _band(rng, n1, n2, kb)
    dp, hd = dealiased_product, horizontal_derivative
    adv = sum(dp(ub[b], hd(gt, b + 1)) for b in range(2))
    lhs = hd(adv, 1) - sum(dp(ub[b], hd(hd(gt, 1), b + 1)) for b in range(2))
    rhs = sum(dp(hd(ub[b], 1), hd(gt, b + 1)) for b in range(2))
    add("commutator_material_horizontal", "exact",
        np.max(np.abs(lhs - rhs)), 1e-10)

    carry = sum(dp(fcol[b], hd(gt, b + 1)) for b in range(2))
    lhs = hd(carry, 2) - sum(dp(fcol[b], hd(hd(gt, 2), b + 1)) for b in range(2))
    rhs = sum(dp(hd(fcol[b], 2), hd(gt, b + 1)) for b in range(2))
    add("commutator_horizontal_transport", "exact",
        np.max(np.abs(lhs - rhs)), 1e-10)

    # with the column rate given by the stretching law the material and
    # column transports commute; the assembled terms must cancel
    rate = [sum(dp(fcol[b], hd(ub[a], b + 1)) for b in range(2))
            for a in range(2)]
    lhs = sum(dp(rate[a], hd(gt, a + 1)) for a in range(2))
    rhs = sum(dp(fcol[a], dp(hd(ub[b], a + 1), hd(gt, b + 1)))
              for a in range(2) for b in range(2))
    add("commutator_material_transport", "exact",
        np.max(np.abs(lhs - rhs)), 1e-10)

    # interior weight stays inside its boundary pinning range
    abar = 0.1 + 0.02 * (1.0 + np.cos(x1))
    try:
        wf = weight_field(abar, 0.1, curved)
        excursion = max(np.max(0.1 - wf), np.max(wf - np.max(abar)))
    except PreconditionViolated:
        excursion = np.inf
    add("weight_max_principle", "exact", excursion, 1e-7)

    # transported constraints over ten unprojected steps
    st = _smooth_flow(n1, n2, nz, 1e-3, 0.01)
    dtw = min(0.25 * dyn.stable_dt(st), 0.02)
    worst = 0.0
    for _ in range(10):
        st, _ = dyn.step(st, dtw, reproject_threshold=np.inf)
        inv = dyn.invariant_report(st)
        worst = max(worst, inv["div_u"], inv["div_F"], inv["trace_F"])
    add("transport_invariants", "resolution", worst, 1e-6)
    del st  # not kept alive (with its pressure) through the next case

    # interface equation residual on a short history
    add("evo_residual", "resolution", _evo_case(n1, n2, nz, 0.005 * 16.0 / n1),
        4e-3 * (16.0 / n1) ** 2)

    passed = sum(c["pass"] for c in checks)
    return {
        "schema": SCHEMA_VERSION,
        "grid": [n1, n2, nz],
        "seed": cfg.seed,
        "corrupt_solver": bool(corrupt),
        "checks": checks,
        "passed": passed,
        "failed": len(checks) - passed,
        "all_pass": passed == len(checks),
    }


def cmd_checks(cfg: RunConfig, outdir: Path, corrupt: bool) -> int:
    report = run_checks(cfg, corrupt=corrupt)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "checks.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for c in report["checks"]:
        verdict = "pass" if c["pass"] else "FAIL"
        print(f"check {c['name']}: {c['measured']:.3e} {c['comparator']} "
              f"{c['tolerance']:.3e} [{verdict}]")
    print(f"checks: {report['passed']}/{len(report['checks'])} passed "
          f"(grid {cfg.n1}x{cfg.n2}x{cfg.nz}, seed {cfg.seed})")
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# convergence studies


def cmd_convergence(cfg: RunConfig, outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    ok = True

    if cfg.study in ("all", "spatial"):
        # discrete flux route against the analytic symbol, on a fixed
        # 16 x 16: below 6 points an axis cos 2x is on the Nyquist column,
        # which the derivative zeroes
        n = 16
        xg = 2 * np.pi * np.arange(n) / n
        mode = np.cos(2 * xg)[:, None] * np.ones((1, n))
        errs = []
        pair = (cfg.nz, 2 * (cfg.nz - 1) + 1)
        for nzl in pair:
            fl = build_map(np.zeros((n, n)), SlabGrid(n, n, nzl))
            e = max(np.max(np.abs(dn._solved_flux(mode, fl, 0.0)
                                  - (2 / np.tanh(2)) * mode)),
                    np.max(np.abs(dn._solved_flux(mode, fl, None)
                                  - (2 * np.tanh(2)) * mode)))
            errs.append(e)
            rows.append(("spatial", f"nz={nzl}", e, ""))
        order = float(np.log2(errs[0] / errs[1]))
        rows.append(("spatial", "order", order, 1.9))
        ok &= order >= 1.9

    if cfg.study in ("all", "temporal"):
        # integrator self-convergence through the difference energy,
        # which scales with the fourth power of the step squared
        horizon = 0.08
        runs = {}
        for dtl in (0.01, 0.005, 0.0025):
            st = _smooth_flow(16, 16, 17, 0.05, 1e-2)
            while st.t < horizon - 1e-12:
                st, _ = dyn.step(st, dtl, reproject_threshold=np.inf)
            runs[dtl] = st
        d1 = stab.difference_energy(runs[0.01], runs[0.005]).total
        d2 = stab.difference_energy(runs[0.005], runs[0.0025]).total
        rows.append(("temporal", "D(0.01,0.005)", d1, ""))
        rows.append(("temporal", "D(0.005,0.0025)", d2, ""))
        order = float(0.5 * np.log2(d1 / d2))
        rows.append(("temporal", "order", order, 3.8))
        ok &= order >= 3.8

    if cfg.study in ("all", "evo"):
        residuals = []
        for n, nzl, dtl in ((16, 17, 0.005), (24, 25, 0.0025), (32, 33, 0.00125)):
            r = _evo_case(n, n, nzl, dtl)
            residuals.append(r)
            rows.append(("evo", f"n={n} dt={dtl}", r, ""))
        decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
        rows.append(("evo", "monotone", float(decreasing), 1.0))
        ok &= decreasing

    with open(outdir / "convergence.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["study", "label", "measured", "expected"])
        w.writerows(rows)
    for study, label, measured, expected in rows:
        tail = f" (expected >= {expected})" if expected != "" else ""
        print(f"{study:>9} {label:<18} {measured:.6e}{tail}")
    print(f"convergence: {'all expectations met' if ok else 'EXPECTATION MISSED'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# dispersion


_REGIMES = (
    ("elastic", 0.0, 1.0, 0.02, 450),
    ("epsilon", 1.0, 0.0, 0.02, 450),
    ("combined", 1.0, 1.0, 0.012, 550),
)


def measure_dispersion(cfg: RunConfig) -> list:
    """Measured vs predicted frequency in the three linear regimes."""
    out = []
    xi = (cfg.mode1, cfg.mode2)
    for name, eps, stretch, dtl, nsteps in _REGIMES:
        sub = replace(cfg, scenario="elastic-mode", eps=eps, stretch=stretch,
                      amplitude=cfg.amplitude if cfg.amplitude > 0 else 1e-3)
        state = build_scenario(sub)
        predicted = _predicted_omega(state, xi)
        series = [_mode_coefficient(state.f, *xi)]
        for _ in range(nsteps):
            state, _ = dyn.step(state, dtl)
            series.append(_mode_coefficient(state.f, *xi))
        measured = stab.fit_frequency(np.asarray(series), dtl)
        out.append({
            "regime": name,
            "eps": eps,
            "stretch": stretch,
            "dt": dtl,
            "steps": nsteps,
            "predicted": float(predicted),
            "measured": float(measured),
            "rel_error": abs(measured - predicted) / predicted,
        })
    return out


def cmd_dispersion(cfg: RunConfig, outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    table = measure_dispersion(cfg)
    with open(outdir / "dispersion.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["regime", "eps", "stretch", "dt", "steps",
                    "predicted", "measured", "rel_error"])
        for row in table:
            w.writerow([row[k] for k in ("regime", "eps", "stretch", "dt",
                                         "steps", "predicted", "measured",
                                         "rel_error")])
    ok = True
    for row in table:
        ok &= row["rel_error"] <= 0.05
        print(f"dispersion {row['regime']:>8}: measured {row['measured']:.6f} "
              f"predicted {row['predicted']:.6f} "
              f"rel {row['rel_error']:.2e}")
    print(f"dispersion: {'all regimes within 5%' if ok else 'MISMATCH'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def _effective_config(args) -> RunConfig:
    if args.config is not None:
        cfg, explicit = load_config(args.config)
    else:
        cfg, explicit = preset("rest"), frozenset()
    if args.grid is not None:
        n1, n2, nz = _parse_grid(args.grid)
        cfg = replace(cfg, n1=n1, n2=n2, nz=nz)
        explicit = explicit | {"grid"}
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.command == "dispersion" and "grid" not in explicit:
        # oscillation runs are long; default to the small validated grid
        cfg = replace(cfg, n1=12, n2=12, nz=13)
    validate(cfg)
    if args.command == "checks" and min(cfg.n1, cfg.n2) < CHECKS_MIN_N:
        raise ConfigInvalid(f"grid: checks needs n1, n2 >= CHECKS_MIN_N = "
                            f"{CHECKS_MIN_N}, got {cfg.n1}x{cfg.n2}x{cfg.nz}")
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="elastislab",
        description="Free-boundary incompressible elastic flow on a slab: "
                    "scenario runs, property checks, refinement studies "
                    "and dispersion measurements.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "run": "integrate a scenario preset and write diagnostics",
        "checks": "run the deterministic property suite",
        "convergence": "refinement studies with observed orders",
        "dispersion": "measured vs predicted oscillation frequencies",
    }
    for name, help_ in descriptions.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", type=Path, default=None,
                       help="key = value config file")
        p.add_argument("--out", type=Path, default=Path("artifacts"),
                       help="output directory (default: artifacts)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the recorded seed")
        p.add_argument("--grid", default=None, metavar="N1xN2xNz",
                       help="override the grid")
        if name == "checks":
            p.add_argument("--corrupt-solver", action="store_true",
                           help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
        if args.command == "run":
            return cmd_run(cfg, args.out)
        if args.command == "checks":
            return cmd_checks(cfg, args.out, args.corrupt_solver)
        if args.command == "convergence":
            return cmd_convergence(cfg, args.out)
        return cmd_dispersion(cfg, args.out)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HALTS as exc:  # a halt that cmd_run does not record itself
        print(f"{args.command}: {type(exc).__name__}\n  {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
