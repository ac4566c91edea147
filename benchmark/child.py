"""One run of one workload, in a fresh process.

Invoked by run.py as

    python3 child.py --spec JSON --seed N --out DIR --t0 T --mode MODE

where T is the parent's ``time.monotonic()`` just before it started this
process, so set-up and wall times count interpreter start and imports.
MODE is ``plain`` (only the phase functions are wrapped), ``traced``
(every layer function and the numpy 2-D transforms are wrapped) or
``memory`` (traced, and tracemalloc on inside each energy call; its times
are not used).  The child runs the workload against the package in
``src/``, writes the workload's own artifacts into DIR, and then
``child.json`` with its phase timings, peak RSS, the names it wrapped,
and, unless plain, the counters and per-layer summary; a memory run adds
the energy allocation peak.  It
exits 0 when the workload ran to the end, 1 otherwise; output
verification is run.py's job.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer

# perf_counter (span clock) to monotonic (cross-process clock)
_CLOCK_OFFSET = time.monotonic() - time.perf_counter()


def band_limited(rng, n1, n2, kmax, amplitude):
    """Seeded real field with modes |k1|, |k2| <= kmax, peak |f| = amplitude.

    Generated here rather than with a package helper, so the inputs stay
    the same when the package changes."""
    import numpy as np

    k1 = np.fft.fftfreq(n1, d=1.0 / n1)[:, None]
    k2 = np.fft.rfftfreq(n2, d=1.0 / n2)[None, :]
    mask = (np.abs(k1) <= kmax) & (np.abs(k2) <= kmax)
    c = np.zeros((n1, n2 // 2 + 1), dtype=complex)
    c[mask] = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
    c[0, 0] = 0.0
    f = np.fft.irfft2(c, s=(n1, n2))
    return f * (amplitude / np.max(np.abs(f)))


def run_cli(spec, seed, out: Path) -> int:
    """`elastislab run` on a config file built from the spec."""
    from elastislab import cli

    lines = ["schema = 1"] + [f"{k} = {v}" for k, v in spec["config"].items()]
    lines.append(f"seed = {seed}")
    config = out / "bench.cfg"
    config.write_text("\n".join(lines) + "\n")
    return cli.main(["run", "--config", str(config), "--out", str(out)])


def run_checks(spec, seed, out: Path) -> int:
    """`elastislab checks` at the spec's grid with the workload seed."""
    from elastislab import cli

    return cli.main(["checks", "--grid", spec["grid"], "--seed", str(seed),
                     "--out", str(out)])


def run_steps(spec, seed, out: Path) -> int:
    """Library loop: prepare a seeded curved state, then step at half the
    stable step with no diagnostics."""
    import numpy as np
    import elastislab

    n1, n2, nz = (int(d) for d in spec["grid"].split("x"))
    f0 = band_limited(np.random.default_rng(seed), n1, n2, spec["kmax"],
                      spec["amplitude"])
    y = np.linspace(-1.0, 0.0, nz)
    u0 = np.zeros((3, n1, n2, nz))
    F0 = np.zeros((3, 3, n1, n2, nz))
    F0[0, 0] = 1.0
    F0[1, 1] = 1.0
    F0[0, 1] = spec["shear"] * (1.0 + y)  # horizontal shear growing upwards
    state, info = elastislab.prepare_initial_data(f0, u0, F0, eps=spec["eps"])
    dt = 0.5 * elastislab.stable_dt(state)
    for _ in range(spec["steps"]):
        state, _ = elastislab.step(state, dt)
    finite = all(bool(np.all(np.isfinite(a))) for a in (state.f, state.u, state.F))
    summary = {
        "threshold": elastislab.dynamics.REPROJECT_THRESHOLD,
        "t": state.t,
        "dt": dt,
        "steps": spec["steps"],
        "finite": finite,
        "prepared": info["after"],
        "final": elastislab.invariant_report(state),
    }
    (out / "state.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0


BODIES = {"run": run_cli, "checks": run_checks, "steps": run_steps}


def phases(spans, kind):
    """Set-up end, step durations and output durations from the spans.

    Steps and outputs are those called by the workload itself (parent is
    the root or a cli function), not the ones nested inside a step.  An
    output runs from such a pressure assembly to the end of the next
    diagnostic row: pressure, stability report, energy and invariants.
    """
    def top(parent):
        return parent == 0 or spans[parent][1].startswith("cli.")

    setup_end = None
    steps, outputs = [], []
    open_output = None
    for parent, name, start, end in spans[1:]:
        if setup_end is None:
            if kind == "run" and name == "cli.build_scenario":
                setup_end = end
            elif kind == "steps" and name == "dynamics.prepare_initial_data":
                setup_end = end
            elif kind == "checks" and name == "cli.run_checks":
                setup_end = start
        if name == "dynamics.step" and top(parent):
            steps.append(end - start)
        elif name == "dynamics.assemble_pressure" and top(parent):
            open_output = start
        elif name == "stability.diagnostic_row" and open_output is not None:
            outputs.append(end - open_output)
            open_output = None
    return setup_end, steps, outputs


def layer_metrics(rec: tracer.Recorder) -> dict:
    """Per-layer figures and deterministic counters of a traced run."""
    summ = tracer.summarize(rec.spans)
    funcs = summ["functions"]

    def calls(name):
        return funcs.get(name, {}).get("calls", 0)

    def busy(name):
        return funcs.get(name, {}).get("s", 0.0)

    solves = calls("elliptic.solve_weak")
    steps = calls("dynamics.step")
    counters = {f"{name}.calls": f["calls"] for name, f in funcs.items()}
    counters.update({
        "elliptic.pcg_iters": rec.pcg_iters,
        "dn.inner_solves": summ["dn_inner_solves"],
        "dynamics.steps_reprojected": rec.steps_reprojected,
    })
    return {
        "counters": counters,
        "functions": funcs,
        "layers": summ["layers"],
        "root_s": summ["root_s"],
        "cli.self_s": summ["uncovered_s"],
        "elliptic.iters_per_solve": rec.pcg_iters / solves if solves else 0.0,
        "elliptic.s_per_iter": (busy("elliptic.solve_weak") / rec.pcg_iters
                                if rec.pcg_iters else 0.0),
        "dynamics.reprojections": rec.steps_reprojected / steps if steps else 0.0,
    }


def provenance() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "memory"),
                    default="plain")
    args = ap.parse_args()
    spec = json.loads(args.spec)
    args.out.mkdir(parents=True, exist_ok=True)

    import elastislab.cli  # noqa: F401  (loads every layer before patching)

    traced = args.mode != "plain"
    rec = tracer.Recorder(memory_peak=args.mode == "memory")
    functions = tracer.layer_functions() if traced else tracer.PHASE_FUNCTIONS
    rc, error = 1, None
    with rec.patched(functions, fft=traced), rec.root():
        try:
            rc = BODIES[spec["kind"]](spec, args.seed, args.out)
        except Exception:  # recorded; run.py counts the run as failed
            error = traceback.format_exc()
            sys.stderr.write(error)
    t_end = time.monotonic()
    setup_end, steps, outputs = phases(rec.spans, spec["kind"])
    result = {
        "rc": rc,
        "error": error,
        "wall_s": t_end - args.t0,
        "setup_s": (None if setup_end is None
                    else setup_end + _CLOCK_OFFSET - args.t0),
        "step_s": steps,
        "output_s": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "provenance": provenance(),
        "wrapped": rec.wrapped,
    }
    if args.mode == "memory":
        result["energy_peak_mb"] = rec.energy_peak_bytes / 2 ** 20
    if traced:
        result["trace"] = layer_metrics(rec)
        with open(args.out / "spans.json", "w") as fh:
            json.dump(rec.spans, fh, separators=(",", ":"))
    with open(args.out / "child.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return 0 if rc == 0 and error is None else 1


if __name__ == "__main__":
    sys.exit(main())
