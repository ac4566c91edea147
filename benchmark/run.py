"""elastislab benchmark runner.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/elastislab`` next to this
directory).  The runner is one process with no worker threads; it runs
the workload again and again, each time in a fresh child process
(child.py), until another run would not fit in S seconds (at least three
runs).  Each child's artifacts are verified here.
With ``--trace 0`` every child is untraced and the end-to-end metrics
are medians over the children.  With ``--trace 1`` the first child is a
memory run: traced, with the allocation peak of the energy call taken
under tracemalloc, so its times are not used.  Then untraced and traced
children alternate.  Counts must repeat exactly across the memory and
traced children, per-layer times are medians over the traced ones, and
the tracing overhead is the difference of traced and untraced wall
times.

BENCHMARK.json names the workloads, why each was chosen, and the metrics
of the result line with their units.  design.json holds the rest: each
workload's inputs, the metrics printed but kept out of the result line
(with their units), which end-to-end metric each per-layer metric should
move on which workload, the verification rules and the baseline.
Human-readable tables go to stdout; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Everything the runs write goes under ``.bench_out/``.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before any child imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_RUNS = 3            # children per measurement, at the least: with
                        # tracing, memory, untraced and traced
STOP_STARTING_S = 140   # no new child after this, whatever --seconds says
CHILD_LIMIT_S = 170     # a child still running at this point is killed

# diagnostics.csv against its stored reference: |got - ref| <= RTOL |ref| + ATOL.
# ATOL leaves room on the near-zero columns for what a different but
# converged solver path may change (solves stop at 1e-10 relative); RTOL
# holds the energies to six digits.
RTOL, ATOL = 1e-6, 1e-8


# ---------------------------------------------------------------------------
# children


def spawn(spec, seed, out: Path, mode: str, timeout: float):
    """Run one child to completion; returns (exit code, child.json or None)."""
    out.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), "--spec", json.dumps(spec),
           "--seed", str(seed), "--out", str(out), "--t0", repr(t0),
           "--mode", mode]
    with open(out / "child.log", "w") as log:
        try:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT, timeout=timeout).returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return -9, None
    try:
        return rc, json.loads((out / "child.json").read_text())
    except (OSError, ValueError):
        return rc, None


# ---------------------------------------------------------------------------
# output verification; each returns a problem, or None when the output holds


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def verify_run(spec, out: Path, _peers):
    result = json.loads((out / "result.json").read_text())
    if result["reason"] != "completed":
        return f"reason {result['reason']!r}"
    header, rows = _read_csv(out / "diagnostics.csv")
    if not all(math.isfinite(v) for row in rows for v in row):
        return "non-finite value in diagnostics.csv"
    if "max_rel_error" in spec and \
            not result.get("rel_error", math.inf) <= spec["max_rel_error"]:
        return f"rel_error {result.get('rel_error')} above {spec['max_rel_error']}"
    ref = spec.get("reference")
    if ref is None:
        return None
    if header != ref["header"] or len(rows) != len(ref["rows"]) \
            or result["steps"] != ref["steps"]:
        return "diagnostics shape or step count differs from the reference"
    for row, want in zip(rows, ref["rows"]):
        for col, got, exp in zip(header, row, want):
            if abs(got - exp) > RTOL * abs(exp) + ATOL:
                return f"{col} at t={row[0]:.4f}: {got!r} vs reference {exp!r}"
    return None


def verify_steps(spec, out: Path, _peers):
    state = json.loads((out / "state.json").read_text())
    if not state["finite"]:
        return "non-finite final state"
    final, limit = state["final"], state["threshold"]
    for key in ("div_u", "div_F", "f_mean"):
        if not final[key] <= limit:
            return f"final {key} {final[key]:.3e} above {limit:.1e}"
    # on a curved map the pointwise interface-trace defect plateaus at the
    # discretisation's consistency order, above the threshold; it must
    # not grow from the prepared state's plateau
    plateau = max(limit, 2.0 * state["prepared"]["trace_F"])
    if not final["trace_F"] <= plateau:
        return f"final trace_F {final['trace_F']:.3e} above {plateau:.3e}"
    return None


def verify_checks(spec, out: Path, peers):
    raw = (out / "checks.json").read_bytes()
    report = json.loads(raw)
    if len(report["checks"]) != spec["operations"] or not report["all_pass"]:
        return f"{report['passed']}/{len(report['checks'])} checks passed"
    for other in peers:
        if (other / "checks.json").read_bytes() != raw:
            return f"checks.json differs from {other.name} (same seed)"
    return None


VERIFY = {"run": verify_run, "steps": verify_steps, "checks": verify_checks}


def judge(spec, out: Path, rc: int, child, peers):
    """(failed operations, problem or None) for one child.

    An operation is one step, one output or one check; spec["operations"]
    is how many one run makes.  A child that raised or exited non-zero
    fails the operations it did not complete (checks report none before
    the end); one whose artifacts fail verification fails all of them.
    """
    planned = spec["operations"]
    if rc != 0 or child is None or child["error"]:
        done = 0 if child is None or spec["kind"] == "checks" else \
            len(child["step_s"]) + len(child["output_s"])
        return max(planned - done, 1), f"child exit code {rc}"
    try:
        problem = VERIFY[spec["kind"]](spec, out, peers)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problem = f"artifacts unreadable: {exc!r}"
    return (planned if problem else 0), problem


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(children) -> dict:
    return {
        "wall_s": _median([c["wall_s"] for c in children]),
        "setup_s": _median([c["setup_s"] for c in children]),
        "step_s": _median([s for c in children for s in c["step_s"]]),
        "output_s": _median([s for c in children for s in c["output_s"]]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in children]),
    }


ALIASES = {
    "spectral.fft_calls": "spectral.fft.calls",
    "spectral.fft_s": "spectral.fft.s",
    "dynamics.reproject.s": "dynamics._reproject.s",
}

# Spans a derived metric is computed from; any other metric is
# "<function>.<field>" or "<layer>.<field>" and needs that function, or
# some function of that layer, to have been wrapped.
SOURCES = {
    "cli.self_s": (),
    "elliptic.pcg_iters": ("elliptic.solve_weak",),
    "elliptic.iters_per_solve": ("elliptic.solve_weak",),
    "elliptic.s_per_iter": ("elliptic.solve_weak",),
    "dn.inner_solves": ("elliptic.solve_weak", "dn"),
    "dynamics.reprojections": ("dynamics.step",),
    "stability.energy_peak_mb": ("stability.energy_es_eps",),
}


class MetricError(Exception):
    """A metric whose function or layer the run did not instrument."""


def require_wrapped(name: str, wrapped) -> None:
    """Raise unless every span the metric is read from was wrapped, so a
    renamed or dropped function cannot read as a zero."""
    base = ALIASES.get(name, name).rpartition(".")[0]
    sources = SOURCES.get(name, (base,))
    missing = [src for src in sources
               if not any(w == src or w.startswith(src + ".") for w in wrapped)]
    if missing:
        raise MetricError(f"{name}: {', '.join(missing)} not instrumented")


def layer_value(name: str, trace: dict):
    """A per-layer metric from one traced child's summary.  A function
    that was wrapped but never called reads 0."""
    require_wrapped(name, trace["wrapped"])
    if name in trace:
        return trace[name]
    name = ALIASES.get(name, name)
    if name in trace["counters"]:
        return trace["counters"][name]
    base, _, field = name.rpartition(".")
    if base in trace["layers"]:
        return trace["layers"][base][field]
    if field == "calls":
        return 0
    return trace["functions"].get(base, {}).get(field, 0.0)


def per_layer(names, traced, memory) -> dict:
    """Counts from the first traced child, times as medians over all; the
    energy allocation peak from the memory child."""
    out = {}
    for name in names:
        if name == "stability.energy_peak_mb":
            require_wrapped(name, memory["wrapped"])
            out[name] = memory["energy_peak_mb"]
            continue
        values = [layer_value(name, dict(c["trace"], wrapped=c["wrapped"]))
                  for c in traced]
        out[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
    return out


def metric_units(design, bench_json, kind: str) -> dict:
    """Name -> unit of every metric design.json lists under kind, in its
    order; units of the result-line metrics come from BENCHMARK.json."""
    units = {m["name"]: m["unit"] for m in bench_json[kind]}
    return {name: entry.get("unit", units.get(name))
            for name, entry in design[kind].items()}


def counter_mismatches(traced) -> list:
    first = traced[0]["trace"]["counters"]
    bad = []
    for other in traced[1:]:
        counters = other["trace"]["counters"]
        for key in sorted(set(first) | set(counters)):
            if first.get(key) != counters.get(key):
                bad.append(f"{key}: {first.get(key)} vs {counters.get(key)}")
    return bad


# ---------------------------------------------------------------------------
# provenance


def provenance(children) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _git_head(),
        "src_sha256": digest.hexdigest()[:16],
    }
    info.update(next((c["provenance"] for c in children if c), {}))
    return info


def _git_head():
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# reporting


def _fmt(value, unit):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return f"{value} {unit}"
    return f"{value:.6g} {unit}"


def print_layers(units, metrics, traced):
    """Every per-layer metric of design.json, those outside BENCHMARK.json
    included, then the layer shares and the largest self times."""
    trace = traced[0]["trace"]
    print(f"per-layer metrics (counts from one traced run, times median of "
          f"{len(traced)}):")
    for name, unit in units.items():
        value = metrics[name]
        note = "  (not exercised by this workload)" if value == 0 else ""
        print(f"  {name:36s} {_fmt(value, unit):>20s}{note}")
    root = trace["root_s"]
    print("layer busy (self) time as share of the traced run: " + ", ".join(
        f"{layer} {100 * v['s'] / root:.0f}% ({100 * v['self_s'] / root:.0f}%)"
        for layer, v in trace["layers"].items()))
    stepping = trace["functions"].get("dynamics.step", {}).get("s", 0.0)
    if stepping:
        print("layer busy time as share of stepping (dynamics.step): " + ", ".join(
            f"{layer} {100 * v['in_step_s'] / stepping:.0f}%"
            for layer, v in trace["layers"].items() if layer != "dynamics"))
    top = sorted(trace["functions"].items(), key=lambda kv: -kv[1]["self_s"])[:5]
    print("largest self times: " + ", ".join(
        f"{name} {f['self_s']:.3f} s" for name, f in top))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "elastislab" / "__init__.py").is_file():
        print(f"benchmark: no elastislab sources under {SRC}", file=sys.stderr)
        return 2
    design = json.loads((BENCH / "design.json").read_text())
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in design["workloads"]:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(design['workloads'])}", file=sys.stderr)
        return 2
    spec = dict(design["workloads"][args.workload]["inputs"])
    if "reference" in spec:
        spec["reference"] = json.loads((BENCH / spec["reference"]).read_text())
    try:
        return measure(args, design, bench_json, spec)
    except MetricError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1


def child_mode(index: int, trace: int) -> str:
    """plain only; or, traced, one memory run and then plain and traced
    in turn."""
    if not trace:
        return "plain"
    if index == 0:
        return "memory"
    return "plain" if index % 2 else "traced"


def measure(args, design, bench_json, spec) -> int:
    """Run the children, verify them, print the tables and the result line."""
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    start = time.monotonic()
    runs = []  # (mode, exit code, child.json, out dir)
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed + longest > args.seconds:
            break
        if elapsed > STOP_STARTING_S:
            break
        mode = child_mode(len(runs), args.trace)
        out = workdir / f"run{len(runs):02d}"
        began = time.monotonic()
        rc, child = spawn(spec, args.seed, out, mode,
                          max(10.0, CHILD_LIMIT_S - elapsed))
        longest = max(longest, time.monotonic() - began)
        runs.append((mode, rc, child, out))

    attempted, failed = spec["operations"] * len(runs), 0
    problems = []
    for i, (_, rc, child, out) in enumerate(runs):
        peers = [r[3] for r in runs[:i] if r[1] == 0]
        f, problem = judge(spec, out, rc, child, peers)
        failed += f
        if problem:
            problems.append(f"{out.name}: {problem}")

    done = [r for r in runs if r[1] == 0 and r[2] is not None]
    untraced = [r[2] for r in done if r[0] == "plain"]
    traced = [r[2] for r in done if r[0] == "traced"]
    memory = next((r[2] for r in done if r[0] == "memory"), None)
    e2e = end_to_end(untraced)
    prov = provenance([r[2] for r in runs])
    modes = [r[0] for r in runs]
    print(f"elastislab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(runs)} runs ({modes.count('traced')} traced, "
          f"{modes.count('memory')} memory) in {time.monotonic() - start:.1f} s")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"end-to-end metrics (median of {len(untraced)} untraced runs):")
    for name, unit in metric_units(design, bench_json, "end_to_end").items():
        value = e2e.get(name)
        if name == "error_rate":
            value = failed / attempted if attempted else None
        print(f"  {name:14s} {_fmt(value, unit)}")
    print(f"verification: {attempted - failed}/{attempted} operations passed")
    for problem in problems:
        print(f"  FAILED {problem}")

    correct = not problems and bool(untraced)
    if args.trace:
        if not traced or memory is None or e2e["wall_s"] is None:
            print("benchmark: a traced, memory or untraced run did not complete",
                  file=sys.stderr)
            return 1
        printed = metric_units(design, bench_json, "per_layer")
        metrics = per_layer([n for n in printed if n != "trace.overhead_s"],
                            traced, memory)
        metrics["trace.overhead_s"] = (
            _median([c["wall_s"] for c in traced]) - e2e["wall_s"])
        print_layers(printed, metrics, traced)
        print(f"tracing overhead: {metrics['trace.overhead_s']:+.3f} s of wall time")
        bad = counter_mismatches([memory] + traced)
        if bad:
            correct = False
            print("FLAGGED: deterministic counters differ between traced runs "
                  "of one seed: " + "; ".join(bad[:10]))
        else:
            print(f"deterministic counters repeat exactly across {len(traced) + 1} "
                  "traced runs, the memory run included")
        units = {m["name"]: m["unit"] for m in bench_json["per_layer"]}
    else:
        units = {m["name"]: m["unit"] for m in bench_json["end_to_end"]}
        metrics = {name: e2e[name] for name in units}
    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        print(f"benchmark: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": prov,
        "end_to_end": e2e,
        "error_rate": failed / attempted if attempted else None,
        "problems": problems,
        "metrics": metrics,
        "runs": [{"mode": r[0], "rc": r[1], "dir": r[3].name, "child": r[2]}
                 for r in runs],
    }
    (workdir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
