"""Tiny-grid self-test of the benchmark.

    python3 benchmark/selftest.py

Checks that design.json and BENCHMARK.json agree without repeating each
other, that the tracer restores every binding it patches, also when the
workload raises, that a metric of a function the run did not wrap is an
error rather than a zero, and that a traced and an untraced measurement of each
workload, shrunk to an 8x8x9 grid (12x12x13 for checks, whose
resolution-scaled tolerances fail coarser), print every metric that
BENCHMARK.json and design.json name, with their outputs verified.  Takes
about a minute; exits 0 on success.  The shrunk runs have no stored
diagnostics reference, so their verification skips that comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

import run  # sets the BLAS thread variables before numpy is imported

sys.path.insert(0, str(run.SRC))

import numpy.fft  # noqa: E402

import child  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "run-mixed": {"kind": "run", "operations": 3, "config": {
        "scenario": "mixed-regions", "grid": "8x8x9", "c0": 0.0,
        "t_final": 0.0125, "output_interval": 0.0125}},
    "steps-curved": {"kind": "steps", "grid": "8x8x9", "kmax": 2,
                     "amplitude": 0.1, "eps": 0.01, "shear": 0.1, "steps": 1,
                     "operations": 1},
    "run-elastic": {"kind": "run", "operations": 4, "config": {
        "scenario": "elastic-mode", "grid": "8x8x9", "t_final": 0.5,
        "output_interval": 0.25}},
    "checks": {"kind": "checks", "grid": "12x12x13", "operations": 16},
}


def expect(condition, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def bindings() -> dict:
    """Every attribute of every package module, and the numpy transforms."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == tracer.PACKAGE or key.startswith(tracer.PACKAGE + "."):
            for name, value in vars(module).items():
                out[(key, name)] = value
    for name in tracer.FFT_FUNCTIONS:
        out[("numpy.fft", name)] = getattr(numpy.fft, name)
    return out


def check_restore() -> None:
    import elastislab.cli  # noqa: F401
    import elastislab.dynamics as dyn

    before = bindings()
    rec = tracer.Recorder(memory_peak=True)
    out = run.OUT / "selftest-restore"
    out.mkdir(parents=True, exist_ok=True)
    with rec.patched(tracer.layer_functions() + [("dynamics", "no_such_function")],
                     fft=True), rec.root():
        expect(dyn.solve_weak is not before[("elastislab.dynamics", "solve_weak")]
               and numpy.fft.rfft2 is not before[("numpy.fft", "rfft2")],
               "patching replaced nothing")
        child.run_steps(TINY["steps-curved"], 0, out)
    expect(rec.pcg_iters > 0 and len(rec.spans) > 1, "nothing was recorded")
    expect("dynamics.no_such_function" not in rec.wrapped
           and "elliptic.solve_weak" in rec.wrapped and tracer.FFT_SPAN in rec.wrapped,
           f"wrapped names wrong: {rec.wrapped}")
    try:
        with rec.patched(tracer.layer_functions(), fft=True):
            raise RuntimeError("workload failed")
    except RuntimeError:
        pass
    after = bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    expect(not changed, f"bindings not restored: {changed[:5]}")
    expect(set(after) == set(before), "patching added or removed attributes")
    print(f"restore: {len(before)} bindings unchanged after two patched runs")


def check_design(design, bench_json) -> None:
    """Each workload and metric is named in both files; its unit is given
    in exactly one of them."""
    expect(set(design["workloads"]) == {w["name"] for w in bench_json["workloads"]},
           "design.json and BENCHMARK.json name different workloads")
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"] for m in bench_json[kind]}
        expect(listed <= set(design[kind]),
               f"{kind}: no design.json entry for {sorted(listed - set(design[kind]))}")
        twice = [n for n, e in design[kind].items() if ("unit" in e) == (n in listed)]
        expect(not twice, f"{kind}: unit missing or given twice for {twice}")
    print("design: design.json and BENCHMARK.json agree")


def check_unwrapped() -> None:
    """Only a wrapped function may read 0; any other metric raises."""
    trace = {"wrapped": ["elliptic.apply_operator", "dynamics.step"],
             "counters": {}, "layers": {"elliptic": {"s": 1.0, "self_s": 0.5}},
             "functions": {}}
    expect(run.layer_value("elliptic.apply_operator.calls", trace) == 0,
           "a wrapped, uncalled function does not read 0")
    for name in ("elliptic.solve_weak.s", "elliptic.pcg_iters", "dn.inner_solves",
                 "spectral.fft_calls", "dynamics.reproject.s", "dn.self_s"):
        try:
            run.layer_value(name, trace)
        except run.MetricError:
            continue
        raise AssertionError(f"{name} read a value although nothing it needs was wrapped")
    print("unwrapped: metrics of unwrapped functions raise")


def check_metrics(design, bench_json) -> None:
    for workload, spec in TINY.items():
        for trace in (0, 1):
            args = argparse.Namespace(workload=f"selftest-{workload}", seed=0,
                                      seconds=0.0, trace=trace)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = run.measure(args, design, bench_json, spec)
            text = buf.getvalue()
            expect(rc == 0, f"{workload} trace {trace}: exit {rc}\n{text}")
            result = json.loads(text.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            key = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in bench_json[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: metrics {sorted(got)}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()), "non-numeric value")
            expect(result["correct"] and result["attempted"] >= 1 and not result["failed"],
                   f"{workload} trace {trace}: outputs failed verification\n{text}")
            table = design["per_layer"] if trace else design["end_to_end"]
            missing = [name for name in table if f"  {name} " not in text]
            expect(not missing, f"{workload} trace {trace}: not printed {missing}")
            print(f"metrics: {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")


def main() -> int:
    design = json.loads((run.BENCH / "design.json").read_text())
    bench_json = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_design(design, bench_json)
    check_unwrapped()
    check_restore()
    check_metrics(design, bench_json)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
