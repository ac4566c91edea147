"""Span recorder that instruments the elastislab package from outside.

The recorder wraps module-level functions of the package (and the 2-D
transforms of ``numpy.fft``) and records one span per call: name,
parent span, start and end.  A function bound into other modules with
``from .x import name`` is replaced in every module that holds it, so
calls through any binding are seen.  ``patched`` restores every
original on exit, also when the workload raises.

Spans stay in memory as lists ``[parent, name, start, end]``; the span
id is the list index.  ``summarize`` turns them into per-function and
per-layer counts and times after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import tracemalloc

PACKAGE = "elastislab"
LAYERS = ("spectral", "geometry", "elliptic", "dn", "dynamics", "stability",
          "cli")
FFT_FUNCTIONS = ("fft2", "ifft2", "rfft2", "irfft2")
FFT_SPAN = "spectral.fft"
ROOT = "workload"

# The energy call whose allocation peak a memory run measures, with
# tracemalloc on; tracemalloc slows every allocation, so no time is taken
# from such a run.  Its counts are used.
MEMORY_SPAN = "stability.energy_es_eps"

# Traced besides each layer's __all__: the energy ladder, which its module
# does not export, and the step's reprojection phase (residual checks, plus
# the projections when they fire), which has no public name.
EXTRA = {"stability": ("bulk_hs_norm2",), "dynamics": ("_reproject",)}

# Functions whose spans give the end-to-end phases (set-up, steps, outputs);
# they are wrapped in untraced runs too, at a cost of a few microseconds per
# call on functions that each run for milliseconds or longer.
PHASE_FUNCTIONS = (
    ("cli", "build_scenario"),
    ("cli", "run_checks"),
    ("dynamics", "prepare_initial_data"),
    ("dynamics", "step"),
    ("dynamics", "assemble_pressure"),
    ("stability", "diagnostic_row"),
)


def layer_functions() -> list:
    """(layer, name) for every function in a layer's __all__, plus EXTRA."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((layer, name))
        out.extend((layer, name) for name in EXTRA.get(layer, ()))
    return out


class Recorder:
    """In-memory span store plus the counters read from return values."""

    def __init__(self, memory_peak: bool = False):
        self.spans = [[-1, ROOT, 0.0, 0.0]]
        self._stack = [0]
        self.pcg_iters = 0
        self.steps_reprojected = 0
        self.energy_peak_bytes = 0
        # tracemalloc peak inside each energy call (memory runs only)
        self.memory_peak = memory_peak
        # span names of the functions actually wrapped by patched()
        self.wrapped = []

    def _wrap(self, span_name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = None
        if span_name == "elliptic.solve_weak":
            def on_result(result):
                self.pcg_iters += int(result[1]["iterations"])
        elif span_name == "dynamics.step":
            def on_result(result):
                if any(result[1]["reprojected"].values()):
                    self.steps_reprojected += 1
        measure_memory = self.memory_peak and span_name == MEMORY_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            record = [stack[-1], span_name, 0.0, 0.0]
            spans.append(record)
            stack.append(sid)
            if measure_memory:
                tracemalloc.start()
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.energy_peak_bytes = max(self.energy_peak_bytes, peak)
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self):
        """The workload span; every other span descends from it."""
        self.spans[0][2] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[0][3] = time.perf_counter()

    @contextlib.contextmanager
    def patched(self, functions, fft: bool):
        """Wrap each (layer, name) and, with fft=True, the numpy 2-D
        transforms; restore every original binding on exit.  A name the
        layer no longer defines is skipped and so missing from
        ``self.wrapped``."""
        import numpy.fft

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        undo = []
        try:
            for layer, name in functions:
                owner = importlib.import_module(f"{PACKAGE}.{layer}")
                original = getattr(owner, name, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                self.wrapped.append(f"{layer}.{name}")
                for module in modules:
                    for key in [k for k, v in vars(module).items() if v is original]:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
            if fft:
                for name in FFT_FUNCTIONS:
                    original = getattr(numpy.fft, name)
                    setattr(numpy.fft, name, self._wrap(FFT_SPAN, original))
                    undo.append((numpy.fft, name, original))
                self.wrapped.append(FFT_SPAN)
            yield
        finally:
            for module, key, original in reversed(undo):
                setattr(module, key, original)


def summarize(spans) -> dict:
    """Per-function and per-layer figures from a finished span list.

    For each span name: calls, busy time ``s`` (outermost spans of that
    name only, so recursion is not counted twice) and self time
    ``self_s`` (duration minus the time covered by child spans).  For each
    layer: busy time (outermost spans of the layer), self time, and
    ``in_step_s``, its busy time inside ``dynamics.step`` spans.
    ``uncovered_s`` is the root's time not covered by any span of a
    library layer, that is of any layer but cli.
    """
    n = len(spans)
    child_time = [0.0] * n
    for parent, _, start, end in spans[1:]:
        child_time[parent] += end - start
    name_bit: dict = {}
    layer_bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    library = sum(bit for layer, bit in layer_bit.items() if layer != "cli")
    funcs: dict = {}
    layers = {layer: {"s": 0.0, "self_s": 0.0, "in_step_s": 0.0} for layer in LAYERS}
    library_cover = 0.0
    dn_solves = 0
    # bit masks of the names and layers above each span; parents are
    # created before their children, so one pass in id order suffices
    above_names = [0] * n
    above_layers = [0] * n
    own_name = [0] * n
    own_layer = [0] * n
    for sid in range(1, n):
        parent, name, start, end = spans[sid]
        dur = end - start
        layer = name.split(".", 1)[0]
        own_name[sid] = name_bit.setdefault(name, 1 << len(name_bit))
        own_layer[sid] = layer_bit.get(layer, 0)
        above_names[sid] = above_names[parent] | own_name[parent]
        above_layers[sid] = above_layers[parent] | own_layer[parent]
        entry = funcs.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += dur - child_time[sid]
        if not above_names[sid] & own_name[sid]:
            entry["s"] += dur
        if own_layer[sid]:
            layers[layer]["self_s"] += dur - child_time[sid]
            if not above_layers[sid] & own_layer[sid]:
                layers[layer]["s"] += dur
                if above_names[sid] & name_bit.get("dynamics.step", 0):
                    layers[layer]["in_step_s"] += dur
            if own_layer[sid] & library and not above_layers[sid] & library:
                library_cover += dur
        if name == "elliptic.solve_weak" and above_layers[sid] & layer_bit["dn"]:
            dn_solves += 1
    root = spans[0][3] - spans[0][2]
    return {
        "root_s": root,
        "uncovered_s": root - library_cover,
        "functions": funcs,
        "layers": layers,
        "dn_inner_solves": dn_solves,
    }
