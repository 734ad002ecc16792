"""Outside-in tracer: spans around calls into the package's layers.

Nothing in the package is edited.  ``install_fft`` wraps ``numpy.fft`` before
the package is imported; ``install_package`` then replaces, in every
``fracnls.*`` module, each attribute that *is* a target function object, so
aliases such as ``from .energy import gradient_I`` or ``rearrange as
_rearrange`` are traced too.  Methods are wrapped on their class.

A span records its layer, its parent span, the operation it belongs to, and
its start and end; spans live in flat arrays until ``write`` saves them.  A
span's self time is its duration minus the durations of its direct children,
which never overlap because the program is single threaded.
"""

from __future__ import annotations

import gzip
import importlib
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Optional

SETUP_OP = -1  # spans made while building problems
WARMUP_OP = -2

FFT_NAMES = ("fft", "ifft", "rfft", "irfft")

# layer, module, attribute path, what to keep from the return value
SPAN_TARGETS = (
    ("energy.gradient_I", "fracnls.energy", "gradient_I", None),
    ("energy.weak_residual_norm", "fracnls.energy", "weak_residual_norm", None),
    ("energy.evaluate_I", "fracnls.energy", "evaluate_I", None),
    ("spaces.inner_product_X", "fracnls.spaces", "inner_product_X", None),
    ("nehari.nehari_project", "fracnls.nehari", "nehari_project", lambda r: r.iterations),
    ("nehari.level_c_infinity", "fracnls.nehari", "level_c_infinity", None),
    ("solver.ground_state", "fracnls.solver", "ground_state", lambda r: r.iterations),
    ("problem.Nonlinearity.F", "fracnls.problem", "Nonlinearity.F", None),
    ("problem.Nonlinearity.f", "fracnls.problem", "Nonlinearity.f", None),
    ("problem.make_problem", "fracnls.problem", "make_problem", None),
    ("problem.problem_from_config", "fracnls.problem", "problem_from_config", None),
    ("cli.main", "fracnls.cli", "main", None),
    ("rearrange.rearrange", "fracnls.rearrange", "rearrange", None),
)
# boundaries crossed so often that only a count is kept
COUNT_TARGETS = (
    ("grid.Field", "fracnls.grid", "Field.__init__"),
)

# name, unit, better, and which end-to-end metric on which workload it should move
PER_LAYER = (
    ("grid.fft.calls_per_iter", "calls/iter", "lower", "wall_s on well_gap; little on custom_nl, cli_sweep"),
    ("grid.fft.us", "us", "lower", "wall_s on well_gap; little on custom_nl, cli_sweep"),
    ("grid.Field.constructs_per_iter", "calls/iter", "lower", "wall_s on cli_sweep"),
    ("energy.gradient_I.calls_per_iter", "calls/iter", "lower", "wall_s on well_gap"),
    ("energy.gradient_I.us", "us", "lower", "wall_s on well_gap"),
    ("energy.weak_residual_norm.us", "us", "lower", "wall_s on well_gap"),
    ("energy.evaluate_I.us", "us", "lower", "wall_s on well_gap"),
    ("spaces.inner_product_X.calls_per_iter", "calls/iter", "lower", "wall_s on well_gap"),
    ("nehari.nehari_project.calls_per_iter", "calls/iter", "lower", "wall_s on well_gap; unchanged on custom_nl"),
    ("nehari.nehari_project.us", "us", "lower", "wall_s on well_gap; unchanged on custom_nl"),
    ("nehari.mismatch_evals_per_project", "evals/call", "lower", "wall_s on well_gap; unchanged on custom_nl"),
    ("nehari.accept_ratio", "ratio", "higher", "wall_s on well_gap, custom_nl"),
    ("solver.ground_state.iterations", "iters/solve", "lower", "wall_s on well_gap, then cli_sweep"),
    ("nehari.level_c_infinity.s", "s", "lower", "wall_s on well_gap, then cli_sweep"),
    ("solver.ground_state.self_us_per_iter", "us/iter", "lower", "wall_s on cli_sweep"),
    ("problem.Nonlinearity.F.us", "us", "lower", "wall_s on custom_nl"),
    ("problem.Nonlinearity.f.us", "us", "lower", "wall_s on custom_nl"),
    ("problem.make_problem.s", "s", "lower", "setup_s on all; wall_s on cli_sweep"),
    ("problem.problem_from_config.s", "s", "lower", "setup_s on all; wall_s on cli_sweep"),
    ("import.scipy_optimize.s", "s", "lower", "setup_s on all; wall_s on cli_sweep"),
    ("cli.main.self_s", "s", "lower", "wall_s on cli_sweep"),
    ("rearrange.rearrange.us", "us", "lower", "wall_s on all (one call per solve)"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced median round time"),
)

# metric -> the layers it needs; a metric is absent when one of them is
_NEEDS = {
    "grid.Field.constructs_per_iter": ("grid.Field",),
    "nehari.mismatch_evals_per_project": ("nehari.nehari_project",),
    "nehari.accept_ratio": ("nehari.nehari_project", "solver.ground_state"),
    "solver.ground_state.self_us_per_iter": ("solver.ground_state",),
    "cli.main.self_s": ("cli.main",),
}
# every traced layer, for telling "not called" from "absent"
LAYERS = ("grid.fft", *(t[0] for t in SPAN_TARGETS), *(t[0] for t in COUNT_TARGETS))
_PER_ITER = ("grid.fft", "energy.gradient_I", "spaces.inner_product_X", "nehari.nehari_project")


class Tracer:
    def __init__(self) -> None:
        self.layers: list = []
        self._layer_ids: dict = {}
        self.parent = array("q")
        self.op = array("q")
        self.layer = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: Counter = Counter()
        self.returns = defaultdict(list)  # layer -> [(op, kept value)]
        self.current_op = SETUP_OP
        self.absent: list = []
        self._stack: list = []

    def set_op(self, op: int) -> None:
        self.current_op = op

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def span(self, layer: str, fn: Callable, keep: Optional[Callable] = None) -> Callable:
        lid = self._layer_id(layer)
        parent, ops, lids, t0s, t1s = self.parent, self.op, self.layer, self.t0, self.t1
        stack, returns, clock = self._stack, self.returns[layer], time.perf_counter

        def traced(*args, **kwargs):
            sid = len(t0s)
            parent.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            lids.append(lid)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                t0s[sid] = start
                t1s[sid] = end
            if keep is not None:
                returns.append((self.current_op, keep(out)))
            return out

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__wrapped__ = fn
        return traced

    def counter(self, layer: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            if self.current_op >= 0:
                counts[layer] += 1
            return fn(*args, **kwargs)

        counted.__name__ = getattr(fn, "__name__", layer)
        counted.__wrapped__ = fn
        return counted

    def write(self, path) -> None:
        """Save the spans as gzipped CSV, times in microseconds from the first span."""
        base = self.t0[0] if len(self.t0) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,op,layer,start_us,end_us\n")
            for i in range(len(self.t0)):
                fh.write(f"{i},{self.parent[i]},{self.op[i]},{self.layers[self.layer[i]]},"
                         f"{(self.t0[i] - base) * 1e6:.3f},{(self.t1[i] - base) * 1e6:.3f}\n")


def install_fft(tracer: Tracer) -> None:
    """Wrap the numpy FFT entry points; call before the package is imported."""
    import numpy.fft as nfft

    for name in FFT_NAMES:
        setattr(nfft, name, tracer.span("grid.fft", getattr(nfft, name)))


def _resolve(module: str, path: str):
    """(owner, attribute, object) for a dotted path, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def install_package(tracer: Tracer, package: str = "fracnls") -> None:
    """Wrap every target after the package is imported; record the missing ones."""
    targets = [(layer, mod, path, keep, False) for layer, mod, path, keep in SPAN_TARGETS]
    targets += [(layer, mod, path, None, True) for layer, mod, path in COUNT_TARGETS]
    found = []
    for layer, mod, path, keep, count_only in targets:
        target = _resolve(mod, path)  # imports the module if the package has not
        if target is None:
            tracer.absent.append(layer)
        else:
            found.append((layer, keep, count_only, *target))
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    for layer, keep, count_only, owner, attr, orig in found:
        wrapper = tracer.counter(layer, orig) if count_only else tracer.span(layer, orig, keep)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, wrapper)


def scipy_optimize_import_s(env: dict) -> float:
    """Cumulative import time of ``scipy.optimize`` under ``import fracnls``,
    from ``-X importtime``; 0 when the package no longer imports it."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fracnls"],
                          env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import fracnls failed: {proc.stderr.strip()[-300:]}")
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
            return int(parts[1]) * 1e-6
    return 0.0


def layer_metrics(tracer: Tracer, extra: dict) -> tuple:
    """Every per-layer metric as name -> value, or None when its layer is
    absent; and the calls per layer made by the operations.

    Times are means per call over the operations' spans, except the set-up
    layers, which also count the spans made while building problems.  Ratios
    per iteration use the iterations of every ``ground_state`` call as base.
    """
    n = len(tracer.t0)
    dur = [tracer.t1[i] - tracer.t0[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    calls, total, self_total = Counter(), defaultdict(float), defaultdict(float)
    build_calls, build_total = Counter(), defaultdict(float)  # operations plus set-up
    for i in range(n):
        layer = tracer.layers[tracer.layer[i]]
        op = tracer.op[i]
        if op >= 0:
            calls[layer] += 1
            total[layer] += dur[i]
            self_total[layer] += dur[i] - child[i]
        if op >= 0 or op == SETUP_OP:
            build_calls[layer] += 1
            build_total[layer] += dur[i]

    def kept(layer):
        return [v for op, v in tracer.returns[layer] if op >= 0]

    iters = sum(kept("solver.ground_state"))

    def mean(layer, scale, table=total, count=calls):
        return table[layer] / count[layer] * scale if count[layer] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "grid.Field.constructs_per_iter": ratio(tracer.counts["grid.Field"], iters),
        "nehari.mismatch_evals_per_project": ratio(sum(kept("nehari.nehari_project")),
                                                   len(kept("nehari.nehari_project"))),
        "nehari.accept_ratio": ratio(iters, calls["nehari.nehari_project"]),
        "solver.ground_state.iterations": ratio(iters, calls["solver.ground_state"]),
        "solver.ground_state.self_us_per_iter":
            ratio(self_total["solver.ground_state"], iters) * 1e6,
        "problem.make_problem.s": mean("problem.make_problem", 1.0, build_total, build_calls),
        "problem.problem_from_config.s":
            mean("problem.problem_from_config", 1.0, build_total, build_calls),
        "nehari.level_c_infinity.s": mean("nehari.level_c_infinity", 1.0),
        "cli.main.self_s": mean("cli.main", 1.0, self_total),
    }
    for layer in _PER_ITER:
        values[f"{layer}.calls_per_iter"] = ratio(calls[layer], iters)
    for layer in ("grid.fft", "energy.gradient_I", "energy.weak_residual_norm",
                  "energy.evaluate_I", "nehari.nehari_project", "problem.Nonlinearity.F",
                  "problem.Nonlinearity.f", "rearrange.rearrange"):
        values[f"{layer}.us"] = mean(layer, 1e6)
    values.update(extra)

    out = {}
    for name, *_ in PER_LAYER:
        needs = _NEEDS.get(name, (name.rsplit(".", 1)[0],))
        out[name] = None if any(layer in tracer.absent for layer in needs) else values[name]
    for layer in ("problem.make_problem", "problem.problem_from_config"):
        calls[layer] = build_calls[layer]
    return out, calls + tracer.counts
