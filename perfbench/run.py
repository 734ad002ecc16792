"""Benchmark of fracnls: end-to-end metrics, or per-layer metrics from a traced run.

From the root of a checkout:

    python3 perfbench/run.py --workload well_gap --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one summary table
    python3 perfbench/run.py --self-check          # layers present, traced == untraced

``--trace 0`` measures set-up in fresh interpreters, then repeats the
workload's round (every solve plus its output checks) until ``--seconds`` have
passed and at least three rounds are done, and reports ``wall_s`` (median
round), ``setup_s`` (median set-up) and ``peak_rss_mb``; ``fail_frac`` is
printed and carried by ``failed`` over ``attempted``.  ``--trace 1`` repeats
the round for half of ``--seconds`` untraced in a child process, then for the
other half traced here, and reports the per-layer metrics, the tracing
overhead, and whether every level came out bit for bit the same.  The last
line of standard output is the result as JSON.  The program is imported from
``src/`` of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
TIMED_MIN_ROUNDS = 3  # the fewest rounds a median of wall_s is taken over
CHILD_TIMEOUT_S = 170.0

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def check_source() -> None:
    if not (SRC / "fracnls" / "__init__.py").is_file():
        raise BenchError(f"no fracnls source under {SRC}; run from the root of a checkout")


def import_package():
    sys.path.insert(0, str(SRC))
    import fracnls

    if not Path(fracnls.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported fracnls from {fracnls.__file__}, not from {SRC}")
    return fracnls


def measure_setup(name: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"), name, str(seed)],
                              env=workloads.child_env(ROOT), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return times


def run_rounds(wl, seconds: float, mark, min_rounds: int) -> tuple:
    """Repeat the round until ``seconds`` have passed and ``min_rounds`` are done."""
    walls, rounds = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < max(min_rounds, wl.min_rounds) or time.perf_counter() < deadline:
        start = time.perf_counter()
        rounds.append(wl.run_round(mark))
        walls.append(time.perf_counter() - start)
    return walls, rounds


def _workload(name: str, seed: int, in_process: bool):
    return workloads.make(name, seed, ROOT, OUT / f"{name}-{seed}-{os.getpid()}", in_process)


def _print_ops(rounds) -> None:
    """Each distinct operation outcome once; rounds of one seed repeat exactly."""
    seen = set()
    for op in (op for ops in rounds for op in ops):
        if op.detail not in seen:
            seen.add(op.detail)
            print(f"    {'ok  ' if op.ok else 'FAIL'} {op.detail}")


def _result(rounds, metrics: dict, extra_ok: bool = True) -> dict:
    ops = [op for r in rounds for op in r]
    return {
        "correct": extra_ok and all(op.correct for op in ops),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": metrics,
    }


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    setup = measure_setup(name, seed)
    in_process = name != "cli_sweep"
    if in_process:
        import_package()
    wl = _workload(name, seed, in_process=False)
    try:
        wl.prepare()
        wl.warm_up()
        walls, rounds = run_rounds(wl, seconds, lambda: None, TIMED_MIN_ROUNDS)
    finally:
        wl.close()
    if in_process:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak = max(wl.child_rss_mb)
    result = _result(rounds, {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    })
    n_ops = result["attempted"]
    print(f"workload {name}, seed {seed}: {len(walls)} rounds, {n_ops} operations")
    print(f"  wall_s       {statistics.median(walls):.4f} s median, {max(walls):.4f} s max, "
          f"n={len(walls)} rounds (too few for a tail percentile): "
          f"{', '.join(f'{w:.3f}' for w in walls)}")
    print(f"  setup_s      {statistics.median(setup):.4f} s median of {len(setup)} fresh "
          f"interpreters ({', '.join(f'{t:.3f}' for t in setup)})")
    where = "sweep child" if not in_process else "this process"
    print(f"  peak_rss_mb  {peak:.1f} MB ({where})")
    print(f"  fail_frac    {result['failed'] / n_ops:.4f} ({result['failed']} of {n_ops} "
          f"operations failed), outputs correct: {result['correct']}")
    _print_ops(rounds)
    return result


def _levels(rounds) -> list:
    return [[list(op.levels) for op in ops] for ops in rounds]


def reference_rounds(name: str, seed: int, seconds: float, path: Path) -> None:
    """The untraced side of a traced run, in its own interpreter."""
    import_package()
    wl = _workload(name, seed, in_process=True)
    try:
        wl.prepare()
        wl.warm_up()
        walls, rounds = run_rounds(wl, seconds, lambda: None, 1)
    finally:
        wl.close()
    path.write_text(json.dumps({"walls": walls, "levels": _levels(rounds)}))


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """Half of ``seconds`` untraced in a child, half traced here."""
    OUT.mkdir(exist_ok=True)
    ref_path = OUT / f"reference-{name}-{seed}-{os.getpid()}.json"
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds / 2),
                           "--reference-rounds", str(ref_path)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"untraced reference round failed: {proc.stderr.strip()[-500:]}")
    reference = json.loads(ref_path.read_text())
    ref_path.unlink()
    scipy_s = tracing.scipy_optimize_import_s(workloads.child_env(ROOT))

    tracer = tracing.Tracer()
    tracing.install_fft(tracer)
    import_package()
    tracing.install_package(tracer)
    wl = _workload(name, seed, in_process=True)
    next_op = iter(range(1 << 30))
    try:
        wl.prepare()
        tracer.set_op(tracing.WARMUP_OP)
        wl.warm_up()
        walls, rounds = run_rounds(wl, seconds / 2, lambda: tracer.set_op(next(next_op)), 1)
    finally:
        wl.close()

    first = reference["levels"][0]
    identical = all(levels == first for levels in reference["levels"] + _levels(rounds))
    untraced = statistics.median(reference["walls"])
    overhead = statistics.median(walls) - untraced
    values, calls = tracing.layer_metrics(
        tracer, {"import.scipy_optimize.s": scipy_s, "trace.overhead_s": overhead})
    spans_path = OUT / f"spans-{name}-{seed}.csv.gz"
    tracer.write(spans_path)

    print(f"workload {name}, seed {seed}: traced {len(walls)} round(s), "
          f"{len(tracer.t0)} spans written to {spans_path.relative_to(ROOT)}")
    for metric, unit, _, moves in tracing.PER_LAYER:
        value = values[metric]
        layer = metric.rsplit(".", 1)[0]
        if value is None:
            shown = "absent"
        else:
            shown = f"{value:.6g} {unit}"
            if layer in tracing.LAYERS and not calls[layer]:
                shown += " (not called by this workload)"
        print(f"  {metric:<40} {shown:<44} moves {moves}")
    print(f"  tracing overhead: {overhead:+.4f} s per round (median traced "
          f"{statistics.median(walls):.4f} s over {len(walls)}, untraced {untraced:.4f} s "
          f"over {len(reference['walls'])})")
    print(f"  levels bit-identical to the untraced run: {identical} "
          f"({len(first)} operations per round)")
    if tracer.absent:
        print(f"  absent layers: {', '.join(tracer.absent)}")
    _print_ops(rounds)
    metrics = {m: {"value": values[m], "unit": unit}
               for m, unit, *_ in tracing.PER_LAYER if values[m] is not None}
    return _result(rounds, metrics, extra_ok=identical)


def run_all(seed: int, seconds: float, trace: int) -> int:
    rows = []
    for name in workloads.NAMES:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            return 1
        rows.append((name, json.loads(lines[-1])))
    if trace:
        return 0
    print(f"\n{'workload':<10} {'wall_s':>10} {'setup_s':>9} {'peak_rss_mb':>12} "
          f"{'fail_frac':>10}  correct")
    for name, res in rows:
        m = res["metrics"]
        print(f"{name:<10} {m['wall_s']['value']:>8.3f} s {m['setup_s']['value']:>7.3f} s "
              f"{m['peak_rss_mb']['value']:>9.1f} MB {res['failed'] / res['attempted']:>10.4f}  "
              f"{res['correct']}")
    return 0 if all(res["correct"] for _, res in rows) else 1


def self_check() -> int:
    """The declared metrics match the tracer's, and every workload's traced run
    finds all layers and reproduces the untraced levels bit for bit."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in declared["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    if [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] != \
            [row[:3] for row in tracing.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if {m["name"]: m["unit"] for m in declared["end_to_end"]} != END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from the metrics run.py reports")
    for name in workloads.NAMES:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--trace", "1"], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"{name}: traced run failed: {proc.stderr.strip()[-300:]}")
            continue
        res = json.loads(lines[-1])
        missing = [row[0] for row in tracing.PER_LAYER if row[0] not in res["metrics"]]
        if missing:
            problems.append(f"{name}: absent per-layer metrics {missing}")
        if not res["correct"]:
            problems.append(f"{name}: traced levels differ from untraced, or a check failed")
        print(f"{name}: {len(res['metrics'])} per-layer metrics, correct={res['correct']}")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check passed" if not problems else "self-check FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--reference-rounds", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        check_source()
        if args.self_check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        if args.reference_rounds is not None:
            reference_rounds(args.workload, args.seed, args.seconds, args.reference_rounds)
            return 0
        if args.trace:
            result = run_traced(args.workload, args.seed, args.seconds)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
