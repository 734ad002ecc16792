"""Command line driver: solve, sweep, verify, rearrange.

``ground-state`` and ``sweep`` take ``c`` from ``nehari.level_c`` and its
verdict against c_inf from ``nehari.compare_c_to_c_infinity``; only the
``--refine`` solves call ``solver.ground_state``, from the solved state.

Exit codes: 0 success, 1 configuration or validation error, 2 numerical
non-convergence of any solve a report depends on (whose numbers are then
written as null) or a level above c_inf (``not_attained``).  Scalar reports
go to JSON with a fixed key order, tables and profiles to CSV with floats
printed at 17 significant digits, so a rerun with the same config and version
is byte identical.  Timestamps live only in the run manifest, which sits
beside the data outputs on purpose.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field as dc_field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import AdmissibilityError, ConfigurationError, HypothesisError, ProjectionError
from .grid import Field, embed_field, make_grid, refine_field
from .nehari import compare_c_to_c_infinity, level_c
from .problem import (NONLINEARITY_KEYS, Problem, config_number, config_section,
                      problem_from_config)
from .rearrange import polya_szego_check, rearrange
from .solver import GaussianBump, SolverConfig, ground_state
from .verify import SUITES, run_suite

_USER_ERRORS = (
    ConfigurationError,
    HypothesisError,
    AdmissibilityError,
    OSError,
    json.JSONDecodeError,
)


# ---------------------------------------------------------------- formatting


def _fmt(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")  # "nan" for NaN
    return str(v)


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, float) and math.isnan(v):
        return None
    if isinstance(v, (np.floating, np.integer)):
        return _jsonable(v.item())
    return v


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


@dataclass
class RunManifest:
    config_digest: str
    seed: int
    tool_version: str
    started: str
    finished: str = ""
    outputs: list = dc_field(default_factory=list)

    def write(self, out_dir: Path) -> None:
        self.finished = _now()
        _write_json(out_dir / "manifest.json", asdict(self))  # keys in field order


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


# ------------------------------------------------------------- config plumbing


# the problem's keys (see problem_from_config), the output tag and two sections
_CONFIG_KEYS = ("tag", "alpha", "L", "N", "nonlinearity", "potential", "edge_tol", "solver", "sweep")


def _load_config(path: str) -> tuple:
    """The config object and the digest of its bytes; a top level that is not
    an object, or has a key outside ``_CONFIG_KEYS``, is a ConfigurationError."""
    raw = Path(path).read_bytes()
    cfg = json.loads(raw)
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config must be a JSON object, got {cfg!r:.60}")
    for k, v in cfg.items():
        if k not in _CONFIG_KEYS:
            raise ConfigurationError(
                f"unknown config key {k!r} (set to {v!r}); choose from {_CONFIG_KEYS}")
    return cfg, _digest(raw)


def _solver_config(cfg: dict) -> tuple:
    """The config's solver settings and its start bump."""
    s = config_section(cfg, "solver", ("max_iters", "grad_tol", "start"))
    start_cfg = config_section(s, "start", ("kind", "center", "width", "amplitude"), "solver.")
    if start_cfg.get("kind", "gaussian_bump") != "gaussian_bump":
        raise ConfigurationError("config files support the gaussian_bump start only")
    bump = GaussianBump()
    for k in ("center", "width", "amplitude"):
        if k in start_cfg:
            key = "solver.start." + k
            value = config_number(start_cfg[k], key)
            try:
                bump = replace(bump, **{k: value})
            except ConfigurationError as e:  # a non-finite value, or a width <= 0
                raise ConfigurationError(f"config key {key!r}: {e}") from None
    return SolverConfig(
        max_iters=config_number(s.get("max_iters", 5000), "solver.max_iters", int),
        grad_tol=config_number(s.get("grad_tol", 1e-6), "solver.grad_tol"),
    ), bump


# ------------------------------------------------------------------ solving


def _run_point(prob: Problem, scfg: SolverConfig, bump: GaussianBump, refine: bool) -> tuple:
    """Solve for c by ``level_c`` from the start ``bump`` and compare it with
    c_inf; with refine, re-solve by ``ground_state`` at 2N (same window) and at
    the doubled window with matched spacing, each from the solved state, and
    record both relative drifts of c, NaN if that solve stalled.  Returns the
    report, the record of every per-point value the outputs write, and the
    names of the auxiliary solves that did not converge."""
    report = level_c(prob, [bump.on(prob.grid)], scfg)
    gap = compare_c_to_c_infinity(prob, report, scfg)
    stalled = [] if gap.converged else ["c_inf"]
    record = dict(c=report.c, c_inf=gap.c_infinity if gap.converged else math.nan,
                  attained=gap.attained, residual=report.residual,
                  iterations=report.iterations, converged=report.converged,
                  nonneg_violation=report.nonneg_violation,
                  symmetry_defect=report.symmetry_defect,
                  energy={k: getattr(report.energy, k)
                          for k in ("kinetic", "potential_term", "nonlinear", "total")},
                  refinement_drift=math.nan, truncation_err=math.nan)
    # table potentials carry no values off their own grid: both drifts stay NaN
    if refine and report.c != 0.0 and prob.potential.table is None:
        wide_grid = make_grid(2.0 * prob.grid.L, 2 * prob.grid.N)
        for key, name, start in (
            ("refinement_drift", "2N refinement", refine_field(report.u, 2)),
            ("truncation_err", "doubled-window", embed_field(report.u, wide_grid)),
        ):
            aux = ground_state(prob.on_grid(start.grid), scfg, start)
            if aux.converged:
                record[key] = abs(aux.c - report.c) / abs(report.c)
            else:
                stalled.append(name)
    record["status"] = ("nonconverged" if not report.converged or stalled
                        else "not_attained" if gap.attained is False else "ok")
    return report, record, stalled


# the ground-state JSON's per-point keys in order; c_inf is written as c_infinity
_JSON_KEYS = ("c", "c_inf", "attained", "residual", "iterations", "converged",
              "nonneg_violation", "symmetry_defect", "energy", "refinement_drift",
              "truncation_err", "status")


def _output(args, config_digest: str) -> tuple:
    """The output directory, created, and the run's manifest, started now."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, RunManifest(config_digest=config_digest, seed=args.seed or 0,
                                tool_version=__version__, started=_now())


def cmd_ground_state(args) -> int:
    cfg, digest = _load_config(args.config)
    out_dir, manifest = _output(args, digest)

    prob = problem_from_config(cfg)
    report, record, stalled = _run_point(prob, *_solver_config(cfg), args.refine)

    tag = str(cfg.get("tag", "ground_state"))
    base = f"{tag}_{prob.alpha:g}_{prob.grid.N}"
    json_path = out_dir / f"{base}.json"
    csv_path = out_dir / f"{base}.csv"
    payload = {"alpha": prob.alpha, "L": prob.grid.L, "N": prob.grid.N,
               "p": prob.nonlinearity.p, "p0": prob.nonlinearity.p0}
    for k in _JSON_KEYS:
        payload["c_infinity" if k == "c_inf" else k] = _jsonable(record[k])
    _write_json(json_path, payload)
    _write_csv(
        csv_path,
        ["x", "u", "u_star"],
        list(zip(prob.grid.x, report.u.values, report.u_star)),
    )
    manifest.outputs = [json_path.name, csv_path.name]
    manifest.write(out_dir)

    msg = "converged" if report.converged else f"did not converge ({report.stop_reason})"
    print(f"{msg}: c = {report.c:.12g}, residual = {report.residual:.3e}, "
          f"iterations = {report.iterations}")
    for name in stalled:
        print(f"did not converge: the {name} solve")
    if record["attained"] is False:
        print(f"not attained: c = {report.c:.12g} lies above c_inf = {record['c_inf']:.12g}")
    return 0 if record["status"] == "ok" else 2


# -------------------------------------------------------------------- sweep

_SWEEP_PARAMETERS = ("epsilon", "alpha", "p", "L", "N")
_SWEEP_COLUMNS = ("parameter", "value", "c", "c_inf", "attained", "residual",
                  "symmetry_defect", "iterations", "converged", "refinement_drift",
                  "truncation_err", "status")


def _sweep_point(task) -> dict:
    """One row of the sweep, keyed by ``_SWEEP_COLUMNS``.  A point whose start
    or ray cannot be projected is marked ``error:<name>`` and the sweep goes
    on; configuration and hypothesis errors propagate, because they are the
    user's to fix (exit 1)."""
    base_cfg, parameter, value, refine = task
    cfg = copy.deepcopy(base_cfg)
    eps = 0.0
    number = config_number(value, "sweep.values", int if parameter == "N" else float)
    if parameter == "epsilon":
        eps = number
    elif parameter in ("alpha", "L", "N"):
        cfg[parameter] = number
    elif parameter == "p":
        # the swept p replaces p and the growth exponent set for the old one;
        # an absent section reads as empty, as in problem_from_config
        nl_cfg = dict(config_section(cfg, "nonlinearity", NONLINEARITY_KEYS), p=number)
        nl_cfg.pop("p0", None)
        cfg["nonlinearity"] = nl_cfg
    prob = problem_from_config(cfg)
    if eps != 0.0:
        prob = prob.with_potential(prob.potential.shifted(eps))
    try:
        _, record, _ = _run_point(prob, *_solver_config(cfg), refine)
    except (AdmissibilityError, ProjectionError) as e:
        record = dict.fromkeys(_SWEEP_COLUMNS, math.nan)
        record.update(iterations=0, converged=False, status=f"error:{type(e).__name__}")
    record.update(parameter=parameter, value=value)
    return {k: record[k] for k in _SWEEP_COLUMNS}


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    cfg, digest = _load_config(args.config)
    sweep = config_section(cfg, "sweep", ("parameter", "values"))
    values = sweep.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigurationError(f"config key 'sweep.values' must be a nonempty list, got {values!r}")
    parameter = sweep.get("parameter", "epsilon")
    if parameter not in _SWEEP_PARAMETERS:
        raise ConfigurationError(
            f"unknown sweep parameter {parameter!r}; choose from {_SWEEP_PARAMETERS}"
        )

    out_dir, manifest = _output(args, digest)

    base_cfg = {k: v for k, v in cfg.items() if k != "sweep"}
    tasks = [(base_cfg, parameter, v, args.refine) for v in values]
    if args.jobs > 1:
        # imported here: it loads multiprocessing, which --jobs 1 never needs;
        # a fork pool starts all its workers at once, so no more than the points
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(_sweep_point, tasks))  # pool.map keeps input order
    else:
        rows = [_sweep_point(t) for t in tasks]

    tag = str(cfg.get("tag", "sweep"))
    csv_path = out_dir / f"{tag}_sweep_{parameter}.csv"
    _write_csv(csv_path, _SWEEP_COLUMNS, [r.values() for r in rows])
    manifest.outputs = [csv_path.name]
    manifest.write(out_dir)

    bad = [r for r in rows if r["status"] != "ok"]
    print(f"sweep over {parameter}: {len(rows)} points, {len(rows) - len(bad)} ok")
    for r in bad:
        print(f"  value {r['value']}: {r['status']}", file=sys.stderr)
    return 0 if not bad else 2


# -------------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else sorted(SUITES)
    for name in names:
        if name not in SUITES:
            print(f"unknown suite {name!r}; choose from {sorted(SUITES)}", file=sys.stderr)
            return 1
    all_ok = True
    for name in names:
        checks = run_suite(name, seed=args.seed or 0)
        print(f"suite {name}:")
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            print(f"  {mark} {c.name}: {c.detail}")
            all_ok = all_ok and c.passed
    print("all checks passed" if all_ok else "some checks failed")
    return 0 if all_ok else 1


# ----------------------------------------------------------------- rearrange


def cmd_rearrange(args) -> int:
    in_path = Path(args.input)
    try:
        raw = np.loadtxt(in_path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as e:
        raise ConfigurationError(f"input CSV {in_path.name} is not numeric: {e}") from None
    if raw.shape[1] < 2:
        raise ConfigurationError("input CSV needs columns x, u")
    x, u_vals = raw[:, 0], raw[:, 1]
    N = x.shape[0]
    dx = float(x[1] - x[0]) if N > 1 else 0.0
    if N < 8 or N % 2 or dx <= 0.0 or np.max(np.abs(np.diff(x) - dx)) > 1e-9 * dx:
        raise ConfigurationError("input samples must form a uniform grid with even length >= 8")
    L = 0.5 * (x[-1] + dx - x[0])
    grid = make_grid(L, N)
    if np.max(np.abs(grid.x - x)) > 1e-9 * L:
        raise ConfigurationError("input samples must cover the window [-L, L) starting at -L")

    out_dir, manifest = _output(args, _digest(in_path.read_bytes()))

    u = Field(grid, u_vals)
    rep = rearrange(u)
    stem = in_path.stem
    csv_path = out_dir / f"{stem}_rearranged.csv"
    json_path = out_dir / f"{stem}_rearranged.json"
    _write_csv(csv_path, ["x", "u", "u_star"],
               list(zip(grid.x, u.values, rep.u_star.values)))
    payload = {"L": L, "N": N, "lp_drift": {str(q): v for q, v in rep.lp_drift.items()}}
    if args.alpha is not None:
        ps = polya_szego_check(u, args.alpha)
        payload["polya_szego"] = {"alpha": args.alpha, "lhs": ps.lhs, "rhs": ps.rhs,
                                  "margin": ps.margin, "satisfied": ps.satisfied}
    _write_json(json_path, _jsonable(payload))
    manifest.outputs = [csv_path.name, json_path.name]
    manifest.write(out_dir)
    print(f"rearranged {in_path.name}: N = {N}, L = {L:g}")
    return 0


# --------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracnls",
        description="Ground states of the 1D fractional NLS by constrained pseudospectral descent",
    )
    sub = parser.add_subparsers(dest="command")

    gs = sub.add_parser("ground-state", help="solve one problem from a config file")
    gs.add_argument("--config", required=False)
    gs.add_argument("--out", default=".")
    gs.add_argument("--seed", type=int, default=None)
    gs.add_argument("--refine", action="store_true",
                    help="re-run at 2N and at the doubled window, record drifts")

    sw = sub.add_parser("sweep", help="solve across a list of parameter values")
    sw.add_argument("--config", required=False)
    sw.add_argument("--out", default=".")
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--refine", action="store_true")

    vf = sub.add_parser("verify", help="run a named property suite")
    vf.add_argument("--suite", default=None)
    vf.add_argument("--seed", type=int, default=None)

    ra = sub.add_parser("rearrange", help="file-to-file symmetric decreasing rearrangement")
    ra.add_argument("--in", dest="input", required=False)
    ra.add_argument("--out", default=".")
    ra.add_argument("--seed", type=int, default=None)
    ra.add_argument("--alpha", type=float, default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command in ("ground-state", "sweep") and not args.config:
            raise ConfigurationError(f"{args.command} needs --config PATH")
        if args.command == "ground-state":
            return cmd_ground_state(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "rearrange":
            if not args.input:
                raise ConfigurationError("rearrange needs --in PATH")
            return cmd_rearrange(args)
        parser.print_usage(sys.stderr)
        return 1
    except ProjectionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
