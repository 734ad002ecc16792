"""The benchmark workloads: seeded inputs, the timed round, output checks.

A workload builds its problems once (the part ``setup_s`` measures), then
runs identical rounds; a round is every solve of the workload plus the checks
of its outputs, and ``wall_s`` is the time of one round.  Every solve is one
operation.  An operation fails when it does not converge, raises, or fails
its check.  A failed operation is only *incorrect* when the program claims
success and the claim is wrong: a converged level off its reference, a gap
below tolerance, a CLI run that crashes or whose exit code disagrees with its
rows, or CSV bytes that differ between rounds of one seed.  A solve that
reports non-convergence has told the truth, so it counts as failed but not as
incorrect.

Why the seeded starts are what they are.  After the ray projection a start's
amplitude is irrelevant, while its width and its distance from the well's
centre set the work: at N=1024 on a flat potential, widths 0.5 to 2.0 take
369 to 2970 iterations.  Seeding them freely would make one seed's round
several times longer than another's, so the seed draws amplitudes, a side and
a narrow band of distances, and a width only in ``cli_sweep``, where it
reaches just the cheap ``c`` solves.  In the well, a start 4.0 to 4.5 away
from the centre drifts too slowly to converge within ``max_iters``: that is
the known defect, kept in every ``well_gap`` round and counted as a failure.
"""

from __future__ import annotations

import csv
import json
import os
import random
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, NamedTuple

ALPHA = 0.75
P = 3.0
L = 20.0
GRAD_TOL = 1e-6
MAX_ITERS = 5000
WELL_EXPR = "2.0 - 1.0/(1.0 + t**2)"
SWEEP_EPS = (0.0, 0.1, 0.2)
REL_TOL = 1e-9  # a converged level must match its reference to this
GAP_FACTOR = 10.0  # c_inf - c must reach GAP_FACTOR * LEVEL_TOL
CLI_TIMEOUT_S = 150.0

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


class Op(NamedTuple):
    """Outcome of one operation: a solve, or one CLI sweep point."""

    label: str
    ok: bool
    correct: bool
    levels: tuple  # exact representations, compared bit for bit by the traced run
    detail: str


def _f(s):
    return s**3 + s**2


def _fprime(s):
    return 3.0 * s**2 + 2.0 * s


def _well_potential(fr):
    return fr.Potential.from_expr(WELL_EXPR, V0=1.0, V_inf=2.0,
                                  radial_increasing=True, below_Vinf=True)


def _level_op(label, c, converged, iterations, ref) -> Op:
    rel = abs(c - ref) / abs(ref)
    matches = rel <= REL_TOL
    detail = (f"{label}: c={c!r} rel_err={rel:.1e} iterations={iterations} "
              f"converged={converged}")
    return Op(label, converged and matches, matches or not converged, (c.hex(),), detail)


def _raised(label, exc) -> Op:
    return Op(label, False, False, (), f"{label}: raised {type(exc).__name__}: {exc}")


def child_env(root: Path) -> dict:
    """The environment of a child interpreter that imports ``fracnls`` from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


class _Comparison:
    """c and c_inf per start, as ``compare_c_to_c_infinity`` computes them,
    calling the library in this process."""

    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def build(self) -> None:
        import fracnls as fr

        grid = fr.make_grid(L, 1024)
        self.prob = fr.make_problem(grid, ALPHA, self.nonlinearity(fr), _well_potential(fr))
        self.starts = [fr.Field(grid, a * _gaussian(grid.x, c)) for c, a in self.bumps]
        refs = load_references()[self.name]
        self.ref_c, self.ref_c_inf = refs["c"], refs["c_inf"]
        self.gap_tol = GAP_FACTOR * fr.LEVEL_TOL

    def prepare(self) -> None:
        self.build()

    def warm_up(self) -> None:
        """A few iterations, so lazy set-up is out of the timings."""
        import fracnls as fr

        fr.ground_state(self.prob, fr.SolverConfig(grad_tol=GRAD_TOL, max_iters=3))

    def close(self) -> None:
        pass

    def run_round(self, mark: Callable[[], None]) -> List[Op]:
        import fracnls as fr

        cfg = fr.SolverConfig(grad_tol=GRAD_TOL, max_iters=MAX_ITERS)
        ops = []
        for i, start in enumerate(self.starts):
            c = None
            for kind, solve, ref in (("c", fr.level_c, self.ref_c),
                                     ("c_inf", fr.level_c_infinity, self.ref_c_inf)):
                mark()
                label = f"start{i}.{kind}"
                try:
                    est = solve(self.prob, [start], cfg=cfg)
                except Exception as exc:  # a raise is a failed operation, the round goes on
                    ops.append(_raised(label, exc))
                    continue
                op = _level_op(label, est.c, est.converged, est.iterations, ref)
                if kind == "c":
                    c = (est.c, est.converged)
                elif c is not None:
                    gap = est.c - c[0]
                    if gap < self.gap_tol:
                        both = c[1] and est.converged
                        op = op._replace(ok=False, correct=op.correct and not both,
                                         detail=f"{op.detail} gap={gap:.3e} < {self.gap_tol:.0e}")
                ops.append(op)
        return ops


def _gaussian(x, center):
    import numpy as np

    return np.exp(-((x - center) ** 2) / 2.0)


class WellGap(_Comparison):
    name = "well_gap"

    def __init__(self, seed: int):
        super().__init__(seed)
        side = self.rng.choice((-1.0, 1.0))
        far = side * self.rng.uniform(4.0, 4.5)
        self.bumps = [(0.0, 1.0), (far, self.rng.uniform(0.5, 2.0))]

    @staticmethod
    def nonlinearity(fr):
        return fr.power_nonlinearity(P)


class CustomNl(_Comparison):
    name = "custom_nl"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.bumps = [(0.0, self.rng.uniform(0.5, 2.0))]

    @staticmethod
    def nonlinearity(fr):
        return fr.custom_nonlinearity(_f, theta=3.0, p0=3.5, fprime=_fprime)


def sweep_config(seed: int) -> dict:
    """The criterion-10 sweep config; the seed sets the centred start."""
    rng = random.Random(seed)
    width, amplitude = rng.uniform(0.8, 1.2), rng.uniform(0.5, 2.0)
    return {
        "tag": "bench",
        "alpha": ALPHA,
        "L": L,
        "N": 256,
        "nonlinearity": {"kind": "power", "p": P},
        "potential": {"expr": WELL_EXPR, "V0": 1.0, "Vinf": 2.0,
                      "flags": {"radial_increasing": True, "below_Vinf": True}},
        "solver": {"grad_tol": GRAD_TOL, "max_iters": MAX_ITERS,
                   "start": {"kind": "gaussian_bump", "center": 0.0,
                             "width": width, "amplitude": amplitude}},
        "sweep": {"parameter": "epsilon", "values": list(SWEEP_EPS)},
    }


@dataclass
class _Child:
    returncode: int
    peak_rss_mb: float
    stderr: str


def run_child(cmd, env, workdir: Path, timeout: float = CLI_TIMEOUT_S) -> _Child:
    """Run a child to completion and return its own peak resident memory."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return _Child(proc.returncode, usage.ru_maxrss / 1024.0,
                  err_path.read_text(errors="replace"))


class CliSweep:
    """``python -m fracnls sweep`` as a user runs it, or ``cli.main`` in-process
    for the traced run."""

    name = "cli_sweep"
    min_rounds = 2  # the CSV must be compared with a rerun of the same seed

    def __init__(self, seed: int, root: Path, workdir: Path, in_process: bool = False):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.in_process = in_process
        self.config = sweep_config(seed)
        self.first_csv = None
        self.rounds = 0
        self.child_rss_mb = []

    def build(self) -> None:
        """The problems of every sweep point, built as the CLI builds them."""
        import fracnls as fr

        for eps in SWEEP_EPS:
            prob = fr.problem_from_config(self.config)
            if eps:
                prob.with_potential(prob.potential.shifted(eps))

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "sweep.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        refs = load_references()["cli_sweep"]
        self.refs = {float(k): v for k, v in refs.items()}

    def warm_up(self) -> None:
        pass

    def argv(self, out_dir: Path) -> list:
        return ["sweep", "--config", str(self.config_path), "--out", str(out_dir),
                "--jobs", "1", "--seed", str(self.seed)]

    def run_round(self, mark: Callable[[], None]) -> List[Op]:
        out_dir = self.workdir / f"round{self.rounds}"
        self.rounds += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        mark()
        if self.in_process:
            import contextlib
            import io

            from fracnls import cli

            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code, err = cli.main(self.argv(out_dir)), ""
        else:
            child = run_child([sys.executable, "-m", "fracnls", *self.argv(out_dir)],
                              child_env(self.root), out_dir)
            code, err = child.returncode, child.stderr
            self.child_rss_mb.append(child.peak_rss_mb)
        csv_path = out_dir / f"{self.config['tag']}_sweep_epsilon.csv"
        ops = self._check(code, err, csv_path)
        shutil.rmtree(out_dir, ignore_errors=True)
        return ops

    def _check(self, code: int, err: str, csv_path: Path) -> List[Op]:
        """Exit 0 exactly when every row is ok (2 reports non-convergence),
        levels on their references, rows byte-identical to the first round's."""
        labels = [f"eps={eps:g}" for eps in SWEEP_EPS]
        if code not in (0, 2) or not csv_path.exists():
            why = f"exit {code}: {err.strip()[-200:]}"
            return [Op(lbl, False, False, (), f"{lbl}: {why}") for lbl in labels]
        data = csv_path.read_bytes()
        if self.first_csv is None:
            self.first_csv = data
        lines = data.decode().splitlines()
        first_lines = self.first_csv.decode().splitlines()
        rows = list(csv.DictReader(lines))
        consistent = (code == 0) == all(r["status"] == "ok" for r in rows)
        ops = []
        for i, (eps, lbl) in enumerate(zip(SWEEP_EPS, labels)):
            if i >= len(rows) or float(rows[i]["value"]) != eps:
                ops.append(Op(lbl, False, False, (), f"{lbl}: row missing from CSV"))
                continue
            row, ref = rows[i], self.refs[eps]
            errs = [abs(float(row[k]) - ref[k]) / abs(ref[k]) for k in ("c", "c_inf")]
            matches = max(errs) <= REL_TOL
            same = i + 1 < len(first_lines) and lines[i + 1] == first_lines[i + 1]
            status_ok = row["status"] == "ok"
            detail = (f"{lbl}: exit={code} status={row['status']} c={row['c']} "
                      f"c_inf={row['c_inf']} rel_err={max(errs):.1e} "
                      f"iterations={row['iterations']} byte_identical={same}")
            ops.append(Op(lbl, code == 0 and status_ok and matches and same,
                          consistent and same and (matches or not status_ok),
                          (row["c"], row["c_inf"]), detail))
        return ops

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


NAMES = ("well_gap", "custom_nl", "cli_sweep")


def make(name: str, seed: int, root: Path, workdir: Path, in_process: bool = False):
    if name == "cli_sweep":
        return CliSweep(seed, root, workdir, in_process)
    return {"well_gap": WellGap, "custom_nl": CustomNl}[name](seed)
