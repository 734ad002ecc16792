"""Measure the reference levels the benchmark checks its outputs against.

Run from the repository root:  python3 perfbench/make_references.py

Every level is solved from the default centred start.  A converged level
does not depend on the start beyond about 1e-12 relative, far inside the
1e-9 tolerance of the checks, so one reference serves every seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fracnls as fr  # noqa: E402

import workloads as wl  # noqa: E402


def _level(est) -> float:
    if not est.converged:
        raise SystemExit("a reference solve did not converge")
    return est.c


def main() -> None:
    cfg = fr.SolverConfig(grad_tol=wl.GRAD_TOL, max_iters=wl.MAX_ITERS)
    refs = {}

    grid = fr.make_grid(wl.L, 1024)
    well = fr.make_problem(grid, wl.ALPHA, wl.WellGap.nonlinearity(fr), wl._well_potential(fr))
    custom = fr.make_problem(grid, wl.ALPHA, wl.CustomNl.nonlinearity(fr), wl._well_potential(fr))
    for name, prob in (("well_gap", well), ("custom_nl", custom)):
        start = [fr.default_start(grid)]
        refs[name] = {"c": _level(fr.level_c(prob, start, cfg=cfg)),
                      "c_inf": _level(fr.level_c_infinity(prob, start, cfg=cfg))}

    sweep = {}
    base = fr.problem_from_config(wl.sweep_config(0))
    for eps in wl.SWEEP_EPS:
        prob = base.with_potential(base.potential.shifted(eps)) if eps else base
        start = [fr.default_start(prob.grid)]
        sweep[repr(eps)] = {"c": _level(fr.level_c(prob, start, cfg=cfg)),
                            "c_inf": _level(fr.level_c_infinity(prob, start, cfg=cfg))}
    refs["cli_sweep"] = sweep

    wl.REFERENCES.write_text(json.dumps(refs, indent=2) + "\n")
    print(json.dumps(refs, indent=2))


if __name__ == "__main__":
    main()
