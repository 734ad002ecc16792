"""End-to-end command line contract: exit codes, files, determinism."""

import csv
import json
import math
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import WELL_EXPR
from fracnls import cli, make_grid, nehari, solver

CANON = {
    "tag": "canon",
    "alpha": 0.75,
    "L": 20.0,
    "N": 256,
    "nonlinearity": {"kind": "power", "p": 3.0},
    "potential": {"V0": 1.0, "Vinf": 1.0},
    "solver": {"grad_tol": 1e-6, "max_iters": 5000},
}

WELL = {
    "tag": "well",
    "alpha": 0.75,
    "L": 20.0,
    "N": 256,
    "nonlinearity": {"kind": "power", "p": 3.0},
    "potential": {"expr": WELL_EXPR, "V0": 1.0, "Vinf": 2.0,
                  "flags": {"radial_increasing": True, "below_Vinf": True}},
    "solver": {"grad_tol": 1e-6, "max_iters": 5000},
    "sweep": {"parameter": "epsilon", "values": [0.0, 0.1, 0.2]},
}

# above its limit everywhere: the centred state's level lies above c_inf
BUMP = {
    "tag": "bump",
    "alpha": 0.75,
    "L": 20.0,
    "N": 256,
    "nonlinearity": {"kind": "power", "p": 3.0},
    "potential": {"expr": "1.0 + 1.0/(1.0 + t**2)", "V0": 1.0, "Vinf": 1.0},
    "solver": {"grad_tol": 1e-6, "max_iters": 5000},
    "sweep": {"parameter": "epsilon", "values": [0.0]},
}

P_SWEEP = dict(CANON, sweep={"parameter": "p", "values": [3.0]})

# the well sampled on its own grid: no values off that grid for --refine
_X = make_grid(WELL["L"], WELL["N"]).x
TABLE = dict(WELL, tag="table", potential={
    "table": (2.0 - 1.0 / (1.0 + _X**2)).tolist(), "V0": 1.0, "Vinf": 2.0,
    "flags": WELL["potential"]["flags"]})

EXPLOIT = "().__class__.__mro__[1].__subclasses__().__len__()"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fracnls", *args],
        capture_output=True, text=True, timeout=600,
    )


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def main_in_process(capsys, command, cfg, tmp_path, *extra):
    """Run one command through ``cli.main``; returns (exit code, stdout, stderr)."""
    path = write_config(tmp_path / "cfg.json", cfg)
    code = cli.main([command, "--config", path, "--out", str(tmp_path / "out"), *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err



class TestGroundStateCommand:
    def test_happy_path_files_and_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", CANON)
        out = tmp_path / "out"
        r = run_cli("ground-state", "--config", cfg, "--out", str(out))
        assert r.returncode == 0, r.stderr
        report = json.loads((out / "canon_0.75_256.json").read_text())
        assert report["converged"] is True
        assert report["residual"] <= 1e-6
        assert report["c"] == pytest.approx(1.35253768, rel=1e-6)
        rows = list(csv.DictReader(open(out / "canon_0.75_256.csv")))
        assert len(rows) == 256
        assert set(rows[0]) == {"x", "u", "u_star"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool_version"]
        assert len(manifest["config_digest"]) == 64
        assert manifest["outputs"] == ["canon_0.75_256.json", "canon_0.75_256.csv"]

    def test_json_key_order_stable(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", CANON)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("ground-state", "--config", cfg, "--out", str(out_a)).returncode == 0
        assert run_cli("ground-state", "--config", cfg, "--out", str(out_b)).returncode == 0
        ja = (out_a / "canon_0.75_256.json").read_bytes()
        jb = (out_b / "canon_0.75_256.json").read_bytes()
        assert ja == jb
        ca = (out_a / "canon_0.75_256.csv").read_bytes()
        cb = (out_b / "canon_0.75_256.csv").read_bytes()
        assert ca == cb

    def test_p_equal_one_exits_one_naming_f1(self, tmp_path):
        bad = json.loads(json.dumps(CANON))
        bad["nonlinearity"]["p"] = 1.0
        cfg = write_config(tmp_path / "bad.json", bad)
        r = run_cli("ground-state", "--config", cfg, "--out", str(tmp_path / "o"))
        assert r.returncode == 1
        assert "f1" in r.stderr

    def test_exhausted_budget_exits_two(self, tmp_path):
        lim = json.loads(json.dumps(CANON))
        lim["solver"]["max_iters"] = 1
        cfg = write_config(tmp_path / "lim.json", lim)
        r = run_cli("ground-state", "--config", cfg, "--out", str(tmp_path / "o"))
        assert r.returncode == 2
        assert "did not converge" in r.stdout

    @pytest.mark.parametrize("solver,reason", [
        ({"max_iters": 1}, "budget"),
        # alpha = 1 at N = 1024 collapses at its roundoff floor, near 9e-13
        ({"grad_tol": 1e-14}, "collapsed"),
    ])
    def test_summary_line_names_stop_reason(self, tmp_path, capsys, solver, reason):
        cfg = json.loads(json.dumps(CANON))
        cfg["solver"].update(solver)
        if reason == "collapsed":
            cfg.update(alpha=1.0, N=1024)
        code, out, _ = main_in_process(capsys, "ground-state", cfg, tmp_path)
        assert code == 2
        assert out.startswith(f"did not converge ({reason}): c = ")
        # the reason is printed only: the data files keep their keys
        base = f"canon_{cfg['alpha']:g}_{cfg['N']}"
        report = json.loads((tmp_path / "out" / f"{base}.json").read_text())
        assert "stop_reason" not in report and report["converged"] is False

    @pytest.mark.parametrize("amplitude", [1e-90, 1e90])
    def test_start_out_of_power_range_solves(self, tmp_path, capsys, amplitude):
        # u^4 of such a start underflows to 0 or overflows: the solver scales
        # the start to height 1 before projecting it, which changes no ray
        cfg = json.loads(json.dumps(CANON))
        cfg["solver"]["start"] = {"amplitude": amplitude}
        (tmp_path / "far").mkdir()
        (tmp_path / "unit").mkdir()
        code, out, err = main_in_process(capsys, "ground-state", cfg, tmp_path / "far")
        assert code == 0, err
        assert out.startswith("converged: ")
        code, _, err = main_in_process(capsys, "ground-state", CANON, tmp_path / "unit")
        assert code == 0, err
        far = json.loads((tmp_path / "far" / "out" / "canon_0.75_256.json").read_text())
        unit = json.loads((tmp_path / "unit" / "out" / "canon_0.75_256.json").read_text())
        assert far["c"] == pytest.approx(unit["c"], rel=1e-12)
        assert far["iterations"] == unit["iterations"]

    def test_state_is_rearranged_once(self, tmp_path, capsys, monkeypatch):
        # the u_star column and symmetry_defect share the report's
        # rearrangement; the symmetric start calls nehari's own binding
        real = solver.rearrange_values
        calls = []
        monkeypatch.setattr(solver, "rearrange_values",
                            lambda v: calls.append(v.size) or real(v))
        code, _, err = main_in_process(capsys, "ground-state", dict(CANON, N=512), tmp_path)
        assert code == 0, err
        assert calls == [512]

    def test_start_reaches_unflagged_solve(self, tmp_path, capsys):
        # on the hump the start is taken as given: from the window's edge the
        # state settles far from the hump, below the centred start's level but
        # still above c_inf, so the level is reported as not attained
        edge = {k: v for k, v in BUMP.items() if k != "sweep"}
        edge["solver"] = dict(BUMP["solver"], start={"center": -20.0})
        code, _, err = main_in_process(capsys, "ground-state", edge, tmp_path)
        assert code == 2, err
        report = json.loads((tmp_path / "out" / "bump_0.75_256.json").read_text())
        assert report["c"] == pytest.approx(1.3573, abs=1e-4)
        assert report["converged"] is True and report["status"] == "not_attained"

    def test_off_centre_start_in_well_solves_as_centred(self, tmp_path, capsys):
        # the well is flagged radial_increasing, so the level is sought from
        # the start's symmetric decreasing profile
        reports = []
        for name, solver_cfg in (("centred", WELL["solver"]),
                                 ("off", dict(WELL["solver"], start={"center": 4.0}))):
            cfg = {k: v for k, v in WELL.items() if k != "sweep"}
            cfg["solver"] = solver_cfg
            (tmp_path / name).mkdir()
            code, _, err = main_in_process(capsys, "ground-state", cfg, tmp_path / name)
            assert code == 0, err
            out = tmp_path / name / "out" / "well_0.75_256.json"
            reports.append(json.loads(out.read_text()))
        centred, off = reports
        assert off["iterations"] == centred["iterations"]
        assert off["c"] == pytest.approx(centred["c"], rel=0.0, abs=1e-12)

    def test_rejected_start_names_its_reason(self, tmp_path, capsys):
        # a narrow start 10 beyond the L = 20 window underflows to zero on it
        far = {k: v for k, v in CANON.items()}
        far["solver"] = dict(CANON["solver"], start={"center": 30.0, "width": 0.25})
        code, _, err = main_in_process(capsys, "ground-state", far, tmp_path)
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "no positive part" in lines[0]

    def test_missing_config_exits_one(self, tmp_path):
        r = run_cli("ground-state", "--out", str(tmp_path))
        assert r.returncode == 1

    def test_malformed_json_exits_one(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        r = run_cli("ground-state", "--config", str(p), "--out", str(tmp_path / "o"))
        assert r.returncode == 1

    def test_refine_reports_drifts(self, tmp_path):
        small = json.loads(json.dumps(CANON))
        small["N"] = 128
        cfg = write_config(tmp_path / "c.json", small)
        out = tmp_path / "out"
        r = run_cli("ground-state", "--config", cfg, "--out", str(out), "--refine")
        assert r.returncode == 0, r.stderr
        report = json.loads((out / "canon_0.75_128.json").read_text())
        assert report["refinement_drift"] is not None
        assert report["truncation_err"] is not None

    def test_refine_on_table_potential_reports_no_drifts(self, tmp_path, capsys):
        gs = {k: v for k, v in TABLE.items() if k != "sweep"}
        code, out, err = main_in_process(capsys, "ground-state", gs, tmp_path, "--refine")
        assert code == 0, err
        assert out.startswith("converged: ")
        report = json.loads((tmp_path / "out" / "table_0.75_256.json").read_text())
        assert report["refinement_drift"] is None
        assert report["truncation_err"] is None

    def test_well_reports_limiting_level(self, tmp_path):
        w = {k: v for k, v in WELL.items() if k != "sweep"}
        cfg = write_config(tmp_path / "w.json", w)
        out = tmp_path / "out"
        r = run_cli("ground-state", "--config", cfg, "--out", str(out))
        assert r.returncode == 0, r.stderr
        report = json.loads((out / "well_0.75_256.json").read_text())
        assert report["c_infinity"] is not None
        assert report["c"] < report["c_infinity"]
        assert report["attained"] is True and report["status"] == "ok"


class TestSweepCommand:
    def test_rows_in_order_and_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "w.json", WELL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        ra = run_cli("sweep", "--config", cfg, "--out", str(out_a))
        rb = run_cli("sweep", "--config", cfg, "--out", str(out_b))
        assert ra.returncode == 0, ra.stderr
        assert rb.returncode == 0
        fa = (out_a / "well_sweep_epsilon.csv").read_bytes()
        fb = (out_b / "well_sweep_epsilon.csv").read_bytes()
        assert fa == fb
        rows = list(csv.DictReader(open(out_a / "well_sweep_epsilon.csv")))
        assert [float(r["value"]) for r in rows] == [0.0, 0.1, 0.2]
        assert all(r["status"] == "ok" for r in rows)
        cs = [float(r["c"]) for r in rows]
        assert cs == sorted(cs)

    def test_parallel_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path / "w.json", WELL)
        out_a, out_b = tmp_path / "serial", tmp_path / "par"
        assert run_cli("sweep", "--config", cfg, "--out", str(out_a)).returncode == 0
        assert run_cli("sweep", "--config", cfg, "--out", str(out_b),
                       "--jobs", "3").returncode == 0
        fa = (out_a / "well_sweep_epsilon.csv").read_bytes()
        fb = (out_b / "well_sweep_epsilon.csv").read_bytes()
        assert fa == fb

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_user_error(self, tmp_path, capsys, jobs):
        code, _, err = main_in_process(capsys, "sweep", WELL, tmp_path, "--jobs", jobs)
        assert code == 1
        assert "--jobs" in err
        assert not (tmp_path / "out").exists()

    def test_pool_is_no_larger_than_the_sweep(self, tmp_path, capsys, monkeypatch):
        # a fork pool starts all its workers on the first submit; an in-process
        # fake records the size asked for, so no real pool is started
        import concurrent.futures

        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        serial.mkdir()
        pooled.mkdir()
        assert main_in_process(capsys, "sweep", WELL, serial)[0] == 0
        assert main_in_process(capsys, "sweep", WELL, pooled, "--jobs", "64")[0] == 0
        assert asked == [3]
        csv_name = "out/well_sweep_epsilon.csv"
        assert (pooled / csv_name).read_bytes() == (serial / csv_name).read_bytes()

    # a narrow start 5 beyond the L = 20 window is about 1e-87 at its edge,
    # where u^4 underflows to 0: the point solves once the start is scaled
    def test_start_underflowing_on_window_solves(self, tmp_path, capsys):
        edge = json.loads(json.dumps(CANON))
        edge["solver"]["start"] = {"kind": "gaussian_bump", "center": 25.0, "width": 0.25}
        edge["sweep"] = {"parameter": "L", "values": [40.0, 20.0]}
        code, _, err = main_in_process(capsys, "sweep", edge, tmp_path)
        assert code == 0, err
        rows = list(csv.DictReader(open(tmp_path / "out" / "canon_sweep_L.csv")))
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert float(rows[1]["residual"]) <= 1e-6

    # a narrow start 10 beyond the L = 20 window underflows to zero on it, so
    # that point has no positive part; the L = 40 point solves
    def test_partial_failure_marked_and_exit_two(self, tmp_path, capsys):
        far = json.loads(json.dumps(CANON))
        far["solver"]["start"] = {"kind": "gaussian_bump", "center": 30.0, "width": 0.25}
        far["sweep"] = {"parameter": "L", "values": [40.0, 20.0]}
        code, _, err = main_in_process(capsys, "sweep", far, tmp_path)
        assert code == 2
        rows = list(csv.DictReader(open(tmp_path / "out" / "canon_sweep_L.csv")))
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "error:AdmissibilityError"
        assert rows[1]["c"] == "nan"
        assert rows[1]["iterations"] == "0"
        assert rows[1]["converged"] == "false"
        assert "error:AdmissibilityError" in err

    def test_refine_on_table_potential_rows_ok(self, tmp_path, capsys):
        code, _, err = main_in_process(capsys, "sweep", TABLE, tmp_path, "--refine")
        assert code == 0, err
        rows = list(csv.DictReader(open(tmp_path / "out" / "table_sweep_epsilon.csv")))
        assert [r["status"] for r in rows] == ["ok"] * 3
        assert all(r["refinement_drift"] == r["truncation_err"] == "nan" for r in rows)

    def test_sweep_row_matches_ground_state_json(self, tmp_path, capsys):
        # both outputs are written from one record per solved point
        short = json.loads(json.dumps(WELL))
        short["sweep"]["values"] = [0.0]
        code, _, err = main_in_process(capsys, "sweep", short, tmp_path, "--refine")
        assert code == 0, err
        row = next(csv.DictReader(open(tmp_path / "out" / "well_sweep_epsilon.csv")))
        gs = {k: v for k, v in WELL.items() if k != "sweep"}
        code, _, err = main_in_process(capsys, "ground-state", gs, tmp_path, "--refine")
        assert code == 0, err
        report = json.loads((tmp_path / "out" / "well_0.75_256.json").read_text())
        for col, key in (("c", "c"), ("c_inf", "c_infinity"), ("residual", "residual"),
                         ("symmetry_defect", "symmetry_defect"),
                         ("refinement_drift", "refinement_drift"),
                         ("truncation_err", "truncation_err")):
            assert float(row[col]) == report[key], col
        assert int(row["iterations"]) == report["iterations"]
        assert row["converged"] == "true" and report["converged"] is True
        assert row["attained"] == "true" and report["attained"] is True
        assert row["status"] == report["status"] == "ok"

    @pytest.mark.parametrize("section,key,value,named", [
        ("potential", "expr", EXPLOIT, "may not contain"),
        ("nonlinearity", "p", 1.0, "f1"),
    ])
    def test_user_error_in_sweep_point_exits_one(self, tmp_path, capsys, section, key,
                                                 value, named):
        broken = json.loads(json.dumps(WELL))
        broken["sweep"]["values"] = [0.0]
        broken[section][key] = value
        code, _, err = main_in_process(capsys, "sweep", broken, tmp_path)
        assert code == 1
        assert named in err

    def test_p_sweep_supplies_missing_nonlinearity(self, tmp_path, capsys):
        bare = {k: v for k, v in P_SWEEP.items() if k != "nonlinearity"}
        code, _, err = main_in_process(capsys, "ground-state", bare, tmp_path)
        assert code == 1
        assert "'nonlinearity.p'" in err
        csvs = []
        for name, cfg in (("bare", bare), ("full", P_SWEEP)):
            (tmp_path / name).mkdir()
            code, _, _ = main_in_process(capsys, "sweep", cfg, tmp_path / name)
            assert code == 0
            csvs.append((tmp_path / name / "out" / "canon_sweep_p.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_missing_sweep_section_exits_one(self, tmp_path):
        w = {k: v for k, v in WELL.items() if k != "sweep"}
        cfg = write_config(tmp_path / "w.json", w)
        r = run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o"))
        assert r.returncode == 1

    def test_unknown_parameter_exits_one(self, tmp_path):
        broken = json.loads(json.dumps(WELL))
        broken["sweep"]["parameter"] = "banana"
        cfg = write_config(tmp_path / "w.json", broken)
        r = run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o"))
        assert r.returncode == 1
        assert "banana" in r.stderr


class TestLimitingLevel:
    """c_inf is c for a flat V and solved for any other V, flagged or not; a
    level above it is reported as not attained (exit 2), and a solve that
    stops short is never reported as clean."""

    def test_flat_potential_reports_c(self, tmp_path, capsys):
        code, _, err = main_in_process(capsys, "ground-state", CANON, tmp_path)
        assert code == 0, err
        report = json.loads((tmp_path / "out" / "canon_0.75_256.json").read_text())
        assert report["c_infinity"] == report["c"]
        assert report["attained"] is True and report["status"] == "ok"

    def test_unflagged_potential_reports_limit(self, tmp_path, capsys):
        gs = {k: v for k, v in BUMP.items() if k != "sweep"}
        code, _, err = main_in_process(capsys, "ground-state", gs, tmp_path)
        assert code == 2, err
        report = json.loads((tmp_path / "out" / "bump_0.75_256.json").read_text())
        assert report["c_infinity"] == pytest.approx(1.3525377, abs=1e-7)
        assert report["attained"] is False
        code, _, err = main_in_process(capsys, "sweep", BUMP, tmp_path)
        assert code == 2, err
        rows = list(csv.DictReader(open(tmp_path / "out" / "bump_sweep_epsilon.csv")))
        assert float(rows[0]["c_inf"]) == report["c_infinity"]
        assert rows[0]["attained"] == "false"

    @pytest.mark.parametrize("refine", [(), ("--refine",)])
    def test_hump_exits_two_not_attained(self, tmp_path, capsys, refine):
        gs = {k: v for k, v in BUMP.items() if k != "sweep"}
        code, out, err = main_in_process(capsys, "ground-state", gs, tmp_path, *refine)
        assert code == 2, err
        report = json.loads((tmp_path / "out" / "bump_0.75_256.json").read_text())
        assert report["converged"] is True and report["status"] == "not_attained"
        assert out.startswith("converged: ")
        both = [line for line in out.splitlines() if "c = " in line and "c_inf = " in line]
        assert both == [f"not attained: c = {report['c']:.12g} lies above "
                        f"c_inf = {report['c_infinity']:.12g}"]
        code, _, err = main_in_process(capsys, "sweep", BUMP, tmp_path, *refine)
        assert code == 2
        rows = list(csv.DictReader(open(tmp_path / "out" / "bump_sweep_epsilon.csv")))
        assert [r["status"] for r in rows] == ["not_attained"]
        assert "value 0.0: not_attained" in err

    def test_below_vinf_flag_changes_no_output(self, tmp_path, capsys):
        # the flag is the (V4) hypothesis check only; c_inf is solved either way
        flags = {"radial_increasing": True}
        bare = dict(WELL, potential=dict(WELL["potential"], flags=flags))
        files = []
        for name, cfg in (("flagged", WELL), ("bare", bare)):
            gs = {k: v for k, v in cfg.items() if k != "sweep"}
            (tmp_path / name).mkdir()
            for command, c in (("ground-state", gs), ("sweep", cfg)):
                code, _, err = main_in_process(capsys, command, c, tmp_path / name, "--refine")
                assert code == 0, err
            out = tmp_path / name / "out"
            files.append({f: (out / f).read_bytes() for f in
                          ("well_0.75_256.json", "well_0.75_256.csv", "well_sweep_epsilon.csv")})
        assert files[0] == files[1]

    # every solve of these configs converges well inside its budget, so the
    # CLI's own solve is wrapped to run for real and come back marked stalled
    @staticmethod
    def stall(monkeypatch, module, name, when=lambda *args: True):
        real = getattr(module, name)

        def stalled(*args, **kwargs):
            out = real(*args, **kwargs)
            return replace(out, stop_reason="budget") if when(*args) else out

        monkeypatch.setattr(module, name, stalled)

    def test_stalled_c_inf_marks_sweep_row(self, tmp_path, capsys, monkeypatch):
        self.stall(monkeypatch, nehari, "level_c_infinity")
        short = json.loads(json.dumps(WELL))
        short["sweep"]["values"] = [0.0]
        code, _, _ = main_in_process(capsys, "sweep", short, tmp_path)
        assert code == 2
        rows = list(csv.DictReader(open(tmp_path / "out" / "well_sweep_epsilon.csv")))
        assert rows[0]["converged"] == "true"
        assert rows[0]["status"] == "nonconverged"
        assert rows[0]["c_inf"] == rows[0]["attained"] == "nan"

    def test_stalled_c_inf_exits_two_naming_it(self, tmp_path, capsys, monkeypatch):
        self.stall(monkeypatch, nehari, "level_c_infinity")
        short = {k: v for k, v in WELL.items() if k != "sweep"}
        code, out, _ = main_in_process(capsys, "ground-state", short, tmp_path)
        assert code == 2
        assert out.startswith("converged: ")
        assert "did not converge: the c_inf solve" in out
        report = json.loads((tmp_path / "out" / "well_0.75_256.json").read_text())
        assert report["c_infinity"] is None and report["attained"] is None
        assert report["status"] == "nonconverged"

    def test_stalled_refinement_exits_two_naming_it(self, tmp_path, capsys, monkeypatch):
        # only the doubled-window solve (L = 40) is marked; the well's level is
        # attained, so the stall alone makes the exit 2
        self.stall(monkeypatch, cli, "ground_state", lambda prob, cfg, start: prob.grid.L == 40.0)
        short = {k: v for k, v in WELL.items() if k != "sweep"}
        code, out, _ = main_in_process(capsys, "ground-state", short, tmp_path, "--refine")
        assert code == 2
        assert "did not converge: the doubled-window solve" in out
        assert "2N" not in out
        report = json.loads((tmp_path / "out" / "well_0.75_256.json").read_text())
        assert report["truncation_err"] is None and report["refinement_drift"] is not None
        assert report["attained"] is True and report["status"] == "nonconverged"

    def test_seam_state_writes_no_truncation_error(self, tmp_path, capsys):
        # a state at the window's edge is cut in two by the doubled window,
        # whose solve then runs out its budget: its drift is not a number
        seam = {k: v for k, v in BUMP.items() if k != "sweep"}
        seam["solver"] = dict(BUMP["solver"], start={"center": -20.0})
        code, out, _ = main_in_process(capsys, "ground-state", seam, tmp_path, "--refine")
        assert code == 2
        assert "did not converge: the doubled-window solve" in out
        report = json.loads((tmp_path / "out" / "bump_0.75_256.json").read_text())
        assert report["truncation_err"] is None and report["refinement_drift"] is not None
        assert report["status"] == "nonconverged"


class TestConfigErrors:
    def test_fixed_step_rule_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(CANON))
        cfg["solver"]["step_rule"] = {"kind": "fixed"}
        code, _, err = main_in_process(capsys, "ground-state", cfg, tmp_path)
        assert code == 1
        assert "fixed" in err

    @pytest.mark.parametrize("section,key", [("nonlinearity", "p"),
                                             ("potential", "V0"),
                                             ("potential", "Vinf")])
    def test_missing_nested_key_named(self, tmp_path, capsys, section, key):
        cfg = json.loads(json.dumps(WELL))
        del cfg[section][key]
        code, _, err = main_in_process(capsys, "ground-state", cfg, tmp_path)
        assert code == 1
        assert f"'{section}.{key}'" in err

    def test_code_in_potential_expression_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(BUMP))
        cfg["potential"]["expr"] = EXPLOIT
        code, _, err = main_in_process(capsys, "ground-state", cfg, tmp_path)
        assert code == 1
        assert "may not contain" in err

    def test_huge_power_in_expression_is_one_error_line(self, tmp_path, capsys):
        # read as floats, 9**9**9 overflows at once instead of running for minutes
        cfg = json.loads(json.dumps(BUMP))
        cfg["potential"]["expr"] = "9**9**9"
        code, _, err = main_in_process(capsys, "ground-state", cfg, tmp_path)
        assert code == 1
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert "out of range" in err

    @pytest.mark.parametrize("terms", [400, 200_000])
    def test_deeply_nested_expression_is_one_error_line(self, tmp_path, capsys, terms):
        # ast.parse and ast.unparse recurse once per term of a sum, past Python's limit
        cfg = json.loads(json.dumps(BUMP))
        cfg["potential"]["expr"] = " + ".join(["t"] * terms)
        code, _, err = main_in_process(capsys, "ground-state", cfg, tmp_path)
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "nested too deeply" in lines[0] and "Traceback" not in err

    @pytest.mark.parametrize("expr,t", [("1/t", "0"), ("log(t)", "-20")])
    def test_non_finite_potential_is_one_error_line(self, tmp_path, capsys, expr, t):
        # numpy warns on the way to the non-finite value; only the error is printed
        cfg = json.loads(json.dumps(BUMP))
        cfg["potential"]["expr"] = expr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = main_in_process(capsys, "ground-state", cfg, tmp_path)
        assert code == 1
        assert err.splitlines() == [f"error: potential expression {expr!r} is not finite at t = {t}"]

    def test_three_hundred_term_expression_solves(self, tmp_path):
        # the well plus 299 zero terms: the same potential, nested 300 deep
        cfg = dict(WELL, potential=dict(WELL["potential"], expr=WELL_EXPR + " + 0.0 * t" * 299))
        r = run_cli("ground-state", "--config", write_config(tmp_path / "cfg.json", cfg),
                    "--out", str(tmp_path / "out"))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "out" / "well_0.75_256.json").is_file()

    @pytest.mark.parametrize("command,section,key,value", [
        ("ground-state", None, "N", "abc"),
        ("ground-state", "solver", "max_iters", "many"),
        ("sweep", "sweep", "values", ["zz"]),
    ])
    def test_unreadable_number_named(self, tmp_path, capsys, command, section, key, value):
        cfg = json.loads(json.dumps(WELL))
        (cfg[section] if section else cfg)[key] = value
        code, _, err = main_in_process(capsys, command, cfg, tmp_path)
        assert code == 1
        assert f"'{section + '.' if section else ''}{key}'" in err

    @pytest.mark.parametrize("section,key,value", [(None, "N", 64.5),
                                                   ("solver", "max_iters", 50.9)])
    def test_fractional_integer_named(self, tmp_path, capsys, section, key, value):
        cfg = json.loads(json.dumps(CANON))
        (cfg[section] if section else cfg)[key] = value
        code, _, err = main_in_process(capsys, "ground-state", cfg, tmp_path)
        assert code == 1
        assert f"'{section + '.' if section else ''}{key}'" in err
        assert "fractional part" in err
        assert not list((tmp_path / "out").glob("*.json"))
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("key,value", [("width", 0.0), ("width", -1.0),
                                           ("width", math.nan), ("center", math.inf),
                                           ("amplitude", math.nan)])
    def test_degenerate_start_named(self, tmp_path, capsys, key, value):
        cfg = json.loads(json.dumps(CANON))
        cfg["solver"]["start"] = {key: value}
        code, out, err = main_in_process(capsys, "ground-state", cfg, tmp_path)
        assert code == 1
        assert f"'solver.start.{key}'" in err
        assert "RuntimeWarning" not in out + err
        assert not list((tmp_path / "out").glob("*.json"))

    def test_integral_float_accepted(self, tmp_path, capsys):
        cfg = dict(CANON, N=64.0)
        code, _, _ = main_in_process(capsys, "ground-state", cfg, tmp_path)
        assert code == 0
        assert (tmp_path / "out" / "canon_0.75_64.json").is_file()

    def test_fractional_N_in_sweep_exits_one(self, tmp_path, capsys):
        cfg = dict(CANON, sweep={"parameter": "N", "values": [64, 64.5]})
        code, _, err = main_in_process(capsys, "sweep", cfg, tmp_path)
        assert code == 1
        assert "'sweep.values'" in err
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("command,base,path,value,named", [
        ("ground-state", CANON, ("solver", "start"), "centre", "'solver.start'"),
        ("ground-state", CANON, ("solver", "gradtol"), 1e-12, "'solver.gradtol'"),
        ("ground-state", WELL, ("potential", "flags"), True, "'potential.flags'"),
        ("ground-state", BUMP, ("potential", "flags"), {"below_Vinf": "false"},
         "'potential.flags.below_Vinf'"),
        ("ground-state", WELL, ("potential", "flags"), {"radial": True},
         "'potential.flags.radial'"),
        ("sweep", WELL, ("sweep",), [0.0, 0.1], "'sweep'"),
        ("sweep", WELL, ("sweep",), {"parameter": "epsilon", "values": 0.1},
         "'sweep.values'"),
        ("ground-state", CANON, ("nonlinearity",), [3.0], "'nonlinearity'"),
        ("sweep", P_SWEEP, ("nonlinearity",), [3.0], "'nonlinearity'"),
        ("ground-state", CANON, ("nonlinearity", "kind"), "custom", "power nonlinearity only"),
        ("ground-state", CANON, ("solver", "start"), {"kind": "sech"}, "gaussian_bump start only"),
        ("sweep", WELL, ("sweep", "parameter"), "V0", "'V0'"),
    ], ids=["start-not-object", "unknown-solver-key", "flags-not-object", "string-flag",
            "unknown-flag", "sweep-not-object", "values-not-list", "nonlinearity-not-object",
            "p-sweep-nonlinearity-not-object", "custom-kind", "sech-start",
            "potential-floor-parameter"])
    def test_malformed_section_named(self, tmp_path, capsys, command, base, path, value,
                                     named):
        cfg = json.loads(json.dumps(base))
        section = cfg
        for k in path[:-1]:
            section = section[k]
        section[path[-1]] = value
        code, _, err = main_in_process(capsys, command, cfg, tmp_path)
        assert code == 1
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section,value,named", [
        ("potential", {"expresion": WELL_EXPR, "V0": 2.0, "Vinf": 2.0},
         "'potential.expresion'"),
        ("nonlinearity", {"kind": "power", "p": 3.0, "p_0": 9.0}, "'nonlinearity.p_0'"),
    ], ids=["potential", "nonlinearity"])
    def test_unknown_problem_key_named(self, tmp_path, capsys, section, value, named):
        # dropped, the misspelt expr would leave the constant V = 2 to solve
        cfg = dict(CANON, **{section: value})
        code, _, err = main_in_process(capsys, "ground-state", cfg, tmp_path)
        assert code == 1
        assert named in err
        assert not list((tmp_path / "out").glob("*.json"))

    @pytest.mark.parametrize("section,key", [("solver", "max_iters"), (None, "alpha")])
    def test_boolean_number_named(self, tmp_path, capsys, section, key):
        # int(True) == 1, so an unchecked true would run one iteration
        cfg = json.loads(json.dumps(CANON))
        (cfg[section] if section else cfg)[key] = True
        code, _, err = main_in_process(capsys, "ground-state", cfg, tmp_path)
        assert code == 1
        assert f"'{section + '.' if section else ''}{key}'" in err
        assert "boolean" in err

    @pytest.mark.parametrize("command", ["ground-state", "sweep"])
    @pytest.mark.parametrize("cfg,named", [
        (dict(WELL, grad_tol=1e-11, max_iters=3), "'grad_tol'"),
        ([1, 2], "JSON object"),
        # the edge proxy's tolerance is a module constant, not a config key
        (dict(WELL, edge_tol=0.1), "'edge_tol'"),
    ], ids=["solver-keys-at-top-level", "list", "edge-tol"])
    def test_top_level_checked(self, tmp_path, capsys, command, cfg, named):
        # misplaced, the solver keys were ignored and the default solve exited 0
        code, _, err = main_in_process(capsys, command, cfg, tmp_path)
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]
        assert not (tmp_path / "out").exists()

    def test_internal_value_error_propagates(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "_run_point", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main_in_process(capsys, "ground-state", CANON, tmp_path)


class TestVerifyCommand:
    def test_single_suite_passes(self):
        r = run_cli("verify", "--suite", "spectral")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "PASS" in r.stdout
        assert "FAIL" not in r.stdout

    def test_every_suite_passes(self):
        r = run_cli("verify")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "FAIL" not in r.stdout
        for name in ("spectral", "spaces", "nehari", "rearrange", "theorems"):
            assert f"suite {name}:" in r.stdout

    def test_unknown_suite_exits_one(self, capsys):
        assert cli.main(["verify", "--suite", "nosuch"]) == 1
        err = capsys.readouterr().err
        assert "nosuch" in err
        for name in ("spectral", "spaces", "nehari", "rearrange", "theorems"):
            assert name in err

    def test_seed_changes_nothing_about_verdict(self):
        a = run_cli("verify", "--suite", "rearrange", "--seed", "1")
        b = run_cli("verify", "--suite", "rearrange", "--seed", "77")
        assert a.returncode == 0 and b.returncode == 0


class TestRearrangeCommand:
    def test_round_trip(self, tmp_path):
        import math

        N, L = 64, 10.0
        dx = 2 * L / N
        xs = [-L + j * dx for j in range(N)]
        lines = ["x,u"] + [f"{x:.17g},{math.exp(-x * x):.17g}" for x in xs]
        src = tmp_path / "bump.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        r = run_cli("rearrange", "--in", str(src), "--out", str(out), "--alpha", "0.75")
        assert r.returncode == 0, r.stderr
        rows = list(csv.DictReader(open(out / "bump_rearranged.csv")))
        assert len(rows) == N
        payload = json.loads((out / "bump_rearranged.json").read_text())
        assert payload["polya_szego"]["satisfied"] is True
        u = np.array([float(r["u"]) for r in rows])
        star = np.array([float(r["u_star"]) for r in rows])
        assert np.allclose(np.sort(u), np.sort(star))

    def test_nonuniform_grid_rejected(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("x,u\n0,1\n1,2\n3,1\n4,0\n5,0\n6,0\n7,0\n8,0\n")
        r = run_cli("rearrange", "--in", str(src), "--out", str(tmp_path / "o"))
        assert r.returncode == 1

    def test_non_numeric_input_exits_one(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("x,u\n0,1\n1,oops\n")
        code = cli.main(["rearrange", "--in", str(src), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bad.csv" in capsys.readouterr().err

    def test_missing_input_exits_one(self, tmp_path):
        r = run_cli("rearrange", "--out", str(tmp_path))
        assert r.returncode == 1


class TestTopLevel:
    def test_no_subcommand_exits_one(self):
        r = run_cli()
        assert r.returncode == 1

    def test_import_leaves_scipy_out(self):
        r = subprocess.run(
            [sys.executable, "-c",
             "import sys, fracnls; "
             "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_power_solve_leaves_numpy_polynomial_out(self):
        # the quadrature rules of the custom primitive are built on first use
        r = subprocess.run(
            [sys.executable, "-c",
             "import sys, fracnls as fr; "
             "g = fr.make_grid(20.0, 64); "
             "fr.ground_state(fr.make_problem(g, 0.75, fr.power_nonlinearity(3.0), "
             "fr.Potential.constant(1.0))); "
             "print('numpy.polynomial' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"

    def test_cli_import_leaves_multiprocessing_out(self):
        # only sweep --jobs N > 1 needs a process pool; it imports one itself
        r = subprocess.run(
            [sys.executable, "-c",
             "import sys, fracnls.cli; "
             "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
             "if m in sys.modules])"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_version_importable(self):
        r = subprocess.run(
            [sys.executable, "-c", "import fracnls; print(fracnls.__version__)"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0
        assert r.stdout.strip()
