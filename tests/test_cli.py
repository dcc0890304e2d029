"""The command line surface, driven in-process through cli.main."""

import hashlib
import json
import math
import os
import tempfile

import numpy as np
import pytest

from gupmech import checks, csvio
from gupmech.checks import CheckResult
from gupmech.cli import main
from gupmech.csvio import read_events, read_trajectory

FREE_EXACT = """\
model.kind = exact-1d
model.mass = 1.0
model.beta = 0.01
initial.x = 0.0
initial.p = 1.0
t_end = 1.0
dt = 0.01
"""

BOOST_EXACT = """\
model.kind = exact-1d
model.mass = 1.0
model.beta = 0.01
boost.velocity = 1.0
boost.scale = 1.0
"""


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    # default output files land in the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GUP_UNITS", raising=False)
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_free_particle_run(self, tmp_path, capsys):
        cfg = write(tmp_path, "free.cfg", FREE_EXACT)
        code, out, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["command"] == "simulate"
        assert report["trajectory"]["samples"] == 101
        assert report["trajectory"]["energy_drift"] < 1e-13
        endpoint = report["trajectory"]["endpoint"]
        assert endpoint["x"][0] == pytest.approx(1.0134474588712057, rel=1e-10)
        table = read_trajectory(tmp_path / "trajectory.csv")
        assert table.times.size == 101
        assert float(np.max(np.abs(table.momenta - 1.0))) < 1e-12

    def test_output_path_honored(self, tmp_path, capsys):
        cfg = write(tmp_path, "free.cfg",
                    FREE_EXACT + "output.trajectory = run.csv\n"
                                 "output.report = report.json\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 0
        assert (tmp_path / "run.csv").exists()
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk == json.loads(out)

    def test_runs_are_deterministic(self, tmp_path, capsys):
        cfg = write(tmp_path, "free.cfg", FREE_EXACT)
        code, out1, _ = run_cli(capsys, "simulate", "--config", cfg)
        blob1 = (tmp_path / "trajectory.csv").read_bytes()
        code, out2, _ = run_cli(capsys, "simulate", "--config", cfg)
        blob2 = (tmp_path / "trajectory.csv").read_bytes()
        assert blob1 == blob2
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2

    def test_missing_time_grid_is_a_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "no_grid.cfg",
                    "model.kind = exact-1d\nmodel.mass = 1.0\n"
                    "model.beta = 0.01\ninitial.x = 0.0\ninitial.p = 1.0\n")
        code, _, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert "gupmech: error" in err

    def test_domain_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path, "blowup.cfg",
                    "model.kind = exact-1d\nmodel.mass = 1.0\n"
                    "model.beta = 1.0\nmodel.potential = uniform-field\n"
                    "model.force = 5.0\ninitial.x = 0.0\ninitial.p = 1.4\n"
                    "t_end = 2.0\ndt = 0.01\n")
        code, _, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 3
        assert "domain error" in err
        assert "step" in err

    @pytest.mark.parametrize("x0, named", [("1e200", "initial state"), ("1e50", "step 1 of 2")])
    def test_non_finite_run_writes_no_trajectory(self, tmp_path, capsys, x0, named):
        # 0.5 k x0^2 overflows at once for x0 = 1e200; for x0 = 1e50 the
        # first step's momentum makes the quartic energy overflow.
        cfg = write(tmp_path, "overflow.cfg",
                    "model.kind = first-order-1d\nmodel.mass = 1.0\nmodel.beta = 0.01\n"
                    "model.potential = harmonic\nmodel.stiffness = 1e200\n"
                    f"initial.x = {x0}\ninitial.p = 0\nt_end = 1\ndt = 0.5\n")
        code, out, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err.startswith("gupmech: error: ") and named in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("mass, force", [("1e-10", "1e150"), ("1", "1e200")],
                             ids=["ratio-overflow", "momentum-overflow"])
    def test_overflow_inside_a_step_names_the_step(self, tmp_path, capsys, mass, force):
        # The first stage pushes |p| to force * dt / 2.  With the small mass,
        # (|p| / (m w))^2 overflows; with the large force, |p|^2 is inf.
        cfg = write(tmp_path, "overflow.cfg",
                    "model.kind = effective-sqrt\nmodel.sqrt_sign = 1\n"
                    f"model.mass = {mass}\nmodel.beta = 0.01\nmodel.scale_velocity = 1.0\n"
                    f"model.potential = uniform-field\nmodel.force = {force}\n"
                    "initial.x = 0\ninitial.p = 0\nt_end = 2\ndt = 1\n")
        code, out, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err == (f"gupmech: error: {cfg}: trajectory left the float range "
                       "at step 1 of 2 (t = 1)\n")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_unallocatable_step_count_writes_no_trajectory(self, tmp_path, capsys):
        # 1e18 steps: numpy refuses the 8-EiB arrays before it writes any
        cfg = write(tmp_path, "long.cfg",
                    FREE_EXACT.replace("t_end = 1.0", "t_end = 1e9")
                              .replace("dt = 0.01", "dt = 1e-9"))
        code, out, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err.startswith("gupmech: error: t_end / dt = 1e+18 asks for "
                              "1000000000000000000 steps")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_infinite_step_count_writes_no_trajectory(self, tmp_path, capsys):
        # t_end / dt is inf, so no step count is rounded and no array is sized
        cfg = write(tmp_path, "inf.cfg",
                    FREE_EXACT.replace("t_end = 1.0", "t_end = 1e300")
                              .replace("dt = 0.01", "dt = 1e-300"))
        code, out, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err == "gupmech: error: t_end / dt = inf asks for more steps than memory can hold\n"
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("fails", [False, True])
    def test_a_long_run_leaves_no_process_or_file(self, tmp_path, capsys, monkeypatch, two_cpus,
                                                  fails):
        # 5,001 rows: a forked child formats the front blocks while RK4 steps
        cfg = write(tmp_path, "long.cfg",
                    FREE_EXACT.replace("t_end = 1.0", "t_end = 5.0")
                              .replace("dt = 0.01", "dt = 0.001"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        here, write_rows = os.getpid(), csvio._write_rows
        if fails:
            def write_rows_here(*args):
                if os.getpid() != here:
                    raise RuntimeError("row formatting failed in the child")
                return write_rows(*args)

            monkeypatch.setattr(csvio, "_write_rows", write_rows_here)
        code, out, err = run_cli(capsys, "simulate", "--config", cfg)
        # a child that fails leaves its blocks to this process: the same file
        assert (code, err) == (0, "")
        assert json.loads(out)["trajectory"]["samples"] == 5001
        assert read_trajectory(tmp_path / "trajectory.csv").times.size == 5001
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "simulate", "--config",
                               str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_bad_config_reports_the_line(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg",
                    "model.kind = exact-1d\nmodel.spin = 2\n")
        code, _, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert "line 2" in err


class TestTransform:
    def _events(self, tmp_path):
        return write(tmp_path, "events.csv", "t,x1\n0.0,1.0\n1.0,0.0\n")

    def test_exact_boost_rows(self, tmp_path, capsys):
        cfg = write(tmp_path, "boost.cfg", BOOST_EXACT)
        events = self._events(tmp_path)
        code, out, _ = run_cli(capsys, "transform", "--config", cfg,
                               "--events", events)
        assert code == 0
        report = json.loads(out)
        assert report["events"]["count"] == 2
        assert report["events"]["interval_residual"] < 1e-12
        mapped = read_events(tmp_path / "events_transformed.csv")
        root_half = 0.7071067811865475
        assert mapped[0, 0] == pytest.approx(-root_half, rel=1e-15)
        assert mapped[0, 1] == pytest.approx(root_half, rel=1e-15)

    def test_lorentz_boost_rows(self, tmp_path, capsys):
        cfg = write(tmp_path, "lorentz.cfg",
                    "model.kind = exact-1d\nmodel.mass = 1.0\n"
                    "model.beta = 0.01\nboost.velocity = 0.6\n"
                    "boost.law = lorentz\nboost.light_speed = 1.0\n"
                    "output.events = lor.csv\n")
        events = self._events(tmp_path)
        code, out, _ = run_cli(capsys, "transform", "--config", cfg,
                               "--events", events)
        assert code == 0
        mapped = read_events(tmp_path / "lor.csv")
        assert mapped[0, 0] == pytest.approx(0.75, rel=1e-15)
        assert mapped[0, 1] == pytest.approx(1.25, rel=1e-15)
        assert json.loads(out)["events"]["interval_residual"] < 1e-12

    def test_ordinary_law_has_no_interval_claim(self, tmp_path, capsys):
        cfg = write(tmp_path, "plain.cfg",
                    BOOST_EXACT + "boost.law = ordinary\n")
        code, out, _ = run_cli(capsys, "transform", "--config", cfg,
                               "--events", self._events(tmp_path))
        assert code == 0
        assert json.loads(out)["events"]["interval_residual"] is None

    def test_boost_group_required(self, tmp_path, capsys):
        cfg = write(tmp_path, "nob.cfg",
                    "model.kind = exact-1d\nmodel.mass = 1.0\n"
                    "model.beta = 0.01\n")
        code, _, err = run_cli(capsys, "transform", "--config", cfg,
                               "--events", self._events(tmp_path))
        assert code == 2
        assert "boost.velocity" in err

    def test_superluminal_lorentz_is_a_domain_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "fast.cfg",
                    "model.kind = exact-1d\nmodel.mass = 1.0\n"
                    "model.beta = 0.01\nboost.velocity = 2.0\n"
                    "boost.law = lorentz\nboost.light_speed = 1.0\n")
        code, _, err = run_cli(capsys, "transform", "--config", cfg,
                               "--events", self._events(tmp_path))
        assert code == 3

    @pytest.mark.parametrize("boost, message", [
        ("boost.velocity = 1.0\n", "interval between CSV rows 2 and 3 is not finite"),
        ("boost.law = ordinary\nboost.velocity = 1e200\n",
         "boosted event on CSV row 3 is not finite"),
        ("boost.law = first-order\nboost.velocity = 1e160\nboost.scale = 1e150\n",
         "boosted event on CSV row 2 is not finite"),
    ], ids=["exact-interval", "ordinary-row", "first-order-row"])
    def test_non_finite_boost_or_interval_writes_no_csv(self, tmp_path, capsys, boost, message):
        # Exact law at the derived u = 6.12: both rows stay finite, but
        # u^2 dt^2 overflows.  Ordinary law: V t overflows on row 3.
        # First-order law: V^2 overflows, so every row leaves the range.
        cfg = write(tmp_path, "far.cfg",
                    "model.kind = exact-1d\nmodel.mass = 1.0\nmodel.beta = 0.01\n" + boost)
        events = write(tmp_path, "events.csv", "t,x1\n0.0,1.0\n1e200,-2.0\n")
        code, out, err = run_cli(capsys, "transform", "--config", cfg, "--events", events)
        assert code == 2
        assert out == ""
        assert err == f"gupmech: error: {events}: {message}\n"
        assert not (tmp_path / "events_transformed.csv").exists()

    @pytest.mark.parametrize("cell", ["one", "nan", "inf"])
    def test_malformed_events_file(self, tmp_path, capsys, cell):
        cfg = write(tmp_path, "boost.cfg", BOOST_EXACT)
        events = write(tmp_path, "events.csv", f"t,x1\n0.0,{cell}\n")
        code, _, err = run_cli(capsys, "transform", "--config", cfg,
                               "--events", events)
        assert code == 2
        number = "a number" if cell == "one" else "a finite number"
        assert err == f"gupmech: error: {events}: row 2: not {number}: {cell!r}\n"


    def test_a_cell_past_the_field_limit(self, tmp_path, capsys):
        cfg = write(tmp_path, "boost.cfg", BOOST_EXACT)
        events = write(tmp_path, "events.csv", "t,x1\n0.0," + "1" * 200_000 + "\n")
        code, out, err = run_cli(capsys, "transform", "--config", cfg, "--events", events)
        assert (code, out) == (2, "")
        assert err.startswith(f"gupmech: error: {events}: row 2: field larger than field limit")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["boost.cfg", "events.csv"]


# at gamma = 0 no velocity scale u = alpha / gamma exists, and each command
# names the one key it reads u from
@pytest.mark.parametrize("command, text, key", [
    ("simulate", "model.kind = effective-sqrt\ninitial.x = 0.0\ninitial.p = 1.0\n"
                 "t_end = 1.0\ndt = 0.1\n", "model.scale_velocity"),
    ("transform", "model.kind = exact-1d\nboost.velocity = 0.5\n", "boost.scale"),
], ids=["simulate", "transform"])
def test_gamma_zero_names_the_key_the_command_reads(tmp_path, capsys, command, text, key):
    cfg = write(tmp_path, "zero.cfg", text + "model.mass = 1.0\nmodel.beta = 0.0\n"
                "output.report = report.json\n")
    events = write(tmp_path, "events.csv", "t,x1\n0.0,1.0\n1.0,-2.0\n")
    argv = ["--events", events] if command == "transform" else []
    code, out, err = run_cli(capsys, command, "--config", cfg, *argv)
    assert (code, out) == (2, "")
    assert err == ("gupmech: error: no velocity scale can be derived with gamma = 0; "
                   f"set {key} explicitly\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "zero.cfg"]


class TestUnusablePaths:
    """A path that cannot be read or written is a usage error naming the path."""

    def test_events_path_is_a_directory(self, tmp_path, capsys):
        cfg = write(tmp_path, "boost.cfg", BOOST_EXACT)
        (tmp_path / "in_dir").mkdir()
        code, out, err = run_cli(capsys, "transform", "--config", cfg,
                                 "--events", str(tmp_path / "in_dir"))
        assert code == 2 and out == ""
        assert "in_dir" in err

    def test_events_file_is_not_utf8(self, tmp_path, capsys):
        cfg = write(tmp_path, "boost.cfg", BOOST_EXACT)
        events = tmp_path / "latin.csv"
        events.write_bytes(b"\xff\xfe,x1\n0.0,1.0\n")
        code, _, err = run_cli(capsys, "transform", "--config", cfg,
                               "--events", str(events))
        assert code == 2
        assert "latin.csv" in err and "UTF-8" in err
        # The config file names itself the same way, under any command.
        latin_cfg = tmp_path / "latin.cfg"
        latin_cfg.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "simulate", "--config", str(latin_cfg))
        assert code == 2 and out == ""
        assert "latin.cfg" in err and "not UTF-8" in err

    def test_events_output_is_a_directory(self, tmp_path, capsys):
        cfg = write(tmp_path, "boost.cfg", BOOST_EXACT + "output.events = out_dir\n")
        (tmp_path / "out_dir").mkdir()
        code, _, err = run_cli(capsys, "transform", "--config", cfg,
                               "--events", write(tmp_path, "events.csv", "t,x1\n0.0,1.0\n"))
        assert code == 2
        assert "out_dir" in err

    def test_trajectory_output_is_a_directory(self, tmp_path, capsys):
        cfg = write(tmp_path, "free.cfg", FREE_EXACT + "output.trajectory = out_dir\n")
        (tmp_path / "out_dir").mkdir()
        code, _, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert "out_dir" in err


class TestReportPathClash:
    """output.report may not name a CSV of the same run; nothing is written on a clash."""

    @pytest.mark.parametrize("outputs, named", [
        ("output.trajectory = run.csv\noutput.report = ./run.csv\n", "run.csv"),
        ("output.trajectory = ./run.csv\noutput.report = run.csv\n", "./run.csv"),
        ("output.report = trajectory.csv\n", "trajectory.csv"),
    ], ids=["dot-report", "dot-trajectory", "default-trajectory"])
    def test_simulate_report_on_the_trajectory(self, tmp_path, capsys, outputs, named):
        cfg = write(tmp_path, "free.cfg", FREE_EXACT + outputs)
        code, out, err = run_cli(capsys, "simulate", "--config", cfg)
        assert (code, out) == (2, "")
        assert err == f"gupmech: error: output.report and output.trajectory both name {named}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["free.cfg"]

    @pytest.mark.parametrize("outputs, key, named", [
        ("output.events = out.csv\noutput.report = ./out.csv\n", "output.events", "out.csv"),
        ("output.report = events_transformed.csv\n", "output.events", "events_transformed.csv"),
        ("output.report = ./events.csv\n", "--events", "events.csv"),
        ("output.events = events.csv\noutput.report = events.csv\n", "output.events",
         "events.csv"),
    ], ids=["dot-report", "default-events", "events-input", "events-input-and-output"])
    def test_transform_report_on_an_events_file(self, tmp_path, capsys, outputs, key, named):
        cfg = write(tmp_path, "boost.cfg", BOOST_EXACT + outputs)
        write(tmp_path, "events.csv", "t,x1\n0.0,1.0\n1.0,0.0\n")
        code, out, err = run_cli(capsys, "transform", "--config", cfg, "--events", "events.csv")
        assert (code, out) == (2, "")
        assert err == f"gupmech: error: output.report and {key} both name {named}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["boost.cfg", "events.csv"]
        assert (tmp_path / "events.csv").read_text() == "t,x1\n0.0,1.0\n1.0,0.0\n"

    def test_transformed_events_may_replace_the_input(self, tmp_path, capsys):
        cfg = write(tmp_path, "boost.cfg", BOOST_EXACT + "output.events = ./events.csv\n"
                                                         "output.report = report.json\n")
        events = write(tmp_path, "events.csv", "t,x1\n0.0,1.0\n1.0,0.0\n")
        code, out, _ = run_cli(capsys, "transform", "--config", cfg, "--events", events)
        assert code == 0
        assert read_events(events)[0, 1] == pytest.approx(0.7071067811865475, rel=1e-15)
        assert json.loads((tmp_path / "report.json").read_text()) == json.loads(out)


class TestConfigPathClash:
    """No output of simulate or transform may name its --config; nothing is written on a clash."""

    @pytest.mark.parametrize("command, key", [
        ("simulate", "output.trajectory"), ("simulate", "output.report"),
        ("transform", "output.events"), ("transform", "output.report"),
    ])
    def test_an_output_on_the_config(self, tmp_path, capsys, command, key):
        text = (FREE_EXACT if command == "simulate" else BOOST_EXACT) + f"{key} = ./run.cfg\n"
        cfg = write(tmp_path, "run.cfg", text)
        write(tmp_path, "events.csv", "t,x1\n0.0,1.0\n1.0,0.0\n")
        code, out, err = run_cli(capsys, command, "--config", cfg, "--events", "events.csv") \
            if command == "transform" else run_cli(capsys, command, "--config", cfg)
        assert (code, out) == (2, "")
        clash = f"output.report and --config both name {cfg}" if key == "output.report" \
            else f"{key} and --config both name ./run.cfg"
        assert err == f"gupmech: error: {clash}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "run.cfg"]
        assert (tmp_path / "run.cfg").read_text() == text


class TestConstants:
    def test_electron_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        assert code == 0
        report = json.loads(out)
        assert report["c_gamma"] == pytest.approx(4.1854622147319584e-23,
                                                  rel=1e-14)
        assert report["u_over_c_3d"] == pytest.approx(1.1946111907069757e22,
                                                      rel=1e-14)
        assert report["c_eff_rel_deviation_1d"] == pytest.approx(
            2.335745860126527e-45, rel=1e-14)
        assert report["assumptions"]["minimal_length"] == "planck length"

    def test_mass_scaling(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        base = json.loads(out)
        code, out, _ = run_cli(capsys, "constants", "--mass",
                               repr(2 * 9.1093837015e-31))
        doubled = json.loads(out)
        assert doubled["gamma"] == pytest.approx(2 * base["gamma"], rel=1e-12)
        assert doubled["c_eff_rel_deviation_3d"] == pytest.approx(
            4 * base["c_eff_rel_deviation_3d"], rel=1e-12)

    def test_nonpositive_mass_rejected(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--mass", "-1.0")
        assert code == 2


class TestCheck:
    def test_algebra_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "algebra")
        assert code == 0
        report = json.loads(out)
        assert report["failures"] == 0
        assert all(r["passed"] for r in report["results"])

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "algebra",
                               "--tolerance-scale", "0.0")
        assert code == 1
        assert json.loads(out)["failures"] > 0

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check", "--suite", "geometry"])
        assert err.value.code == 2

    def test_a_range_reports_each_seeds_values_and_each_rows_worst(self, capsys):
        singles = []
        for seed in range(3):
            code, out, _ = run_cli(capsys, "check", "--suite", "frames", "--seed", str(seed))
            singles.append(json.loads(out)["results"])
        code, out, err = run_cli(capsys, "check", "--suite", "frames", "--seed", "0-2")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["seed"], report["failures"]) == ("0-2", 0)
        assert report["seeds"] == [
            {"seed": seed, "measured": {r["name"]: r["measured"].hex() for r in results}}
            for seed, results in enumerate(singles)]
        for k, row in enumerate(report["rows"]):
            margins = [results[k]["measured"] / results[k]["tolerance"] for results in singles]
            assert row == {"name": singles[0][k]["name"], "failing_seeds": [],
                           "worst_margin": max(margins), "worst_seed": margins.index(max(margins))}

    # seed 0 measures 0.5 of its tolerance, seed 1 `measured`
    @pytest.mark.parametrize("measured, status", [(0.5, 0), (2.0, 1), (math.nan, 1)],
                             ids=["passing", "failing", "nan"])
    def test_a_range_exits_1_on_a_row_failing_on_any_seed(self, capsys, monkeypatch,
                                                          measured, status):
        def one_row(suite, seeds, tolerance_scale):
            return [[CheckResult("trivial", value, 1.0, value <= 1.0, "")]
                    for value in (measured if seed else 0.5 for seed in seeds)]

        monkeypatch.setattr(checks, "run_seeds", one_row)
        code, out, _ = run_cli(capsys, "check", "--seed", "0-1")
        row, = json.loads(out)["rows"]
        assert (code, row["failing_seeds"]) == (status, [1] * status)
        assert row["worst_seed"] == (0 if measured == 0.5 else 1)

    # a negative range written after a space reads as an option to argparse
    @pytest.mark.parametrize("argv", [[f"--seed={value}"] for value in (
        "5-3", "-1-5", "-3--1", "1-", "-", "a-b", "1-2-3", "1.5-3", "", "abc")]
        + [["--seed", "-1-5"], ["--seed", "-3--1"], ["--se", "-1-5"], ["--see", "-3--1"]],
        ids=" ".join)
    def test_a_bad_seed_range_is_a_usage_error_naming_seed(self, capsys, argv):
        value = argv[-1].removeprefix("--seed=")
        with pytest.raises(SystemExit) as err:
            main(["check", "--suite", "constants", *argv])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"gupmech check: error: argument --seed: "
            f"expected N or A-B with 0 <= A <= B, got {value!r}")

    def test_a_negative_seed_keeps_its_message(self, capsys):
        assert run_cli(capsys, "check", "--seed", "-1") == (
            2, "", "gupmech: error: --seed must be non-negative, got -1\n")

    @pytest.mark.parametrize("value, seed", [(" 42", 42), ("+7", 7), ("4_2", 42)])
    def test_a_seed_int_reads_is_one_seed(self, capsys, value, seed):
        reports = []
        for text in (value, str(seed)):
            code, out, _ = run_cli(capsys, "check", "--suite", "constants", f"--seed={text}")
            reports.append({**json.loads(out), "wall_time_s": None})
        assert code == 0 and reports[0] == reports[1] and reports[0]["seed"] == seed


@pytest.mark.parametrize("argv", [
    ("check", "--suite", "algebra", "--tolerance-scale", "inf"),
    ("check", "--suite", "algebra", "--tolerance-scale", "nan"),
    ("check", "--suite", "algebra", "--tolerance-scale", "-1.0"),
    ("check", "--suite", "algebra", "--seed", "-1"),
    ("constants", "--mass", "inf"),
    ("constants", "--mass", "nan"),
])
def test_out_of_range_numeric_flag_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{argv[-2]} must be" in err


RELATIVISTIC_RUN = """\
model.kind = relativistic-first-order-1d
model.mass = 1.0
model.beta = 0.0001
model.light_speed = 10.0
initial.x = 0.0
initial.p = 1.0
t_end = 1.0
dt = 0.01
"""


def with_keys(doc, changes):
    """doc with each key in changes set to its value, or dropped for None."""
    entries = dict(line.split(" = ", 1) for line in doc.splitlines())
    entries.update(changes)
    return "".join(f"{k} = {v}\n" for k, v in entries.items() if v is not None)


_SQRT_PLUS = with_keys(FREE_EXACT, {"model.kind": "effective-sqrt", "model.sqrt_sign": "1",
                                    "model.scale_velocity": "2.0"})
_LORENTZ = with_keys(BOOST_EXACT, {"boost.scale": None, "boost.law": "lorentz",
                                   "boost.light_speed": "1.0"})

# Input values whose arithmetic leaves the float range: id -> (command, base, changes).
_FLOAT_RANGE_FAULTS = {
    "gamma-overflow": ("simulate", FREE_EXACT, {"model.beta": None, "model.gamma": "1e200"}),
    "derived-gamma-overflow": ("simulate", FREE_EXACT,
                               {"model.mass": "1e300", "model.beta": "1e300"}),
    "tiny-mass": ("simulate", FREE_EXACT, {"model.mass": "5e-324"}),
    "light-speed-overflow": ("simulate", RELATIVISTIC_RUN, {"model.light_speed": "1e200"}),
    "light-speed-underflow": ("simulate", RELATIVISTIC_RUN, {"model.light_speed": "1e-300"}),
    "relativistic-tiny-mass": ("simulate", RELATIVISTIC_RUN, {"model.mass": "1e-300"}),
    "sqrt-tiny-mass": ("simulate", _SQRT_PLUS, {"model.mass": "1e-200"}),
    "boost-velocity-overflow": ("transform", BOOST_EXACT, {"boost.velocity": "1e200"}),
    "boost-scale-underflow": ("transform", BOOST_EXACT, {"boost.scale": "1e-300"}),
    "first-order-scale-underflow": ("transform", BOOST_EXACT,
                                    {"boost.scale": "1e-300", "boost.law": "first-order"}),
    "lorentz-light-speed-overflow": ("transform", _LORENTZ, {"boost.light_speed": "1e200"}),
}


@pytest.mark.parametrize("command, base, changes", list(_FLOAT_RANGE_FAULTS.values()),
                         ids=list(_FLOAT_RANGE_FAULTS))
def test_float_range_fault_is_a_usage_error(tmp_path, capsys, command, base, changes):
    argv = [command, "--config", write(tmp_path, "range.cfg", with_keys(base, changes))]
    if command == "transform":
        argv += ["--events", write(tmp_path, "events.csv", "t,x1\n0.0,1.0\n1.0,-2.0\n")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("gupmech: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert "range.cfg" in err or "model." in err


def test_constants_mass_overflow_is_a_usage_error(capsys):
    # c * gamma / alpha is about 7e207 here, so its square overflows
    code, out, err = run_cli(capsys, "constants", "--mass", "1e200")
    assert code == 2
    assert out == ""
    assert err.startswith("gupmech: error: --mass 1e+200 left the float range: "
                          "OverflowError") and err.count("\n") == 1


@pytest.mark.parametrize("mass, geometry, shift", [("1.2e-8", "three-d", "1.21599"),
                                                   ("1.4e-8", "one-d", "1.1034")])
def test_constants_mass_past_the_light_speed_edge_names_the_flag_and_geometry(
        capsys, mass, geometry, shift):
    # c~ stops being real at 1.088e-8 kg in the three-d geometry and 1.333e-8 kg in one-d
    code, out, err = run_cli(capsys, "constants", "--mass", mass)
    assert code == 3
    assert out == ""
    assert err == (f"gupmech: domain error: --mass {float(mass)!r} in the {geometry} geometry: "
                   f"deformation too strong: (c gamma / alpha)^2 = {shift} >= 1 leaves no "
                   "real effective light speed\n")


def test_constants_mass_below_both_edges_runs(capsys):
    code, out, err = run_cli(capsys, "constants", "--mass", "1.05e-8")
    assert code == 0 and err == ""
    assert json.loads(out)["assumptions"]["mass_kg"] == 1.05e-8


@pytest.mark.parametrize("mass", ["1e-300", "5e-324"])
def test_constants_mass_underflow_names_the_flag(capsys, mass):
    # gamma = mass * planck_length / hbar underflows to 0 here
    code, out, err = run_cli(capsys, "constants", "--mass", mass)
    assert code == 2
    assert out == ""
    assert err == (f"gupmech: error: --mass {float(mass)!r} left the float range: "
                   "ValueError('gamma must be positive, got 0.0')\n")


class TestUnitsFlag:
    def test_environment_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GUP_UNITS", "SI")
        cfg = write(tmp_path, "free.cfg", FREE_EXACT)
        code, out, _ = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 0
        assert json.loads(out)["units"] == "SI"

    def test_bad_environment_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GUP_UNITS", "bogus")
        cfg = write(tmp_path, "free.cfg", FREE_EXACT)
        code, _, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2
        assert "GUP_UNITS" in err

    @pytest.mark.parametrize("value", ["natural", "bogus"])
    def test_constants_are_always_si(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GUP_UNITS", value)
        code, out, _ = run_cli(capsys, "constants")
        assert code == 0
        assert json.loads(out)["assumptions"]["units"] == "SI"


class TestUsage:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["calibrate"])
        assert err.value.code == 2


def _seeded_events(dim, seed, count=40):
    rng = np.random.default_rng(seed)
    header = "t," + ",".join(f"x{i}" for i in range(1, dim + 1))
    rows = [",".join(repr(float(v)) for v in rng.uniform(-10.0, 10.0, size=1 + dim))
            for _ in range(count)]
    return "\n".join([header] + rows) + "\n"


_PIN_BOOSTS = {
    "exact": "boost.velocity = 0.4\nboost.scale = 1.0\nboost.law = exact\n",
    "first-order": "boost.velocity = 0.4\nboost.scale = 1.0\nboost.law = first-order\n",
    "ordinary": "boost.velocity = 0.4\nboost.scale = 1.0\nboost.law = ordinary\n",
    "lorentz": "boost.velocity = 0.6\nboost.light_speed = 1.0\nboost.law = lorentz\n",
}

# sha256 of the written CSV and the reported interval_residual for each
# (dimension, law); recorded from the per-event implementation.
_PINNED = {
    (1, "exact"): (
        "2bcd68eb2d12950bed4255ec8e33d12f5dd6d06216ad8034dcacff9dde001515",
        3.942887952352456e-15),
    (1, "first-order"): (
        "f6d0a322be40f5854b79b6caf9c483cf0635fac84822c4dbc077aa60ef3498a3",
        None),
    (1, "ordinary"): (
        "3bcda176efb9015f7bee257ac820f9a5884fb621931caaf410cac40b35ee1a3b",
        None),
    (1, "lorentz"): (
        "ea21ceee7f5772548e41fa117754d3782f4a54e6ebbb4186bdd0ca5aafc6d527",
        3.333489690371213e-15),
    (3, "exact"): (
        "33c0ed75edc8249688f7ce2f248433d4cbeb340b8d7305b9478984ae281972d1",
        9.637580298948416e-16),
    (3, "first-order"): (
        "c39022872aa012d9fff20787d2c5deedeff4dd640361e84459d1c3ea3d1181e9",
        None),
    (3, "ordinary"): (
        "b57998888a0c611f8033ffc4f86b490fde82b94a5ed9d015c357d50cedd3ac2d",
        None),
    (3, "lorentz"): (
        "3633467f0390a59095e4d0ca07f2c265d0737a26167dce7693548fa329e313bf",
        2.1524592230829106e-15),
}


class TestTransformPinned:
    @pytest.mark.parametrize("dim,law", sorted(_PINNED))
    def test_output_bytes_and_residual(self, tmp_path, capsys, dim, law):
        model = "exact-1d" if dim == 1 else "exact-3d"
        cfg = write(tmp_path, "pin.cfg",
                    f"model.kind = {model}\nmodel.mass = 1.0\nmodel.beta = 0.01\n"
                    + _PIN_BOOSTS[law])
        events = write(tmp_path, "events.csv", _seeded_events(dim, seed=7 + dim))
        code, out, _ = run_cli(capsys, "transform", "--config", cfg, "--events", events)
        assert code == 0
        digest = hashlib.sha256(
            (tmp_path / "events_transformed.csv").read_bytes()).hexdigest()
        residual = json.loads(out)["events"]["interval_residual"]
        assert (digest, residual) == _PINNED[dim, law]


_REPORT_SIMULATE = """\
model.kind = exact-3d
model.mass = 1.0
model.beta = 0.01
model.potential = harmonic
model.stiffness = 1.0
initial.x = 1.0, 0.0, 0.5
initial.p = 0.0, 1.0, 0.0
t_end = 0.1
dt = 0.05
output.trajectory = run.csv
output.report = report.json
"""


def _transform_config(law):
    return ("model.kind = exact-1d\nmodel.mass = 1.0\nmodel.beta = 0.01\n"
            + _PIN_BOOSTS[law] + "output.events = out.csv\noutput.report = report.json\n")


def _rendered(config):
    """config as render_config echoes it: with the derived gamma after beta."""
    return config.replace("model.beta = 0.01\n", "model.beta = 0.01\nmodel.gamma = 0.1\n")


# Every report, minus wall_time_s, on one fixed input per command.
_REPORTS = {
    "simulate": {
        "command": "simulate",
        "output": {"trajectory_csv": "run.csv"},
        "scenario": _rendered(_REPORT_SIMULATE),
        "trajectory": {
            "endpoint": {
                "energy": 1.1300505045396756,
                "p": [-0.0998300283064595, 0.9949027768595173, -0.04991501415322975],
                "t": 0.1,
                "x": [0.9949026983048636, 0.10185855362476251, 0.4974513491524318],
            },
            "energy_drift": 4.5204138979501514e-10,
            "samples": 3,
        },
        "units": "natural",
    },
    "transform-exact": {
        "boost": {"law": "exact", "scale": 1.0, "velocity": 0.4},
        "command": "transform",
        "events": {"count": 3, "interval_residual": 3.3306690738754696e-16},
        "output": {"events_csv": "out.csv"},
        "scenario": _rendered(_transform_config("exact")),
        "units": "natural",
    },
    "transform-lorentz": {
        "boost": {"law": "lorentz", "light_speed": 1.0, "velocity": 0.6},
        "command": "transform",
        "events": {"count": 3, "interval_residual": 0.0},
        "output": {"events_csv": "out.csv"},
        "scenario": _rendered(_transform_config("lorentz")),
        "units": "natural",
    },
    "constants": {
        "assumptions": {
            "gravitational": 6.6743e-11,
            "light_speed": 299792458.0,
            "mass_kg": 9.1093837015e-31,
            "minimal_length": "planck length",
            "planck_length": 1.61625502392855e-35,
            "reduced_planck": 1.054571817e-34,
            "units": "SI",
        },
        "c_eff_rel_deviation_1d": 2.335745860126527e-45,
        "c_eff_rel_deviation_3d": 3.50361879018979e-45,
        "c_gamma": 4.1854622147319584e-23,
        "command": "constants",
        "gamma": 1.3961199166431193e-31,
        "u_over_c_1d": 1.4630939291253677e+22,
        "u_over_c_3d": 1.1946111907069757e+22,
    },
    "check": {
        "command": "check",
        "failures": 0,
        "results": [
            {"detail": "c*gamma 4.1855e-23, u/c 1.1946e+22, shift 3.5036e-45 "
                       "vs published magnitudes",
             "measured": 0.1730688722385909, "name": "constants.published-magnitudes",
             "passed": True, "tolerance": 1.0},
            {"detail": "u and c_eff identical across masses at fixed gamma",
             "measured": 0.0, "name": "constants.mass-independence",
             "passed": True, "tolerance": 0.5},
            {"detail": "c^2/c_eff^2 vs 1 - 2*(first-order shift), extended precision",
             "measured": 0.0, "name": "constants.extended-consistency",
             "passed": True, "tolerance": 1e-20},
            {"detail": "effective light speed exceeds c for gamma > 0",
             "measured": 0.0, "name": "constants.superluminal-shift",
             "passed": True, "tolerance": 0.5},
            {"detail": "closed-form shift vs extended-precision subtraction",
             "measured": 1.2871253184573085e-17, "name": "constants.closed-vs-exact",
             "passed": True, "tolerance": 1e-06},
        ],
        "seed": 42,
        "suite": "constants",
        "tolerance_scale": 1.0,
    },
}


@pytest.mark.parametrize("name", list(_REPORTS))
def test_whole_report_is_pinned(tmp_path, capsys, name):
    if name == "simulate":
        argv = ["simulate", "--config", write(tmp_path, "run.cfg", _REPORT_SIMULATE)]
    elif name.startswith("transform-"):
        argv = ["transform", "--config",
                write(tmp_path, "run.cfg", _transform_config(name.split("-")[1])),
                "--events", write(tmp_path, "ev.csv", "t,x1\n0.0,1.0\n1.0,0.0\n2.0,-1.5\n")]
    elif name == "constants":
        argv = ["constants"]
    else:
        argv = ["check", "--suite", "constants"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    if argv[0] in ("simulate", "transform"):
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == out
    report = json.loads(out)
    assert isinstance(report.pop("wall_time_s"), float)
    assert report == _REPORTS[name]


# Long simulate runs, many 256-row blocks each: the sha256 of the trajectory
# CSV and of the report minus wall_time_s (sorted-key JSON), recorded from
# the writer that formatted the rows after the integration had ended.
_LONG_RUNS = {
    "exact-1d": ("initial.x = 1.0\ninitial.p = 3.0\nt_end = 5.0\n", 5001,
                 "1374482e7b443c1271014849fc6e5ef72aa7dc6122b479cfed842f54942cd818",
                 "3a368836b2d4c1f952e88f54e388b3d4973c3ebf9df5c200e71561b20d5a8741"),
    "exact-3d": ("initial.x = 1.0, 0.0, 0.5\ninitial.p = 0.5, 2.5, -1.0\nt_end = 4.3\n", 4301,
                 "5ca3baef560a36eaa2d25a1ff7194aff7cbfd4223d3095ebb62f76a65b239eb2",
                 "db1cb4d29f04360b82282016ce6f6220830f71b199667a72bb492857a82c6020"),
}


def _long_run_config(model):
    return (f"model.kind = {model}\nmodel.mass = 1.0\nmodel.beta = 0.01\n"
            "model.potential = harmonic\nmodel.stiffness = 1.0\n"
            + _LONG_RUNS[model][0] + "dt = 0.001\noutput.trajectory = run.csv\n")


@pytest.mark.parametrize("model", sorted(_LONG_RUNS))
def test_long_simulate_is_pinned(tmp_path, capsys, model):
    code, out, err = run_cli(capsys, "simulate", "--config",
                             write(tmp_path, "run.cfg", _long_run_config(model)))
    assert (code, err) == (0, "")
    report = json.loads(out)
    report.pop("wall_time_s")
    _, samples, csv_digest, report_digest = _LONG_RUNS[model]
    assert report["trajectory"]["samples"] == samples > csvio._SPLIT_ROWS + 1
    assert hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == \
        report_digest


@pytest.fixture
def overlapped(tmp_path, monkeypatch, two_cpus):
    """Two allowed CPUs, forks counted, unnamed temporary files under tmp/.

    On leaving, no child is left and no named temporary file.
    """
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list((tmp_path / "tmp").iterdir()) == []


class TestOverlappedWriter:
    def test_a_domain_exit_after_many_blocks_leaves_nothing(self, tmp_path, capsys,
                                                            overlapped):
        # the field drives |p| to the branch edge pi / (2 sqrt(beta)) at step 15,708
        # of 20,000, after the child was forked and given 61 blocks
        cfg = write(tmp_path, "edge.cfg",
                    "model.kind = exact-1d\nmodel.mass = 1.0\nmodel.beta = 0.01\n"
                    "model.potential = uniform-field\nmodel.force = 1.0\n"
                    "initial.x = 0.0\ninitial.p = 0.0\nt_end = 20.0\ndt = 0.001\n")
        code, out, err = run_cli(capsys, "simulate", "--config", cfg)
        assert (code, out) == (3, "")
        assert err == ("gupmech: domain error: trajectory left the model domain at step 15708 "
                       "of 20000 (t = 15.708): momentum |p| = 15.708 outside the exact-1d "
                       "domain (|p| < 15.708)\n")
        assert len(overlapped) == 1
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("model", sorted(_LONG_RUNS))
    @pytest.mark.parametrize("case", ["fork-fails", "one-cpu"])
    def test_one_process_writes_the_same_bytes(self, tmp_path, capsys, monkeypatch,
                                               overlapped, model, case):
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            def no_fork():
                overlapped.append(os.getpid())
                raise BlockingIOError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_fork)
        code, _, err = run_cli(capsys, "simulate", "--config",
                               write(tmp_path, "run.cfg", _long_run_config(model)))
        assert (code, err) == (0, "")
        assert len(overlapped) == (case == "fork-fails")
        assert hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest() == \
            _LONG_RUNS[model][2]
