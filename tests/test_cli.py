"""The command line surface, driven in-process through cli.main."""

import json

import numpy as np
import pytest

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
        assert mapped[0].t == pytest.approx(-root_half, rel=1e-15)
        assert mapped[0].x[0] == pytest.approx(root_half, rel=1e-15)

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
        assert mapped[0].t == pytest.approx(0.75, rel=1e-15)
        assert mapped[0].x[0] == pytest.approx(1.25, rel=1e-15)
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

    @pytest.mark.parametrize("cell", ["one", "nan", "inf"])
    def test_malformed_events_file(self, tmp_path, capsys, cell):
        cfg = write(tmp_path, "boost.cfg", BOOST_EXACT)
        events = write(tmp_path, "events.csv", f"t,x1\n0.0,{cell}\n")
        code, _, err = run_cli(capsys, "transform", "--config", cfg,
                               "--events", events)
        assert code == 2
        assert "row 2" in err


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


class TestUsage:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["calibrate"])
        assert err.value.code == 2
