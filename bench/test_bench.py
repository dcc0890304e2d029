"""Tests of the benchmark's own code: generator, validator and span tracer.

Run from the repository root: python -m pytest bench -q
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
from spans import END, ID, NAME, PARENT, START  # noqa: E402
from validate import (CHECK_NAMES, REFERENCE_ENDPOINTS, ValidationError,  # noqa: E402
                      validate)
from workloads import CHECK_ROWS, DEFAULT_SEED, WORKLOADS, generate  # noqa: E402


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(workload, tmp_path):
    first, second, other = (tmp_path / "a", tmp_path / "b", tmp_path / "c")
    for d in (first, second, other):
        d.mkdir()
    a = generate(workload, 7, str(first))
    b = generate(workload, 7, str(second))
    c = generate(workload, 8, str(other))
    assert a.argv == b.argv and a.work == b.work
    assert _files(first) == _files(second)
    if workload != "check-all":
        assert _files(first) != _files(other)
    assert c.workload == workload


def _simulate_report(workload, endpoint, samples):
    t, x, p, energy = endpoint
    return json.dumps({
        "command": "simulate",
        "trajectory": {"samples": samples, "energy_drift": 3e-14,
                       "endpoint": {"t": t, "x": list(x), "p": list(p), "energy": energy}},
    })


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("header\n" + "0\n" * rows)


@pytest.mark.parametrize("workload", ["simulate-1d", "simulate-3d"])
def test_validator_checks_simulate_endpoint_and_rows(workload, tmp_path):
    scenario = generate(workload, DEFAULT_SEED, str(tmp_path))
    samples = scenario.work + 1
    _write_rows(tmp_path / scenario.output, samples)
    reference = REFERENCE_ENDPOINTS[workload]
    validate(scenario, 0, _simulate_report(workload, reference, samples), str(tmp_path))

    t, x, p, energy = reference
    perturbed = (t, (x[0] * (1 + 1e-8),) + tuple(x[1:]), p, energy)
    with pytest.raises(ValidationError, match="reference"):
        validate(scenario, 0, _simulate_report(workload, perturbed, samples), str(tmp_path))

    _write_rows(tmp_path / scenario.output, samples - 1)
    with pytest.raises(ValidationError, match="rows"):
        validate(scenario, 0, _simulate_report(workload, reference, samples), str(tmp_path))

    with pytest.raises(ValidationError, match="exit code"):
        validate(scenario, 3, "", str(tmp_path))


def test_validator_rejects_short_events_csv_and_large_residual(tmp_path):
    scenario = generate("transform-exact", 3, str(tmp_path))

    def report(residual):
        return json.dumps({"command": "transform",
                           "events": {"count": scenario.work, "interval_residual": residual}})

    _write_rows(tmp_path / scenario.output, scenario.work)
    validate(scenario, 0, report(4e-15), str(tmp_path))
    with pytest.raises(ValidationError, match="interval_residual"):
        validate(scenario, 0, report(1e-9), str(tmp_path))
    _write_rows(tmp_path / scenario.output, scenario.work - 1)
    with pytest.raises(ValidationError, match="rows"):
        validate(scenario, 0, report(4e-15), str(tmp_path))


def test_validator_rejects_a_failing_check_row(tmp_path):
    scenario = generate("check-all", DEFAULT_SEED, str(tmp_path))
    rows = [{"name": n, "passed": True} for n in CHECK_NAMES]
    assert len(rows) == CHECK_ROWS
    good = {"command": "check", "failures": 0, "results": rows}
    validate(scenario, 0, json.dumps(good), str(tmp_path))

    bad_rows = [dict(r) for r in rows]
    bad_rows[4]["passed"] = False
    for report in ({**good, "results": bad_rows},
                   {**good, "results": bad_rows, "failures": 1},
                   {**good, "results": rows[:-1]}):
        with pytest.raises(ValidationError):
            validate(scenario, 0, json.dumps(report), str(tmp_path))


def _span(id_, name, start, end, parent):
    return [id_, name, start, end, parent, None]


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        _span(0, "cli.main", 0.0, 10.0, None),
        _span(1, "config.parse_config", 1.0, 2.0, 0),
        _span(2, "algebra.jacobi_residual", 3.0, 8.0, 0),
        _span(3, "algebra.numerical_bracket", 3.5, 5.0, 2),
        _span(4, "algebra.numerical_bracket", 4.0, 4.5, 3),
        _span(5, "algebra.numerical_bracket", 6.0, 7.0, 2),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 4.0, 1: 1.0, 2: 2.5, 3: 1.0, 4: 0.5, 5: 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)

    incl = spans.outermost_times(tree)
    # the nested bracket (id 4) lies inside id 3 and is not counted twice
    assert incl["algebra.numerical_bracket"] == pytest.approx(2.5)
    by_module = spans.outermost_times(tree, lambda name: name.split(".")[0])
    assert by_module["algebra"] == pytest.approx(5.0)

    metrics = spans.layer_metrics({"spans": tree, "calls": {}}, setup_s=1.0, wall_s=12.0)
    assert metrics["cli.self_s"] == pytest.approx(4.0)
    assert metrics["algebra.self_s"] == pytest.approx(5.0)
    assert metrics["algebra.numerical_bracket.calls"] == 3
    assert metrics["trace.accounted_share"] == pytest.approx(11.0 / 12.0)


@pytest.fixture
def restored_gupmech():
    import gupmech.cli  # noqa: F401
    saved = {name: dict(vars(module)) for name, module in sys.modules.items()
             if name.startswith("gupmech") and module is not None}
    yield
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)


def test_tracer_wraps_every_namespace_and_accounts_for_main(restored_gupmech):
    import gupmech.algebra
    import gupmech.checks
    import gupmech.cli

    tracer = spans.Tracer("test")
    tracer.install()
    assert gupmech.checks.numerical_bracket is gupmech.algebra.numerical_bracket
    assert gupmech.checks.numerical_bracket.__name__ == "wrapper"

    with redirect_stdout(io.StringIO()):
        assert gupmech.cli.main(["check", "--suite", "legendre"]) == 0
    trace = json.loads(json.dumps(tracer.dump()))
    names = {span[NAME] for span in trace["spans"]}
    assert {"cli.main", "checks.run_suite", "legendre.momentum_from_velocity_exact"} <= names
    root = next(span for span in trace["spans"] if span[PARENT] is None)
    assert root[NAME] == "cli.main" and root[ID] == 0

    metrics = spans.layer_metrics(trace, setup_s=0.0, wall_s=root[END] - root[START])
    module_self = sum(metrics[f"{m}.self_s"] for m in spans.MODULES)
    assert module_self == pytest.approx(metrics["trace.main_s"], rel=1e-9)
    assert metrics["legendre.newton_evals_per_inversion"] > 1.0


def test_benchmark_json_declares_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    layer = spans.layer_metrics({"spans": [], "calls": {}}, setup_s=0.0, wall_s=1.0)
    declared = [m["name"] for m in spec["per_layer"]]
    assert sorted(declared) == sorted([*layer, "trace.overhead"])
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_ref", "setup_s", "work_per_ref", "peak_rss_mb"]
