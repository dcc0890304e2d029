"""Generated simulate and transform documents through cli.main.

Whatever a document holds, `main` returns an exit code: 0 with a report
on stdout and nothing on stderr, or 2 (usage) or 3 (domain) with exactly
one line on stderr and nothing on stdout.  No exception and no warning
escapes.  Values are weighted toward the edges of the float range, and
step counts stay at 20 or fewer so each example runs in milliseconds.
"""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from gupmech.cli import main

_MODELS = ("exact-1d", "first-order-1d", "exact-3d", "first-order-3d",
           "relativistic-first-order-1d", "effective-sqrt")
_THREE_D = ("exact-3d", "first-order-3d")
_EXTREMES = ("0", "-0", "5e-324", "1e-300", "1e-150", "1e-10", "0.5", "1", "-1", "-2.5",
             "3", "1e10", "1e150", "1e200", "1e300", "1.7e308", "-1e300", "inf", "nan")
# a third of the draws are edge values, far above their share of all floats;
# the positive branch lets a document get past the keys that must be positive
_NUMBER = st.one_of(st.sampled_from(_EXTREMES), st.floats(-10.0, 10.0).map(repr),
                    st.floats(1e-3, 10.0).map(repr))
_FUZZ = settings(max_examples=100, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _model_lines(draw):
    """A model section: kind, mass, beta or gamma, a potential and the model's own keys."""
    kind = draw(st.sampled_from(_MODELS))
    lines = [f"model.kind = {kind}", f"model.mass = {draw(_NUMBER)}",
             f"{draw(st.sampled_from(['model.beta', 'model.gamma']))} = {draw(_NUMBER)}"]
    potential = draw(st.sampled_from(["free", "harmonic", "uniform-field"]))
    lines.append(f"model.potential = {potential}")
    if potential == "harmonic":
        lines.append(f"model.stiffness = {draw(_NUMBER)}")
    elif potential == "uniform-field":
        lines.append(f"model.force = {draw(_NUMBER)}")
    if kind == "relativistic-first-order-1d":
        lines.append(f"model.light_speed = {draw(_NUMBER)}")
    if kind == "effective-sqrt":
        lines.append(f"model.scale_velocity = {draw(_NUMBER)}")
        lines.append(f"model.sqrt_sign = {draw(st.sampled_from(['-1', '1', '0']))}")
    return kind, lines


@st.composite
def _simulate_document(draw):
    kind, lines = draw(_model_lines())
    dim = 3 if kind in _THREE_D else 1
    dim = draw(st.sampled_from([dim, dim, 4 - dim]))  # now and then the wrong size
    for key in ("initial.x", "initial.p"):
        lines.append(f"{key} = {', '.join(draw(_NUMBER) for _ in range(dim))}")
    t_end = draw(_NUMBER)
    # dt = t_end / steps keeps the step count bounded whatever t_end is
    lines += [f"t_end = {t_end}", f"dt = {float(t_end) / draw(st.integers(1, 20))!r}"]
    return draw(st.permutations(lines))


@st.composite
def _transform_document(draw):
    _, lines = draw(_model_lines())
    law = draw(st.sampled_from([None, "exact", "first-order", "ordinary", "lorentz"]))
    lines.append(f"boost.velocity = {draw(_NUMBER)}")
    if law is not None:
        lines.append(f"boost.law = {law}")
    if law == "lorentz":
        lines.append(f"boost.light_speed = {draw(_NUMBER)}")
    elif draw(st.booleans()):
        lines.append(f"boost.scale = {draw(_NUMBER)}")
    dim = draw(st.sampled_from([1, 3]))
    rows = draw(st.lists(st.lists(_NUMBER, min_size=1 + dim, max_size=1 + dim), max_size=6))
    events = "".join(",".join(row) + "\n" for row in
                     [["t"] + [f"x{i}" for i in range(1, dim + 1)]] + rows)
    return draw(st.permutations(lines)), events


def _run(argv):
    """(exit code, stdout, stderr) of main, with every warning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_outcome(code, out, err):
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert err == "" and out.startswith("{")
    else:
        assert out == ""
        assert err.startswith("gupmech: ") and err.count("\n") == 1 and err.endswith("\n")


@given(_simulate_document())
@_FUZZ
def test_simulate_documents_exit_cleanly(lines):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines + [f"output.trajectory = {tmp}/trajectory.csv"]))
        _assert_one_outcome(*_run(["simulate", "--config", config]))


@given(_transform_document())
@_FUZZ
def test_transform_documents_exit_cleanly(document):
    lines, events = document
    with tempfile.TemporaryDirectory() as tmp:
        config, csv = os.path.join(tmp, "boost.cfg"), os.path.join(tmp, "events.csv")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines + [f"output.events = {tmp}/events_transformed.csv"]))
        with open(csv, "w", encoding="utf-8") as handle:
            handle.write(events)
        _assert_one_outcome(*_run(["transform", "--config", config, "--events", csv]))
