"""End-to-end acceptance run: nine numbered criteria, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every criterion prints PASS or FAIL with its measured value and
runtime before asserting, so a red run still reports every line.
"""

import json
import math
import time

import numpy as np

from gupmech.algebra import (
    DeformationParameters,
    DomainError,
    PhaseState,
    coordinate_function,
    jacobi_residual,
    momentum_function_1d,
    momentum_function_3d,
    momentum_map_1d,
    momentum_map_3d,
    numerical_bracket,
)
from gupmech.cli import main
from gupmech.dynamics import (
    Hamiltonian,
    Potential,
    energy_drift,
    hamilton_rhs,
    integrate,
)
from gupmech.frames import (
    GALILEAN_FIRST_ORDER,
    GALILEAN_ORDINARY,
    GalileanBoost,
    LorentzBoost,
    covariance_residual,
    euclidean_interval,
    galilean_apply,
    lorentz_apply,
    minkowski_interval,
    velocity_compose,
)
from gupmech.legendre import (
    lagrangian_from_hamiltonian,
    legendre_roundtrip_residual,
    momentum_from_velocity_exact,
    momentum_from_velocity_first_order,
)

SEED = 42


def params_of(beta, mass=1.0):
    return DeformationParameters(beta=beta, mass=mass)


def report_line(number, label, ok, detail, started, cap):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok and elapsed < cap else "FAIL"
    print(f"criterion {number} ({label}): {verdict} - {detail}; "
          f"{elapsed:.2f} s (cap {cap:.0f} s)")
    return elapsed


def test_criterion_1_constants_reproduction(capsys):
    started = time.perf_counter()
    code = main(["constants"])
    output = json.loads(capsys.readouterr().out)
    gaps = {
        "c_gamma": abs(output["c_gamma"] / 4.2e-23 - 1.0),
        "u_over_c_3d": abs(output["u_over_c_3d"] / 1.2e22 - 1.0),
        "deviation_3d": abs(output["c_eff_rel_deviation_3d"] / 3.5e-45 - 1.0),
    }
    ok = (code == 0 and gaps["c_gamma"] < 0.02
          and gaps["u_over_c_3d"] < 0.05 and gaps["deviation_3d"] < 0.05)
    with capsys.disabled():
        elapsed = report_line(
            1, "constants reproduction", ok,
            f"fractional gaps cg={gaps['c_gamma']:.4f} (tol 0.02), "
            f"u/c={gaps['u_over_c_3d']:.4f}, dev={gaps['deviation_3d']:.4f} "
            f"(tol 0.05)", started, 1.0)
    assert code == 0
    assert gaps["c_gamma"] < 0.02
    assert gaps["u_over_c_3d"] < 0.05
    assert gaps["deviation_3d"] < 0.05
    assert elapsed < 1.0


def test_criterion_2_interval_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    u = 1.5
    worst = 0.0
    for _ in range(1000):
        V = rng.uniform(-10.0, 10.0) * u
        boost = GalileanBoost(velocity=V, scale=u)
        e1 = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3)])
        # keep the pair separated so the relative measure stays meaningful
        dt = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        dx = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        e2 = e1 + [dt, dx]
        before = euclidean_interval(e1, e2, u)
        after = euclidean_interval(galilean_apply(boost, e1),
                                   galilean_apply(boost, e2), u)
        worst = max(worst, abs(after - before) / before)
    ok = worst < 1e-12
    elapsed = report_line(2, "interval invariance", ok,
                          f"worst relative change {worst:.3e} (tol 1e-12), "
                          f"1000 pairs, |V|/u <= 10", started, 1.0)
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_3_first_order_law_convergence():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    u = 1.0
    events = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)]
                       for _ in range(20)])

    def deviation(V):
        exact = GalileanBoost(velocity=V, scale=u)
        first = GalileanBoost(velocity=V, scale=u, law=GALILEAN_FIRST_ORDER)
        return np.max(np.abs(galilean_apply(exact, events)[:, 1]
                             - galilean_apply(first, events)[:, 1]))

    d_full, d_half, d_quarter = deviation(0.4), deviation(0.2), deviation(0.1)
    ratios = (d_full / d_half, d_half / d_quarter)
    ok = all(12.0 <= r <= 20.0 for r in ratios)
    elapsed = report_line(3, "first-order law convergence", ok,
                          f"deviation ratios per V-halving {ratios[0]:.2f}, "
                          f"{ratios[1]:.2f} (window 16 +/- 25%)", started, 1.0)
    for ratio in ratios:
        assert 12.0 <= ratio <= 20.0
    assert elapsed < 1.0


def test_criterion_4_bracket_verification():
    started = time.perf_counter()
    params = params_of(0.01)
    rng = np.random.default_rng(SEED)

    worst = 0.0
    for _ in range(100):
        state = PhaseState.of(rng.uniform(-2, 2), rng.uniform(-2.5, 2.5))
        got = numerical_bracket(coordinate_function(),
                                momentum_function_1d(params), state)
        P = momentum_map_1d(state.p[0], params)
        worst = max(worst, abs(got - (1.0 + params.beta * P * P)))

    momenta = [momentum_function_3d(params, axis) for axis in (1, 2, 3)]
    coords = [coordinate_function(axis) for axis in (1, 2, 3)]
    worst_vanishing = 0.0
    for _ in range(100):
        state = PhaseState.of(rng.uniform(-2, 2, size=3),
                              rng.uniform(-1.5, 1.5, size=3))
        P = momentum_map_3d(state.p, params)
        root = math.sqrt(1.0 + params.beta * float(P[0] * P[0] + P[1] * P[1] + P[2] * P[2]))
        for i in range(3):
            for j in range(3):
                got = numerical_bracket(coords[i], momenta[j], state)
                target = root * ((i == j) + params.beta * P[i] * P[j])
                worst = max(worst, abs(got - target))
        worst_vanishing = max(
            worst_vanishing,
            abs(numerical_bracket(coords[0], coords[1], state)),
            abs(numerical_bracket(momenta[0], momenta[2], state)))

    ok = worst < 1e-8 and worst_vanishing < 1e-8
    elapsed = report_line(4, "bracket verification", ok,
                          f"worst componentwise error {worst:.3e}, "
                          f"worst vanishing bracket {worst_vanishing:.3e} "
                          f"(tol 1e-8), 100 states each form", started, 5.0)
    assert worst < 1e-8
    assert worst_vanishing < 1e-8
    assert elapsed < 5.0


def test_criterion_5_jacobi_residuals():
    started = time.perf_counter()
    params = params_of(0.01)
    rng = np.random.default_rng(SEED)

    def product_1d(state):
        return float(state.x[0]) * float(state.p[0])

    def product_3d(state):
        return float(state.x[0]) * float(state.p[1])

    worst = 0.0
    for _ in range(10):
        state = PhaseState.of(rng.uniform(-1, 1), rng.uniform(-2, 2))
        worst = max(worst, jacobi_residual(
            coordinate_function(), momentum_function_1d(params),
            product_1d, state))
    for _ in range(10):
        state = PhaseState.of(rng.uniform(-1, 1, size=3),
                              rng.uniform(-1.5, 1.5, size=3))
        worst = max(worst, jacobi_residual(
            coordinate_function(1), momentum_function_3d(params, 2),
            product_3d, state))

    ok = worst < 1e-5
    elapsed = report_line(5, "jacobi residuals", ok,
                          f"worst residual {worst:.3e} (tol 1e-5), "
                          f"20 triples over both representations",
                          started, 5.0)
    assert worst < 1e-5
    assert elapsed < 5.0


def test_criterion_6_legendre_consistency():
    started = time.perf_counter()
    xdot = 0.5

    def gap(beta):
        exact = momentum_from_velocity_exact(
            xdot, Hamiltonian.exact_1d(params_of(beta)))
        first = momentum_from_velocity_first_order(xdot, params_of(beta))
        return abs(exact - first)

    ratio = gap(0.01) / gap(0.005)
    ham = Hamiltonian.exact_1d(params_of(0.01))
    roundtrip = legendre_roundtrip_residual(
        lagrangian_from_hamiltonian(ham), ham, xdot)
    ok = 3.2 <= ratio <= 4.8 and roundtrip < 1e-12
    elapsed = report_line(6, "legendre consistency", ok,
                          f"gap ratio per beta-halving {ratio:.3f} "
                          f"(window 4 +/- 20%), definitional round-trip "
                          f"{roundtrip:.3e} (tol 1e-12)", started, 1.0)
    assert 3.2 <= ratio <= 4.8
    assert roundtrip < 1e-12
    assert elapsed < 1.0


def test_criterion_7_covariance():
    started = time.perf_counter()
    beta = 0.01
    kind = Hamiltonian.exact_1d(params_of(beta))
    u = math.sqrt(3.0 / (8.0 * beta))
    initial = PhaseState.of(0.0, 1.0)

    exact_boost = GalileanBoost(velocity=0.3 * u, scale=u)
    traj = integrate(kind, initial, 1.0, 0.01)
    mapped = galilean_apply(exact_boost,
                            np.column_stack((traj.times, traj.positions)))
    t_new, x_new = mapped[:, 0], mapped[:, 1]
    # the least-squares line from centred sums, no LAPACK solve
    t_mean, x_mean = np.mean(t_new), np.mean(x_new)
    centred = t_new - t_mean
    slope = np.sum(centred * (x_new - x_mean)) / np.sum(centred * centred)
    intercept = x_mean - slope * t_mean
    linearity = float(np.max(np.abs(x_new - (slope * t_new + intercept))))
    v0 = float(hamilton_rhs(kind, initial)[0][0])
    slope_gap = abs(slope - velocity_compose(v0, exact_boost))

    control = covariance_residual(
        kind, GalileanBoost(velocity=0.3 * u, scale=u, law=GALILEAN_ORDINARY),
        initial, 1.0, 0.01)

    ok = linearity < 1e-10 and slope_gap < 1e-10 and control > 1e-4
    elapsed = report_line(7, "covariance", ok,
                          f"linearity {linearity:.3e}, slope gap "
                          f"{slope_gap:.3e} (tol 1e-10); ordinary-law "
                          f"control {control:.3e} (> 1e-4)", started, 5.0)
    assert linearity < 1e-10
    assert slope_gap < 1e-10
    assert control > 1e-4
    assert elapsed < 5.0


def test_criterion_8_integrator_quality():
    started = time.perf_counter()
    kind = Hamiltonian.first_order_1d(params_of(0.01), Potential.harmonic(1.0))
    initial = PhaseState.of(1.0, 0.0)

    drift = energy_drift(integrate(kind, initial, 10.0, 1e-3))

    def endpoint_error(dt):
        reference = integrate(kind, initial, 2.0, dt / 32.0)
        trial = integrate(kind, initial, 2.0, dt)
        return max(abs(trial.endpoint.x[0] - reference.endpoint.x[0]),
                   abs(trial.endpoint.p[0] - reference.endpoint.p[0]))

    ratio = endpoint_error(4e-3) / endpoint_error(2e-3)
    ok = drift < 1e-8 and 12.0 <= ratio <= 20.0
    elapsed = report_line(8, "integrator quality", ok,
                          f"drift {drift:.3e} over 1e4 steps (tol 1e-8), "
                          f"endpoint-error ratio per dt-halving {ratio:.2f} "
                          f"(window 16 +/- 25%)", started, 5.0)
    assert drift < 1e-8
    assert 12.0 <= ratio <= 20.0
    assert elapsed < 5.0


def test_criterion_9_lorentz_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    c_eff = 2.0 / math.sqrt(3.0)  # from 1/c^2 - 1/u^2 at c=1, u=2
    worst = 0.0
    for _ in range(1000):
        boost = LorentzBoost(velocity=rng.uniform(-0.95, 0.95) * c_eff,
                             light_speed=c_eff)
        e1 = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3)])
        e2 = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3)])
        before = minkowski_interval(e1, e2, c_eff)
        after = minkowski_interval(lorentz_apply(boost, e1),
                                   lorentz_apply(boost, e2), c_eff)
        # near-null pairs make |before| itself vanish; measure against the
        # positive-definite coordinate scale instead
        dt = e2[0] - e1[0]
        dx = float((e2[1] - e1[1]) * (e2[1] - e1[1]))
        scale = max(c_eff * c_eff * dt * dt + dx, 1e-30)
        worst = max(worst, abs(after - before) / scale)

    rejected = False
    try:
        LorentzBoost(velocity=c_eff, light_speed=c_eff)
    except DomainError:
        rejected = True

    ok = worst < 1e-12 and rejected
    elapsed = report_line(9, "lorentz invariance", ok,
                          f"worst relative change {worst:.3e} (tol 1e-12), "
                          f"1000 pairs; superluminal boost rejected: "
                          f"{rejected}", started, 1.0)
    assert worst < 1e-12
    assert rejected
    assert elapsed < 1.0
