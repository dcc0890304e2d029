"""Hamiltonian models, Hamilton's equations, RK4 integration, drift."""

import dataclasses
import math
import pickle
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gupmech import dynamics
from gupmech.algebra import DeformationParameters, DomainError, PhaseState
from gupmech.dynamics import (
    Hamiltonian,
    Potential,
    Trajectory,
    energy_drift,
    hamilton_rhs,
    hamilton_rhs_fd,
    hamiltonian_value,
    integrate,
    momentum_limit,
    monotone_momentum_limit,
    radial_velocity,
    relativistic_quartic_coefficient,
    rest_energy,
    speed_limit,
)
from gupmech._rng import Generator
from gupmech.checks import _suite_hamiltonians, _suite_states


def params_of(beta, mass=1.0):
    return DeformationParameters(beta=beta, mass=mass)


# One configuration per kinetic model, both signs of the square-root model.
CONFIGURATIONS = [
    Hamiltonian.exact_1d(params_of(0.01), Potential.harmonic(0.7)),
    Hamiltonian.first_order_1d(params_of(0.02), Potential.uniform_field(0.4)),
    Hamiltonian.exact_3d(params_of(0.01), Potential.harmonic(1.2)),
    Hamiltonian.first_order_3d(params_of(0.02)),
    Hamiltonian.relativistic_first_order_1d(params_of(1e-4), 10.0),
    Hamiltonian.effective_sqrt(params_of(0.01), scale_velocity=4.0),
    Hamiltonian.effective_sqrt(params_of(0.01), scale_velocity=4.0, sign=+1),
]


POTENTIALS = {
    "free": Potential.free(),
    "harmonic": Potential.harmonic(0.7),
    "uniform-field": Potential.uniform_field(0.4),
}


def config_id(kind):
    return f"{kind.model}{'+' if kind.sqrt_sign > 0 else ''}"


def probe_state(kind, p=None):
    if kind.dim == 1:
        return PhaseState.of(0.8, 0.9 if p is None else p)
    return PhaseState.of([0.3, -0.2, 0.5], [0.9, -0.4, 0.6] if p is None else p)


class TestPotential:
    def test_free_is_zero_everywhere(self):
        (energy, force), (energy3, force3) = Potential.free().terms(1), Potential.free().terms(3)
        assert energy(3.0) == 0.0 and energy3(1.0, 1.0, 1.0) == 0.0
        assert force(3.0) == 0.0
        assert force3(1.0, 1.0, 1.0) == (0.0, 0.0, 0.0)

    def test_harmonic_1d_and_3d(self):
        pot = Potential.harmonic(2.0)
        (energy, force), (energy3, force3) = pot.terms(1), pot.terms(3)
        assert energy(3.0) == pytest.approx(9.0, rel=1e-15)
        assert -force(3.0) == pytest.approx(6.0, rel=1e-15)
        x = np.array([1.0, 2.0, 2.0])
        assert energy3(*x.tolist()) == pytest.approx(9.0, rel=1e-15)
        np.testing.assert_allclose(np.negative(force3(*x.tolist())), 2.0 * x, rtol=1e-15)

    def test_uniform_field_acts_along_first_axis(self):
        pot = Potential.uniform_field(1.5)
        (energy, force), (_, force3) = pot.terms(1), pot.terms(3)
        assert energy(2.0) == pytest.approx(-3.0, rel=1e-15)
        assert force(2.0) == 1.5
        assert force3(2.0, 5.0, -1.0) == (1.5, 0.0, 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Potential(kind="quartic")


class TestHamiltonianConstruction:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            Hamiltonian("exact-2d", params_of(0.1))

    def test_relativistic_needs_light_speed(self):
        with pytest.raises(ValueError):
            Hamiltonian("relativistic-first-order-1d", params_of(0.1))

    def test_sqrt_model_needs_scale_and_sign(self):
        with pytest.raises(ValueError):
            Hamiltonian("effective-sqrt", params_of(0.1))
        with pytest.raises(ValueError):
            Hamiltonian("effective-sqrt", params_of(0.1),
                        scale_velocity=2.0, sqrt_sign=0)

    def test_dimensions(self):
        assert Hamiltonian.exact_1d(params_of(0.1)).dim == 1
        assert Hamiltonian.first_order_3d(params_of(0.1)).dim == 3

    def test_pickle_round_trip(self):
        kind = Hamiltonian.exact_3d(params_of(0.01), Potential.harmonic(1.2))
        back = pickle.loads(pickle.dumps(kind))
        state = probe_state(kind)
        assert back == kind
        assert hamiltonian_value(back, state) == hamiltonian_value(kind, state)

    @pytest.mark.parametrize("kind", _suite_hamiltonians(), ids=lambda kind: kind.model)
    def test_suite_models_pickle_with_their_derived_dim(self, kind):
        back = pickle.loads(pickle.dumps(kind))
        assert back == kind and repr(back) == repr(kind) and back.dim == kind.dim
        # dim is derived in __post_init__, off the fields that eq, repr and pickling use
        assert "dim" not in {f.name for f in dataclasses.fields(kind)}
        state = probe_state(kind)
        assert hamiltonian_value(back, state) == hamiltonian_value(kind, state)


class TestHamiltonianValue:
    @pytest.mark.parametrize("kind", CONFIGURATIONS, ids=config_id)
    def test_a_state_that_is_no_phase_state_gives_the_same_bits(self, kind):
        # any object with .x and .p of the model's size is read through components()
        state = probe_state(kind)
        plain = types.SimpleNamespace(x=state.x.tolist(), p=state.p.tolist())
        assert hamiltonian_value(kind, plain).hex() == hamiltonian_value(kind, state).hex()

    def test_undeformed_quadratic(self):
        kind = Hamiltonian.first_order_1d(params_of(0.0))
        assert hamiltonian_value(kind, PhaseState.of(0.0, 1.0)) == 0.5

    def test_exact_1d_value(self):
        kind = Hamiltonian.exact_1d(params_of(0.01))
        got = hamiltonian_value(kind, PhaseState.of(0.0, 1.0))
        assert got == pytest.approx(0.5033523211247445, rel=1e-15)

    def test_first_order_sits_below_exact(self):
        beta = 0.01
        exact = Hamiltonian.exact_1d(params_of(beta))
        first = Hamiltonian.first_order_1d(params_of(beta))
        state = PhaseState.of(0.0, 1.0)
        e_exact = hamiltonian_value(exact, state)
        e_first = hamiltonian_value(first, state)
        assert e_first == pytest.approx(0.5 + beta / 3.0, rel=1e-15)
        assert 0.0 < e_exact - e_first < 1.0 * beta ** 2

    def test_exact_3d_value(self):
        kind = Hamiltonian.exact_3d(params_of(0.01))
        got = hamiltonian_value(kind, PhaseState.of([0, 0, 0], [1.0, 0, 0]))
        assert got == pytest.approx(0.5050505050505051, rel=1e-15)

    def test_relativistic_rest_offset(self):
        kind = Hamiltonian.relativistic_first_order_1d(params_of(1e-4), 10.0)
        assert rest_energy(kind) == 100.0
        assert hamiltonian_value(kind, PhaseState.of(0.0, 0.0)) == 100.0
        assert rest_energy(Hamiltonian.exact_1d(params_of(0.01))) == 0.0

    def test_sqrt_minus_vanishes_at_rest(self):
        kind = Hamiltonian.effective_sqrt(params_of(0.01), scale_velocity=5.0)
        assert hamiltonian_value(kind, PhaseState.of(0.0, 0.0)) == 0.0

    def test_sqrt_minus_domain_error(self):
        kind = Hamiltonian.effective_sqrt(params_of(0.01), scale_velocity=2.0)
        with pytest.raises(DomainError):
            hamiltonian_value(kind, PhaseState.of(0.0, 2.0))

    def test_sqrt_plus_has_no_momentum_bound(self):
        kind = Hamiltonian.effective_sqrt(params_of(0.01), scale_velocity=2.0,
                                          sign=+1)
        got = hamiltonian_value(kind, PhaseState.of(0.0, 50.0))
        assert math.isfinite(got) and got > 0.0

    def test_exact_1d_branch_boundary(self):
        kind = Hamiltonian.exact_1d(params_of(0.01))
        edge = (math.pi / 2.0) / 0.1
        with pytest.raises(DomainError):
            hamiltonian_value(kind, PhaseState.of(0.0, edge))

    def test_exact_3d_domain_boundary(self):
        kind = Hamiltonian.exact_3d(params_of(0.25))
        with pytest.raises(DomainError):
            hamiltonian_value(kind, PhaseState.of([0, 0, 0], [0.0, 2.0, 0.0]))

    def test_dimension_mismatch_rejected(self):
        kind = Hamiltonian.exact_3d(params_of(0.01))
        with pytest.raises(ValueError):
            hamiltonian_value(kind, PhaseState.of(0.0, 1.0))

    def test_harmonic_potential_adds_in(self):
        kind = Hamiltonian.first_order_1d(params_of(0.0),
                                          Potential.harmonic(1.0))
        assert hamiltonian_value(kind, PhaseState.of(2.0, 0.0)) == 2.0


class TestHamiltonRhs:
    def test_first_order_free_particle(self):
        kind = Hamiltonian.first_order_1d(params_of(0.01))
        xdot, pdot = hamilton_rhs(kind, PhaseState.of(0.0, 0.5))
        assert xdot[0] == pytest.approx(0.5016666666666667, rel=1e-15)
        assert pdot[0] == 0.0

    def test_harmonic_turning_point(self):
        kind = Hamiltonian.first_order_1d(params_of(0.0),
                                          Potential.harmonic(1.0))
        xdot, pdot = hamilton_rhs(kind, PhaseState.of(1.0, 0.0))
        assert xdot[0] == 0.0
        assert pdot[0] == -1.0

    def test_first_order_3d_velocity(self):
        kind = Hamiltonian.first_order_3d(params_of(0.01))
        xdot, pdot = hamilton_rhs(kind, PhaseState.of([0, 0, 0], [1.0, 0, 0]))
        np.testing.assert_allclose(xdot, [1.02, 0.0, 0.0], rtol=1e-15)
        np.testing.assert_array_equal(pdot, np.zeros(3))

    @pytest.mark.parametrize("kind", CONFIGURATIONS, ids=config_id)
    def test_finite_difference_agreement(self, kind):
        state = probe_state(kind)
        xdot, pdot = hamilton_rhs(kind, state)
        xdot_fd, pdot_fd = hamilton_rhs_fd(kind, state)
        scale = max(1.0, float(np.max(np.abs(xdot))), float(np.max(np.abs(pdot))))
        assert float(np.max(np.abs(xdot - xdot_fd))) / scale < 1e-6
        assert float(np.max(np.abs(pdot - pdot_fd))) / scale < 1e-6

    @pytest.mark.parametrize("kind", CONFIGURATIONS, ids=config_id)
    def test_finite_difference_is_the_per_axis_central_difference(self, kind):
        # An independent per-axis loop with the step h * max(1, |coordinate|).
        def energy(x, p):
            return hamiltonian_value(kind, PhaseState(x, p))

        state = probe_state(kind)
        h = np.finfo(float).eps ** (1.0 / 3.0)
        want_xdot, want_pdot = [], []
        for i in range(kind.dim):
            unit = np.eye(kind.dim)[i]
            hx = h * max(1.0, abs(float(state.x[i])))
            hp = h * max(1.0, abs(float(state.p[i])))
            want_xdot.append((energy(state.x, state.p + hp * unit)
                              - energy(state.x, state.p - hp * unit)) / (2.0 * hp))
            want_pdot.append(-(energy(state.x + hx * unit, state.p)
                               - energy(state.x - hx * unit, state.p)) / (2.0 * hx))
        xdot, pdot = hamilton_rhs_fd(kind, state)
        assert [v.hex() for v in xdot.tolist()] == [v.hex() for v in want_xdot]
        assert [v.hex() for v in pdot.tolist()] == [v.hex() for v in want_pdot]

    # beta = 0.01; EDGE_1D is just inside exact-1d's |p| < (pi/2)/sqrt(beta)
    # and EDGE_3D inside exact-3d's |p| < 1/sqrt(beta), nearer than one step.
    EDGE_1D = (math.pi / 2.0) / 0.1 * (1.0 - 1e-7)
    EDGE_3D = (1.0 - 1e-7) / 0.1
    NON_FINITE = ("non-finite function value while probing a central difference; "
                  "the state is too close to a domain boundary")

    @pytest.mark.parametrize("model, x, p", [
        ("exact-1d", 1.7976931348623157e308, 0.0),
        ("exact-1d", -1.7976931348623157e308, 0.0),
        ("exact-3d", [0.0, 1.7976931348623157e308, 0.0], [0.0] * 3),
        # every shift is checked before any energy is taken
        ("exact-3d", [0.0, 0.0, 1.7976931348623157e308], [EDGE_3D, 0.0, 0.0]),
    ])
    def test_finite_difference_refuses_a_shift_past_the_float_range(self, model, x, p):
        with pytest.raises(ValueError) as info:
            hamilton_rhs_fd(Hamiltonian(model, params_of(0.01)), PhaseState.of(x, p))
        assert type(info.value) is ValueError
        assert str(info.value) == "phase-space components must be finite"

    @pytest.mark.parametrize("model, x, p, message", [
        ("exact-1d", 1e200, 0.0, NON_FINITE),
        ("exact-1d", 0.0, EDGE_1D,
         "momentum |p| = 15.7081 outside the exact-1d domain (|p| < 15.708)"),
        ("exact-3d", [0.0] * 3, [EDGE_3D, 0.0, 0.0],
         "momentum outside the exact-3d domain (beta*|p|^2 = 1.00001 >= 1)"),
        # every energy is taken before any is tested for being finite
        ("exact-3d", [1e200, 0.0, 0.0], [0.0, 0.0, -EDGE_3D],
         "momentum outside the exact-3d domain (beta*|p|^2 = 1.00001 >= 1)"),
    ])
    def test_finite_difference_refuses_a_probe_off_the_domain(self, model, x, p, message):
        kind = Hamiltonian(model, params_of(0.01), Potential.harmonic(0.7))
        with pytest.raises(DomainError) as info:
            hamilton_rhs_fd(kind, PhaseState.of(x, p))
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", CONFIGURATIONS, ids=config_id)
    def test_rest_has_zero_velocity(self, kind):
        xdot, pdot = hamilton_rhs(kind, probe_state(kind, p=[0.0] * kind.dim))
        assert np.all(xdot == 0.0)
        assert np.all(np.isfinite(xdot)) and np.all(np.isfinite(pdot))


# Endpoints of integrate(kind, probe_state(kind), t_end=2.0, dt=0.01), 200
# RK4 steps, recorded from the per-model implementation this one replaced:
# (x, p, energy) per (configuration, potential).
REFERENCE_ENDPOINTS = {
    ("exact-1d", "free"):
        ([2.6195746013226686], [0.9], 0.40719708086407486),
    ("exact-1d", "harmonic"):
        ([0.9870804139213873], [-0.7603480761695183], 0.6311970808634424),
    ("exact-1d", "uniform-field"):
        ([3.465265372533818], [1.7000000000000006], 0.08719708086407363),
    ("first-order-1d", "free"):
        ([2.638880000000005], [0.9], 0.409374),
    ("first-order-1d", "harmonic"):
        ([0.9859498566815206], [-0.7627367217806631], 0.6333739999993406),
    ("first-order-1d", "uniform-field"):
        ([3.5282666666666658], [1.7000000000000006], 0.08937400000000117),
    ("exact-3d", "free"):
        ([2.148852431162363, -1.0217121916277214, 1.7325682874415822], [0.9, -0.4, 0.6], 0.6739637174419784),
    ("exact-3d", "harmonic"):
        ([1.0410358145539078, -0.4556442857062847, 0.6623515329397378], [-0.3512971429967624, 0.21139189710361672, -0.48286734630392797], 0.8069637174408268),
    ("exact-3d", "uniform-field"):
        ([3.0280734168205754, -1.0375765580882759, 1.7563648371324152], [1.7000000000000006, -0.4, 0.6], 0.5539637174419747),
    ("first-order-3d", "free"):
        ([2.1957599999999924, -1.0425600000000017, 1.7638400000000072], [0.9, -0.4, 0.6], 0.682689),
    ("first-order-3d", "harmonic"):
        ([1.0425543365146062, -0.45610247609378646, 0.6623886937358984], [-0.3604233339313225, 0.21523096417032683, -0.48797489352470863], 0.8156889999985067),
    ("first-order-3d", "uniform-field"):
        ([3.1464800000000017, -1.0724266666666664, 1.8086400000000005], [1.7000000000000006, -0.4, 0.6], 0.5626890000000002),
    ("relativistic-first-order-1d", "free"):
        ([2.5929044], [0.9], 100.404201745),
    ("relativistic-first-order-1d", "harmonic"):
        ([0.9885731479928633], [-0.7570395758529297], 100.6282017449994),
    ("relativistic-first-order-1d", "uniform-field"):
        ([3.3765913333333337], [1.7000000000000006], 100.08420174500002),
    ("effective-sqrt", "free"):
        ([2.647368820846818], [0.9], 0.4102597840759383),
    ("effective-sqrt", "harmonic"):
        ([0.9854926389325723], [-0.7637196802864556], 0.6342597840752248),
    ("effective-sqrt", "uniform-field"):
        ([3.5666165593468926], [1.7000000000000006], 0.0902597840759054),
    ("effective-sqrt+", "free"):
        ([2.556097560975611], [0.9], 0.3999999999999986),
    ("effective-sqrt+", "harmonic"):
        ([0.9905640056428873], [-0.7523750243376817], 0.6239999999994321),
    ("effective-sqrt+", "uniform-field"):
        ([3.2626276242014827], [1.7000000000000006], 0.07999999999999075),
}

# float.hex of positions and momenta at rows 100 and 200 (the endpoint) of
# integrate(kind, probe_state(kind), t_end=2.0, dt=0.01), recorded from the
# loop that wrote each step by numpy row assignment: (model, potential, row) -> (x, p).
RECORDED_3D_ROWS = {
    ("exact-3d", "harmonic", 100): (
        ["0x1.025dda676dd50p+0", "-0x1.f8d20f9950ec9p-2", "0x1.bede5cafd131fp-1"],
        ["0x1.a56091859e6cap-2", "-0x1.21e88f1457e59p-3", "0x1.69d4aa43ca190p-4"]),
    ("exact-3d", "harmonic", 200): (
        ["0x1.0a8152b979480p+0", "-0x1.d2946a66deffep-2", "0x1.531fbd78dd000p-1"],
        ["-0x1.67ba703165b6cp-2", "0x1.b0ee3c25986f4p-3", "-0x1.ee74c712ba099p-2"]),
    ("exact-3d", "uniform-field", 100): (
        ["0x1.70a542c922a3cp+0", "-0x1.3a893f77c4158p-1", "0x1.1f1a22cd06436p+0"],
        ["0x1.4cccccccccccep+0", "-0x1.999999999999ap-2", "0x1.3333333333333p-1"]),
    ("exact-3d", "uniform-field", 200): (
        ["0x1.8397e8e390d01p+1", "-0x1.099e9e0815dc2p+0", "0x1.c1a1203f53fdbp+0"],
        ["0x1.b333333333336p+0", "-0x1.999999999999ap-2", "0x1.3333333333333p-1"]),
    ("first-order-3d", "harmonic", 100): (
        ["0x1.04bd64caafcf4p+0", "-0x1.fcd0c773dcb0ap-2", "0x1.c1875ea831101p-1"],
        ["0x1.a057a2014d57cp-2", "-0x1.1d95d186df6afp-3", "0x1.5dc6530c3e41ap-4"]),
    ("first-order-3d", "harmonic", 200): (
        ["0x1.0ae4d74ba21a3p+0", "-0x1.d30c8709ca2c5p-2", "0x1.53249c61abf3bp-1"],
        ["-0x1.7112d07fcd1ffp-2", "0x1.b8cb030195b64p-3", "-0x1.f3afb0c3d4b0dp-2"]),
    ("first-order-3d", "uniform-field", 100): (
        ["0x1.7a5657fb69984p+0", "-0x1.417b3c2816106p-1", "0x1.244fa05143bf9p+0"],
        ["0x1.4cccccccccccep+0", "-0x1.999999999999ap-2", "0x1.3333333333333p-1"]),
    ("first-order-3d", "uniform-field", 200): (
        ["0x1.92bfdb4cc250bp+1", "-0x1.128a8dd4b10e6p+0", "0x1.cf0307f23cc90p+0"],
        ["0x1.b333333333336p+0", "-0x1.999999999999ap-2", "0x1.3333333333333p-1"]),
}


def reference_rk4_3d(kind, state, t_end, n):
    """Every row of classic RK4 on 3-arrays through hamilton_rhs and hamiltonian_value."""
    h = t_end / n
    x, p = state.x, state.p
    rows = [(x, p, hamiltonian_value(kind, state))]
    for _ in range(n):
        vx1, vp1 = hamilton_rhs(kind, PhaseState(x, p))
        vx2, vp2 = hamilton_rhs(kind, PhaseState(x + 0.5 * h * vx1, p + 0.5 * h * vp1))
        vx3, vp3 = hamilton_rhs(kind, PhaseState(x + 0.5 * h * vx2, p + 0.5 * h * vp2))
        vx4, vp4 = hamilton_rhs(kind, PhaseState(x + h * vx3, p + h * vp3))
        x = x + h / 6.0 * (vx1 + 2.0 * vx2 + 2.0 * vx3 + vx4)
        p = p + h / 6.0 * (vp1 + 2.0 * vp2 + 2.0 * vp3 + vp4)
        rows.append((x, p, hamiltonian_value(kind, PhaseState(x, p))))
    return tuple(np.array(column) for column in zip(*rows))


class TestIntegrate:
    @pytest.mark.parametrize("potential", POTENTIALS)
    @pytest.mark.parametrize("kind", CONFIGURATIONS, ids=config_id)
    def test_endpoint_matches_reference(self, kind, potential):
        kind = dataclasses.replace(kind, potential=POTENTIALS[potential])
        traj = integrate(kind, probe_state(kind), t_end=2.0, dt=0.01)
        x, p, energy = REFERENCE_ENDPOINTS[config_id(kind), potential]
        assert len(traj) == 201
        np.testing.assert_allclose(traj.endpoint.x, x, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(traj.endpoint.p, p, rtol=1e-12, atol=0.0)
        assert traj.energies[-1] == pytest.approx(energy, rel=1e-12, abs=0.0)

    def test_free_momentum_is_constant(self):
        kind = Hamiltonian.first_order_1d(params_of(0.01))
        traj = integrate(kind, PhaseState.of(0.0, 0.75), t_end=2.0, dt=0.01)
        assert float(np.max(np.abs(traj.momenta - 0.75))) < 1e-12

    def test_exact_free_endpoint_matches_analytic_velocity(self):
        kind = Hamiltonian.exact_1d(params_of(0.01))
        traj = integrate(kind, PhaseState.of(0.0, 1.0), t_end=1.0, dt=0.01)
        assert traj.endpoint.x[0] == pytest.approx(1.0134474588712057,
                                                   rel=1e-10)

    def test_harmonic_period_return(self):
        kind = Hamiltonian.first_order_1d(params_of(0.0),
                                          Potential.harmonic(1.0))
        traj = integrate(kind, PhaseState.of(1.0, 0.0),
                         t_end=2.0 * math.pi, dt=1e-3)
        assert abs(traj.endpoint.x[0] - 1.0) < 1e-6
        assert abs(traj.endpoint.p[0]) < 1e-6

    def test_step_count_rounds_to_hit_t_end(self):
        kind = Hamiltonian.first_order_1d(params_of(0.0))
        traj = integrate(kind, PhaseState.of(0.0, 1.0), t_end=1.0, dt=0.3)
        assert len(traj) == 4
        assert traj.times[-1] == 1.0
        assert traj.step == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_oversized_dt_collapses_to_one_step(self):
        kind = Hamiltonian.first_order_1d(params_of(0.0))
        traj = integrate(kind, PhaseState.of(0.0, 1.0), t_end=0.5, dt=10.0)
        assert len(traj) == 2
        assert traj.step == 0.5

    def test_domain_exit_reports_step_index(self):
        # A uniform field pumps momentum toward the tan-branch edge.
        kind = Hamiltonian.exact_1d(params_of(1.0),
                                    Potential.uniform_field(5.0))
        with pytest.raises(DomainError) as err:
            integrate(kind, PhaseState.of(0.0, 1.4), t_end=1.0, dt=0.01)
        assert isinstance(err.value.step_index, int)
        assert err.value.step_index >= 1
        assert "step" in str(err.value)

    def test_domain_exit_reports_step_index_3d(self):
        # A uniform field along axis 1 drives beta |p|^2 past 1.
        kind = Hamiltonian.exact_3d(params_of(1.0), Potential.uniform_field(5.0))
        with pytest.raises(DomainError) as err:
            integrate(kind, PhaseState.of([0.0, 0.1, -0.2], [0.4, -0.3, 0.2]),
                      t_end=1.0, dt=0.01)
        assert type(err.value.step_index) is int
        assert err.value.step_index == 11
        assert str(err.value) == (
            "trajectory left the model domain at step 11 of 100 (t = 0.11): momentum "
            "outside the exact-3d domain (beta*|p|^2 = 1.0325 >= 1)")

    @pytest.mark.parametrize("potential", POTENTIALS)
    @pytest.mark.parametrize("kind", [k for k in CONFIGURATIONS if k.dim == 3], ids=config_id)
    def test_every_3d_row_matches_array_reference(self, kind, potential):
        kind = dataclasses.replace(kind, potential=POTENTIALS[potential])
        traj = integrate(kind, probe_state(kind), t_end=2.0, dt=0.01)
        positions, momenta, energies = reference_rk4_3d(kind, probe_state(kind), 2.0, 200)
        np.testing.assert_allclose(traj.positions, positions, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(traj.momenta, momenta, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(traj.energies, energies, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("model, potential, row", sorted(RECORDED_3D_ROWS))
    def test_recorded_3d_rows_are_pinned(self, model, potential, row):
        kind = next(k for k in CONFIGURATIONS if k.model == model)
        kind = dataclasses.replace(kind, potential=POTENTIALS[potential])
        traj = integrate(kind, probe_state(kind), t_end=2.0, dt=0.01)
        x, p = RECORDED_3D_ROWS[model, potential, row]
        assert [v.hex() for v in traj.positions[row].tolist()] == x
        assert [v.hex() for v in traj.momenta[row].tolist()] == p

    @pytest.mark.parametrize("potential", POTENTIALS)
    @pytest.mark.parametrize("kind", CONFIGURATIONS, ids=config_id)
    def test_every_recorded_energy_is_hamiltonian_value(self, kind, potential):
        # bit for bit: the loops and hamiltonian_value sum |p|^2 one way
        kind = dataclasses.replace(kind, potential=POTENTIALS[potential])
        traj = integrate(kind, probe_state(kind), t_end=2.0, dt=0.01)
        want = [float(hamiltonian_value(kind, traj.state(k))).hex() for k in range(len(traj))]
        assert [e.hex() for e in traj.energies.tolist()] == want

    def test_unallocatable_step_count_refused(self):
        kind = Hamiltonian.first_order_1d(params_of(0.0))
        with pytest.raises(ValueError, match=r"^t_end / dt = 1e\+18 asks for "
                                             r"1000000000000000000 steps"):
            integrate(kind, PhaseState.of(0.0, 1.0), t_end=1e9, dt=1e-9)

    def test_infinite_step_count_refused_before_rounding(self):
        kind = Hamiltonian.first_order_1d(params_of(0.0))
        with pytest.raises(ValueError, match=r"^t_end / dt = inf asks for more steps than "
                                             r"memory can hold$"):
            integrate(kind, PhaseState.of(0.0, 1.0), t_end=1e300, dt=1e-300)

    def test_non_finite_energy_refused_naming_initial_state_or_step(self):
        kind = Hamiltonian.first_order_1d(params_of(0.01), Potential.harmonic(1e200))
        with pytest.raises(FloatingPointError, match="initial state"):
            integrate(kind, PhaseState.of(1e200, 0.0), t_end=1.0, dt=0.5)
        with pytest.raises(FloatingPointError, match=r"at step 1 of 2 \(t = 0.5\)"):
            integrate(kind, PhaseState.of(1e50, 0.0), t_end=1.0, dt=0.5)

    def test_position_overflow_refused_with_finite_energy(self):
        kind = Hamiltonian.exact_3d(params_of(0.01))
        with pytest.raises(FloatingPointError, match="at step 1 of 1"):
            integrate(kind, PhaseState.of([1.7e308, 0.0, 0.0], [1.0, 0.0, 0.0]),
                      t_end=1e308, dt=1e308)

    @pytest.mark.parametrize("mass, force", [(1e-10, 1e150), (1.0, 1e200)])
    def test_overflow_mid_step_is_a_float_range_fault(self, mass, force):
        # (|p| / (m w))^2 overflows for the small mass; |p|^2 is inf for the large force
        kind = Hamiltonian.effective_sqrt(params_of(0.01, mass), 1.0, sign=+1,
                                          potential=Potential.uniform_field(force))
        with pytest.raises(FloatingPointError, match=r"at step 1 of 2 \(t = 1\)") as err:
            integrate(kind, PhaseState.of(0.0, 0.0), t_end=2.0, dt=1.0)
        assert isinstance(err.value.__cause__, OverflowError)

    def test_overflow_in_the_initial_energy_names_the_initial_state(self):
        kind = Hamiltonian.effective_sqrt(params_of(0.01), 1.0, sign=+1)
        with pytest.raises(FloatingPointError, match="^initial state left the float range"):
            integrate(kind, PhaseState.of(0.0, 1e200), t_end=1.0, dt=0.5)

    def test_bad_initial_state_named_as_such(self):
        kind = Hamiltonian.exact_1d(params_of(1.0))
        with pytest.raises(DomainError, match="initial state"):
            integrate(kind, PhaseState.of(0.0, 2.0), t_end=1.0, dt=0.01)

    def test_nonpositive_spans_rejected(self):
        kind = Hamiltonian.first_order_1d(params_of(0.0))
        state = PhaseState.of(0.0, 1.0)
        with pytest.raises(ValueError):
            integrate(kind, state, t_end=0.0, dt=0.1)
        with pytest.raises(ValueError):
            integrate(kind, state, t_end=1.0, dt=-0.1)

    @given(st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_free_3d_momentum_conserved(self, p1):
        kind = Hamiltonian.first_order_3d(params_of(0.01))
        p0 = np.array([p1, 0.3, -0.4])
        traj = integrate(kind, PhaseState.of(np.zeros(3), p0),
                         t_end=0.5, dt=0.05)
        assert float(np.max(np.abs(traj.momenta - p0))) < 1e-12


    @pytest.mark.parametrize("kind", CONFIGURATIONS[:3], ids=config_id)
    def test_a_table_is_told_each_finished_block(self, kind):
        # 600 steps: two blocks of 256 and one of 88; a reported row never changes
        reported = []

        def table(times, dim):
            arrays = np.empty((len(times), dim)), np.empty((len(times), dim)), np.empty(len(times))

            def finished(rows):
                reported.append((rows, [a[:rows].copy() for a in arrays]))

            return arrays + (finished,)

        traj = integrate(kind, probe_state(kind), 0.6, 0.001, table)
        plain = integrate(kind, probe_state(kind), 0.6, 0.001)
        assert [rows for rows, _ in reported] == [257, 513, 601]
        for got, want in ((traj.positions, plain.positions), (traj.momenta, plain.momenta),
                          (traj.energies, plain.energies)):
            assert got.tobytes() == want.tobytes()
        for rows, seen in reported:
            for got, final in zip(seen, (traj.positions, traj.momenta, traj.energies)):
                assert got.tobytes() == final[:rows].tobytes()


class TestEnergyDrift:
    def test_free_particle_floor(self):
        kind = Hamiltonian.exact_1d(params_of(0.01))
        traj = integrate(kind, PhaseState.of(0.0, 1.0), t_end=2.0, dt=0.01)
        assert energy_drift(traj) < 1e-13

    def test_free_exact_3d_energy_is_constant(self):
        # |p| never changes, so every row must sum |p|^2 as row 0 does
        kind = Hamiltonian.exact_3d(params_of(0.01))
        p = [0.06427434219151484, -1.5365375501169187, 0.49395902215000165]
        traj = integrate(kind, PhaseState.of(np.zeros(3), p), t_end=2.0, dt=0.01)
        assert energy_drift(traj) == 0.0

    def test_deformed_harmonic_bound(self):
        kind = Hamiltonian.first_order_1d(params_of(0.01),
                                          Potential.harmonic(1.0))
        traj = integrate(kind, PhaseState.of(1.0, 0.0), t_end=10.0, dt=1e-3)
        assert energy_drift(traj) < 1e-8

    def test_drift_shrinks_one_order_past_the_phase_error(self):
        # Oscillator energy error follows the stability-function magnitude,
        # one power of dt above the fourth-order phase error: ~32x per halving.
        kind = Hamiltonian.first_order_1d(params_of(0.01),
                                          Potential.harmonic(1.0))
        state = PhaseState.of(1.0, 0.0)
        coarse = energy_drift(integrate(kind, state, t_end=10.0, dt=0.05))
        fine = energy_drift(integrate(kind, state, t_end=10.0, dt=0.025))
        assert 20.0 < coarse / fine < 45.0

    def test_single_sample_is_zero(self):
        traj = Trajectory(times=np.array([0.0]),
                          positions=np.array([[1.0]]),
                          momenta=np.array([[0.5]]),
                          energies=np.array([0.625]),
                          step=0.1)
        assert energy_drift(traj) == 0.0


class TestRelativisticModel:
    def test_quartic_coefficient_value(self):
        kind = Hamiltonian.relativistic_first_order_1d(params_of(1e-4), 10.0)
        got = relativistic_quartic_coefficient(kind)
        assert got == pytest.approx(-(1.0 / 800.0 - 1e-4 / 3.0), rel=1e-12)

    def test_coefficient_sign_flips_past_threshold(self):
        # Threshold beta = 3/(8 m^2 c^2) = 0.00375 at m=1, c=10.
        below = Hamiltonian.relativistic_first_order_1d(params_of(0.003), 10.0)
        above = Hamiltonian.relativistic_first_order_1d(params_of(0.004), 10.0)
        assert relativistic_quartic_coefficient(below) < 0.0
        assert relativistic_quartic_coefficient(above) > 0.0

    def test_coefficient_rejects_other_models(self):
        with pytest.raises(ValueError):
            relativistic_quartic_coefficient(Hamiltonian.exact_1d(params_of(0.01)))


class TestLimits:
    def test_momentum_limits(self):
        assert momentum_limit(Hamiltonian.exact_1d(params_of(0.01))) == \
            pytest.approx(math.pi / 0.2, rel=1e-15)
        assert momentum_limit(Hamiltonian.exact_3d(params_of(0.04))) == \
            pytest.approx(5.0, rel=1e-15)
        assert momentum_limit(
            Hamiltonian.effective_sqrt(params_of(0.01), scale_velocity=3.0,
                                       sign=-1)) == 3.0
        assert momentum_limit(Hamiltonian.first_order_1d(params_of(0.01))) == \
            math.inf

    def test_relativistic_monotone_branch(self):
        kind = Hamiltonian.relativistic_first_order_1d(params_of(1e-4), 10.0)
        kappa = 1.0 / 800.0 - 1e-4 / 3.0
        assert monotone_momentum_limit(kind) == \
            pytest.approx(1.0 / math.sqrt(12.0 * kappa), rel=1e-15)
        assert speed_limit(kind) == pytest.approx(
            radial_velocity(kind, monotone_momentum_limit(kind)), rel=1e-15)

    def test_sqrt_plus_speed_limit_is_the_scale(self):
        kind = Hamiltonian.effective_sqrt(params_of(0.01), scale_velocity=7.0,
                                          sign=+1)
        assert speed_limit(kind) == 7.0
        assert momentum_limit(kind) == math.inf

    def test_unbounded_models(self):
        assert speed_limit(Hamiltonian.first_order_1d(params_of(0.01))) == \
            math.inf


class TestTrajectory:
    def _make(self, times):
        n = len(times)
        return Trajectory(times=np.asarray(times, dtype=float),
                          positions=np.zeros((n, 1)),
                          momenta=np.zeros((n, 1)),
                          energies=np.zeros(n),
                          step=1.0)

    def test_arrays_become_read_only(self):
        traj = self._make([0.0, 1.0])
        with pytest.raises(ValueError):
            traj.positions[0, 0] = 5.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]),
                       positions=np.zeros((3, 1)),
                       momenta=np.zeros((3, 1)),
                       energies=np.zeros(3),
                       step=1.0)

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValueError):
            self._make([0.0, 1.0, 1.0])

    def test_endpoint_is_last_state(self):
        kind = Hamiltonian.first_order_1d(params_of(0.0))
        traj = integrate(kind, PhaseState.of(0.0, 1.0), t_end=1.0, dt=0.5)
        assert traj.endpoint.x[0] == traj.positions[-1, 0]
        assert len(traj) == 3


# float.hex of (dx/dt, dp/dt) per _suite_hamiltonians() model on two states
# of _suite_states(default_rng(200 + k)), recorded before either RHS read
# states through floats and while each state took one uniform call per value.
_PINNED_RHS = [
    ["0x1.35e6336fd6d2ap+2", "-0x1.d5fdc895d7623p-2", "-0x1.3e4d7b4c9528cp+8", "0x1.cddc69af5b007p-1"],
    ["0x1.086971ce65258p+9", "-0x1.a423eb6600090p-4", "-0x1.994f26883f708p-1", "-0x1.07b57fc3dfde3p-2"],
    ["0x1.bdedb23a62c06p+5", "-0x1.daaa3d65b3229p+5", "-0x1.1cbb91734407bp+4",
     "0x1.b8b977891daf0p-2", "0x1.43197cd9a10cbp-3", "-0x1.c4aaa3a4a0b91p-1",
     "-0x1.66ec723172331p+4", "0x1.0e84ae2df0326p+5", "0x1.80dc963d53e07p+1",
     "-0x1.e2bfaf00e3989p-1", "0x1.9c4e193c5c22ap-1", "-0x1.291d970295d4bp+0"],
    ["-0x1.9f6b704c2b751p+4", "-0x1.1a9389974a5bep+4", "0x1.1798bf6611155p+5",
     "-0x1.92c28c742e1dap-1", "0x1.be6667b8a318ep-2", "0x1.27b8322adc8a7p+0",
     "-0x1.1e376541de14bp+5", "-0x1.5c15d95f1a1e6p+5", "0x1.b2ffaa1dc0449p+4",
     "0x1.5bce21626a648p-3", "-0x1.3387894326df0p-1", "-0x1.1365fa6cb20d5p+0"],
    ["0x1.2dfc64257b6abp-1", "-0x1.bf3f5d2104cfap-1", "0x1.e570b33ba4a0ep+0", "0x1.8ab01ddfd1753p-1"],
    ["0x1.79b0b0ae5cb9dp+2", "0x1.85da4ea36e0a6p-1", "0x1.019747fc4e838p+2", "0x1.bbdb1be714c78p-1"],
    ["0x1.7c53b8f9dd716p+2", "0x1.3fdf81a02c822p-2", "0x1.81a4081d644fep+2", "0x1.fec8d552b4469p-2"],
]
_PINNED_RHS_FD = [
    ["0x1.35e6336fdaae3p+2", "-0x1.d5fdc893f8669p-2", "-0x1.3e4d7b52d4bcap+8", "0x1.cddc69c7201cap-1"],
    ["0x1.086971ce9396cp+9", "-0x1.a423ea9fd8d85p-4", "-0x1.994f26883b425p-1", "-0x1.07b57fc3d4131p-2"],
    ["0x1.bdedb23abd51ep+5", "-0x1.daaa3d663cac4p+5", "-0x1.1cbb91730132cp+4",
     "0x1.b8b977a6ecd53p-2", "0x1.43197cb7dec34p-3", "-0x1.c4aaa3a5d20b6p-1",
     "-0x1.66ec723162fe7p+4", "0x1.0e84ae2e16119p+5", "0x1.80dc963a972c5p+1",
     "-0x1.e2bfaf0b3edd4p-1", "0x1.9c4e193f80ce6p-1", "-0x1.291d96fecc788p+0"],
    ["-0x1.9f6b704c41938p+4", "-0x1.1a9389977c26fp+4", "0x1.1798bf6633130p+5",
     "-0x1.92c28c6fda635p-1", "0x1.be6667a78e99ep-2", "0x1.27b83229a3333p+0",
     "-0x1.1e376541e3250p+5", "-0x1.5c15d95f14cbcp+5", "0x1.b2ffaa1dd242fp+4",
     "0x1.5bce20e167bbbp-3", "-0x1.3387894646d81p-1", "-0x1.1365fa6ecb8f2p+0"],
    ["0x1.2dfc64204f8d9p-1", "-0x1.bf3f5d20503a5p-1", "0x1.e570b338f3955p+0", "0x1.8ab01de463ed3p-1"],
    ["0x1.79b0b0ae964bep+2", "0x1.85da4ea377503p-1", "0x1.019747fc3bb6ep+2", "0x1.bbdb1be73bc3dp-1"],
    ["0x1.7c53b8f9c26b2p+2", "0x1.3fdf81aa22e9cp-2", "0x1.81a4081d53c77p+2", "0x1.fec8d564dbd53p-2"],
]


@pytest.mark.parametrize("rhs, pinned", [(hamilton_rhs, _PINNED_RHS),
                                         (hamilton_rhs_fd, _PINNED_RHS_FD)])
@pytest.mark.parametrize("k", range(7))
def test_rhs_is_pinned_per_suite_model(rhs, pinned, k):
    kind = _suite_hamiltonians()[k]
    states = _suite_states(Generator([200 + k]), kind, 2)
    got = [c.hex() for x, p in states for a in rhs(kind, PhaseState.of(x, p)) for c in a.tolist()]
    assert got == pinned[k]


@pytest.mark.parametrize("rhs, kernel", [(hamilton_rhs, dynamics._rhs),
                                         (hamilton_rhs_fd, dynamics._rhs_fd)],
                         ids=["rhs", "rhs-fd"])
@pytest.mark.parametrize("k", range(7))
def test_each_rhs_is_its_float_kernel(rhs, kernel, k):
    kind = _suite_hamiltonians()[k]
    rest = ([-0.0] * kind.dim, [-0.0] * kind.dim)
    for x, p in [rest] + _suite_states(Generator([300 + k]), kind, 20):
        got = rhs(kind, PhaseState.of(x, p))
        assert [(type(a), a.dtype, a.shape) for a in got] == [(np.ndarray, float, (kind.dim,))] * 2
        assert ([[c.hex() for c in a.tolist()] for a in got]
                == [[c.hex() for c in part] for part in kernel(kind, x, p)])
    # at rest dx/dt keeps the sign of p = -0.0
    assert [c.hex() for c in hamilton_rhs(kind, PhaseState.of(*rest))[0].tolist()] == \
        ["-0x0.0p+0"] * kind.dim


@pytest.mark.parametrize("model, values", [
    ("exact-1d", [0.0, 0.0, 0.0]),
    ("exact-3d", [0.0]),
    ("exact-3d", [[0.0, 0.0, 0.0]] * 3),
])
def test_a_wrong_size_state_is_refused_with_the_components_message(model, values):
    kind = Hamiltonian(model, params_of(0.01))
    dim = 3 if model == "exact-3d" else 1
    # PhaseState itself refuses a (3, 3) array, so build the state past its check
    v = np.array(values, dtype=float)
    state = object.__new__(PhaseState)
    for name in ("x", "p"):
        object.__setattr__(state, name, v)
    with pytest.raises(ValueError, match=re.escape(
            f"model {model} expects a {dim}-component position, got shape {v.shape}")):
        hamiltonian_value(kind, state)
