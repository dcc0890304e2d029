"""Momentum inversion, Lagrangian forms, actions along sampled paths."""

import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gupmech import legendre
from gupmech.algebra import DeformationParameters, DomainError
from gupmech.dynamics import Hamiltonian, Potential, integrate, PhaseState
from gupmech.frames import euclidean_interval
from gupmech.legendre import (
    Lagrangian,
    PathSample,
    action_along_path,
    lagrangian_from_hamiltonian,
    lagrangian_value,
    legendre_roundtrip_residual,
    momentum_from_velocity_exact,
    momentum_from_velocity_first_order,
)
from gupmech.checks import _suite_hamiltonians
from gupmech.dynamics import hamiltonian_value, radial_velocity, speed_limit
from test_dynamics import _TIME_CASES, _TIMES, _increasing_by_differences


def params_of(beta, mass=1.0):
    return DeformationParameters(beta=beta, mass=mass)


class TestFirstOrderInversion:
    def test_direct_value(self):
        got = momentum_from_velocity_first_order(0.5, params_of(0.01))
        assert got == pytest.approx(0.49833333333333335, rel=1e-15)

    def test_beta_zero_is_linear(self):
        assert momentum_from_velocity_first_order(0.7, params_of(0.0)) == 0.7

    def test_rest_maps_to_rest(self):
        assert momentum_from_velocity_first_order(0.0, params_of(0.05)) == 0.0

    def test_3d_uses_the_vector_coefficient(self):
        v = np.array([0.5, 0.0, 0.0])
        got = momentum_from_velocity_first_order(v, params_of(0.01))
        expect = 0.5 * (1.0 - 2.0 * 0.01 * 0.25)
        np.testing.assert_allclose(got, [expect, 0.0, 0.0], rtol=1e-15)

    def test_one_component_is_the_1d_form(self):
        want = momentum_from_velocity_first_order(0.5, params_of(0.01))
        got = momentum_from_velocity_first_order(np.array([0.5]), params_of(0.01))
        assert type(got) is float and got.hex() == want.hex()
        assert momentum_from_velocity_first_order([0.5], params_of(0.01)).hex() == want.hex()

    @pytest.mark.parametrize("shape", [(0,), (2,), (4,), (1, 1), (3, 1), (1, 3)])
    def test_other_shapes_are_refused_by_name(self, shape):
        message = ("first-order momentum takes 1 or 3 velocity components, "
                   f"got shape {shape}")
        with pytest.raises(ValueError, match=re.escape(message)):
            momentum_from_velocity_first_order(np.full(shape, 0.5), params_of(0.01))

    # beta m^2 |v|^2 = 0.16 and 0.09 against the bound 0.1, in 1D and 3D
    @pytest.mark.parametrize("velocity", [4.0, [2.4, 0.0, 3.2]], ids=["1d", "3d"])
    def test_warns_outside_small_deformation_regime(self, velocity):
        with pytest.warns(RuntimeWarning, match="small-deformation"):
            momentum_from_velocity_first_order(velocity, params_of(0.01))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_velocity_is_refused_by_name(self, value):
        # it returned nan, or -inf after a warning that called the speed outside
        # the small-deformation regime
        import warnings
        cases = [(value, repr(value)), ([value], repr(value))] + [
            (v, str(v)) for v in ([value, 0.5, 0.0], [0.0, -1.0, value])]
        for v, shown in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=re.escape(
                        f"first-order momentum cannot take the non-finite velocity {shown}")):
                    momentum_from_velocity_first_order(v, params_of(0.01))

    # (velocity, mass, beta, quantity, speed): the 3D |v|^2 is inf past 1.34e154, even at
    # beta = 0; the factor 1 - 4/3 beta m^2 v^2 is -inf at 1e200; m v factor is -inf at 1e155
    @pytest.mark.parametrize("velocity, mass, beta, quantity, speed", [
        ([1e200, 0.0, 0.0], 1.0, 0.01, "|v|^2", "1e+200"),
        ([0.0, -1e155, 0.0], 1.0, 0.0, "|v|^2", "1e+155"),
        (1e200, 1.0, 0.01, "factor", "1e+200"),
        ([-1e200], 1.0, 0.01, "factor", "1e+200"),
        (0.0, 1e10, 1e300, "factor", "0"),
        (1e155, 1.0, 0.01, "m v factor", "1e+155"),
        ([0.0, 1e100, 1e100], 1e200, 1e-300, "m v factor", "1.41421e+100"),
    ])
    def test_past_the_float_range_is_an_overflow_naming_the_speed(self, velocity, mass, beta,
                                                                  quantity, speed):
        # it returned -inf, or [-inf, nan, nan] after numpy's invalid-value warning
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as err:
                momentum_from_velocity_first_order(velocity, params_of(beta, mass))
        assert str(err.value) == f"first-order momentum {quantity} overflowed at speed {speed}"

    def test_a_1d_square_past_the_float_range_is_not_formed(self):
        # at beta = 0 the 1D momentum is m v whatever v^2 would be
        assert momentum_from_velocity_first_order(1e155, params_of(0.0)) == 1e155

    @pytest.mark.parametrize("velocity", [3.0, [0.0, 1.8, 2.4]], ids=["1d", "3d"])
    def test_silent_inside_the_regime(self, velocity):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            momentum_from_velocity_first_order(velocity, params_of(0.01))


class TestExactInversion:
    def test_rest_maps_to_rest(self):
        kind = Hamiltonian.exact_1d(params_of(0.01))
        assert momentum_from_velocity_exact(0.0, kind) == 0.0

    def test_tan_branch_value(self):
        kind = Hamiltonian.exact_1d(params_of(0.01))
        got = momentum_from_velocity_exact(0.5, kind)
        assert got == pytest.approx(0.49834632593727346, rel=1e-12)
        # first-order formula agrees to the beta^2 scale
        first = momentum_from_velocity_first_order(0.5, params_of(0.01))
        assert abs(got - first) < 1.0 * 0.01 ** 2

    def test_beta_zero_is_linear(self):
        kind = Hamiltonian.first_order_1d(params_of(0.0))
        assert momentum_from_velocity_exact(0.8, kind) == \
            pytest.approx(0.8, rel=1e-12)

    def test_odd_in_velocity(self):
        kind = Hamiltonian.exact_1d(params_of(0.01))
        plus = momentum_from_velocity_exact(0.5, kind)
        minus = momentum_from_velocity_exact(-0.5, kind)
        assert minus == -plus

    def test_residual_meets_the_advertised_tolerance(self):
        kind = Hamiltonian.exact_1d(params_of(0.01))
        from gupmech.dynamics import radial_velocity
        for s in (0.1, 0.5, 2.0, 7.0):
            q = momentum_from_velocity_exact(s, kind)
            assert abs(radial_velocity(kind, q) - s) <= 1e-12 * max(1.0, s)

    def test_3d_momentum_is_parallel_to_velocity(self):
        kind = Hamiltonian.exact_3d(params_of(0.01))
        v = np.array([0.3, 0.4, 0.0])
        p = momentum_from_velocity_exact(v, kind)
        np.testing.assert_allclose(np.cross(v, p), np.zeros(3), atol=1e-15)
        assert np.linalg.norm(p) < 1.0 * np.linalg.norm(v)

    def test_velocity_must_match_the_model_dimension(self):
        with pytest.raises(ValueError):
            momentum_from_velocity_exact([0.3, 0.4],
                                         Hamiltonian.exact_3d(params_of(0.01)))
        with pytest.raises(ValueError):
            momentum_from_velocity_exact([0.3, 0.4, 0.0],
                                         Hamiltonian.exact_1d(params_of(0.01)))

    def test_relativistic_speed_ceiling(self):
        kind = Hamiltonian.relativistic_first_order_1d(params_of(1e-4), 10.0)
        from gupmech.dynamics import speed_limit
        with pytest.raises(DomainError):
            momentum_from_velocity_exact(speed_limit(kind) * 1.01, kind)

    def test_sqrt_plus_supremum_unattained(self):
        kind = Hamiltonian.effective_sqrt(params_of(0.01), scale_velocity=2.0,
                                          sign=+1)
        with pytest.raises(DomainError):
            momentum_from_velocity_exact(2.0, kind)
        assert math.isfinite(momentum_from_velocity_exact(1.99, kind))

    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trips_through_the_velocity_relation(self, s):
        kind = Hamiltonian.exact_1d(params_of(0.01))
        from gupmech.dynamics import radial_velocity
        q = momentum_from_velocity_exact(s, kind)
        back = math.copysign(radial_velocity(kind, abs(q)), q) if q else 0.0
        assert back == pytest.approx(s, abs=1e-11)


    @pytest.mark.parametrize("speed", [1e-170, 1e-160])
    @pytest.mark.parametrize("model", ["exact-1d", "first-order-1d", "exact-3d", "first-order-3d"])
    def test_a_tiny_speed_keeps_its_momentum(self, model, speed):
        # p = m v to every digit here; squaring the speed used to underflow to p = 0
        kind = Hamiltonian(model, params_of(0.01))
        v = speed if kind.dim == 1 else np.array([0.0, speed, 0.0])
        assert np.ravel(momentum_from_velocity_exact(v, kind)).tolist() == np.ravel(v).tolist()

    @pytest.mark.parametrize("speed", [1e17, 1e19, 1e50, 1e100, 1e200, 1e300])
    @pytest.mark.parametrize("model", ["first-order-1d", "first-order-3d"])
    def test_a_huge_speed_on_an_unbounded_branch_inverts(self, model, speed):
        # Newton from m*s crawls toward the root for more than 64 steps here,
        # and from 1e200 on the square of a 3D speed overflows
        kind = Hamiltonian(model, params_of(0.01))
        from gupmech.dynamics import radial_velocity
        v = speed if kind.dim == 1 else np.array([speed, 0.0, 0.0])
        q = float(np.ravel(momentum_from_velocity_exact(v, kind))[0])
        assert abs(radial_velocity(kind, q) - speed) <= 1e-12 * speed

    @pytest.mark.parametrize("model, speed", [
        ("exact-1d", 1e16), ("exact-1d", 1e30), ("exact-1d", 1e100), ("exact-1d", 1e300),
        ("exact-3d", 1e10), ("exact-3d", 1e16), ("exact-3d", 1e30), ("exact-3d", 1e100),
        ("exact-3d", 1e200), ("exact-3d", 1e300)])
    def test_a_speed_floats_cannot_resolve_is_a_domain_error(self, model, speed):
        # its momentum lies within an ulp or so of the branch edge, where the
        # speed climbs by more than the 1e-12 residual from one float to the next
        kind = Hamiltonian(model, params_of(0.01))
        v = speed if kind.dim == 1 else np.array([speed, 0.0, 0.0])
        edge = {"exact-1d": "15.708", "exact-3d": "10"}[model]
        with pytest.raises(DomainError, match=re.escape(
                f"speed {speed:.6g} is out of reach of {model}: its momentum lies closer "
                f"to the branch edge |p| = {edge} than adjacent floats resolve")):
            momentum_from_velocity_exact(v, kind)

    @pytest.mark.parametrize("model, speed, pinned", [
        ("exact-1d", 1e8, ["0x1.f52b65690632bp+3"]),
        ("exact-1d", -1e10, ["-0x1.f655b71034cd9p+3"]),
        ("exact-3d", [1e8, 0.0, 0.0], ["0x1.3ff30c1c8e941p+3", "0x0.0p+0", "0x0.0p+0"]),
        ("exact-3d", [0.0, -6e7, 8e7], ["0x0.0p+0", "-0x1.7ff074ef117e7p+2",
                                        "0x1.ffeb469417535p+2"])])
    def test_a_speed_near_the_branch_edge_keeps_its_bits(self, model, speed, pinned):
        kind = Hamiltonian(model, params_of(0.01))
        q = np.ravel(momentum_from_velocity_exact(speed, kind)).tolist()
        assert [float(c).hex() for c in q] == pinned

    @pytest.mark.parametrize("model, beta, mass, speed", [
        (model, 0.0, mass, speed)
        for model in ("exact-1d", "first-order-1d", "exact-3d", "first-order-3d")
        for mass, speed in ((1.0, 1e300), (1.0, 1e200), (1e200, 1.0))
    ] + [("first-order-1d", 0.01, 1e200, 1e200), ("first-order-3d", 0.01, 1e200, 1e200)])
    def test_a_momentum_past_the_square_range_is_returned(self, model, beta, mass, speed):
        # each raised a RuntimeError: at beta = 0 the quartic term of the speed formed
        # 0 * inf = nan once |p|^2 overflowed, and at m = 1e200 the start m * s did
        kind = Hamiltonian(model, params_of(beta, mass))
        v = speed if kind.dim == 1 else np.array([0.0, -speed, 0.0])
        p = np.ravel(momentum_from_velocity_exact(v, kind)).tolist()
        q = abs(sum(p))
        if beta == 0.0:
            assert p == np.ravel(mass * v).tolist()
        else:
            assert abs(radial_velocity(kind, q) - speed) <= 1e-12 * speed

    @pytest.mark.parametrize("model, beta, mass, quantity", [
        ("exact-1d", 0.0, 1e200, "|p|"), ("first-order-1d", 0.0, 1e200, "|p|"),
        ("exact-3d", 0.0, 1e200, "|p|"), ("first-order-3d", 0.0, 1e200, "|p|"),
        ("first-order-1d", 1e-300, 1.0, "|p|^2"), ("first-order-3d", 1e-300, 1.0, "|p|^2")])
    def test_a_momentum_past_the_float_range_is_an_overflow(self, model, beta, mass, quantity):
        # |p| = m |v| = 1e400 overflows at beta = 0; at beta = 1e-300 |p| is about 9e166,
        # whose square the speed formula cannot form
        kind = Hamiltonian(model, params_of(beta, mass))
        v = 1e200 if kind.dim == 1 else [0.0, 1e200, 0.0]
        with pytest.raises(OverflowError, match=re.escape(
                f"momentum {quantity} overflowed in the {model} model at speed 1e+200")):
            momentum_from_velocity_exact(v, kind)

    @pytest.mark.parametrize("mass, scale, speed, quantity", [
        (1e308, 1.0, 0.5, "|p|^2")])
    def test_an_effective_sqrt_overflow_names_its_quantity_and_speed(self, mass, scale, speed,
                                                                    quantity):
        # at m = 1e308, w = 1 the momentum, about 5.8e307, is a float but its square is not;
        # m w and m w^2 are floats, as the model needs
        kind = Hamiltonian.effective_sqrt(params_of(0.01, mass), scale, sign=1)
        with pytest.raises(OverflowError) as err:
            momentum_from_velocity_exact(speed, kind)
        assert str(err.value) == (f"momentum {quantity} overflowed in the effective-sqrt model "
                                  f"at speed {speed:.6g}")

    # m w = inf; m w^2 = inf; m w^2 = 1e-450, which underflows to 0
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("mass, scale, quantity, value", [
        (1e200, 1e200, "m w", "inf"), (1.0, 1e200, "m w^2", "inf"),
        (1e154, 1e154, "m w^2", "inf"), (1e150, 1e-300, "m w^2", "0.0")])
    def test_an_effective_sqrt_scale_past_the_float_range_is_refused(self, mass, scale,
                                                                     quantity, value, sign):
        # m w^2 = inf made the energy nan at every momentum, (inf) (sqrt(1 +- y^2) - 1)
        # with y = 0 at rest, while the rates stayed finite
        with pytest.raises(ValueError) as err:
            Hamiltonian.effective_sqrt(params_of(0.01, mass), scale, sign=sign)
        assert str(err.value) == (f"the effective-sqrt model needs {quantity} inside the normal "
                                  f"float range, got {value} with m = {mass!r}, w = {scale!r}")

    def test_an_effective_sqrt_scale_at_the_float_edges_keeps_a_finite_energy(self):
        # m w^2 = 1e308 and m w^2 = 1e-300 are normal floats
        for mass, scale in ((1e308, 1.0), (1e150, 1e-225)):
            kind = Hamiltonian.effective_sqrt(params_of(0.01, mass), scale, sign=1)
            assert math.isfinite(hamiltonian_value(kind, PhaseState.of(0.0, 1.0)))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("mass", [1e-160, 1e-170, 1e-300])
    def test_an_effective_sqrt_scale_below_the_normal_floats_is_refused(self, mass, sign):
        # |p|^2 near (m w)^2 is subnormal or 0 there, and the inversion came out 13% low
        # (plus) or 12% high (minus) at m = 1e-170, as if the model were |p|^2 / 2m
        with pytest.raises(ValueError) as err:
            Hamiltonian.effective_sqrt(params_of(0.01, mass), 1.0, sign=sign)
        assert str(err.value) == ("the effective-sqrt model needs (m w)^2 of at least the "
                                  f"smallest normal float, got m = {mass!r}, w = 1.0")

    @pytest.mark.parametrize("sign, pinned", [(1, 5.773502691896259e-101),
                                              (-1, 4.4721359549995795e-101)])
    def test_an_effective_sqrt_scale_inside_the_normal_floats_inverts(self, sign, pinned):
        # m s / sqrt(1 - sign s^2 / w^2) at m = 1e-100, s = 0.5, w = 1
        kind = Hamiltonian.effective_sqrt(params_of(0.01, 1e-100), 1.0, sign=sign)
        assert momentum_from_velocity_exact(0.5, kind) == pinned
        assert pinned == pytest.approx(0.5e-100 / math.sqrt(1.0 - sign * 0.25), rel=1e-15)

    @pytest.mark.parametrize("model", ["first-order-1d", "exact-3d"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_momentum_whose_m_s_underflows_is_zero(self, model, sign):
        # m s = 1e-400: the momentum, about m s, is below the smallest float, and any
        # momentum the absolute tolerance 1e-12 accepts is far too fast (1e-212 moves at 1e-12)
        kind = Hamiltonian(model, params_of(0.01, 1e-200))
        v = sign * 1e-200 if kind.dim == 1 else [sign * 1e-200, 0.0, 0.0]
        p = np.ravel(momentum_from_velocity_exact(v, kind)).tolist()
        assert p == [0.0] * kind.dim and math.copysign(1.0, p[0]) == sign

    def test_the_relativistic_speed_limit_maps_to_the_branch_edge(self):
        kind = Hamiltonian.relativistic_first_order_1d(params_of(1e-4), 10.0)
        edge = legendre.monotone_momentum_limit(kind)
        assert edge == 8.27605888602368
        assert momentum_from_velocity_exact(speed_limit(kind), kind) == edge
        assert momentum_from_velocity_exact(-speed_limit(kind), kind) == -edge

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("k", range(7))
    def test_a_non_finite_velocity_is_refused_by_name(self, monkeypatch, k, value):
        # it used to fail in the search instead: a bracket not found after 200
        # doublings, a speed closer to the branch edge than floats resolve, or
        # beta*|p|^2 = 1 >= 1 in exact-3d
        kind = _suite_hamiltonians()[k]
        newton = []
        monkeypatch.setattr(legendre, "_solve_radial", lambda *args: newton.append(args))
        if kind.dim == 1:
            cases = [(value, repr(value))]
        else:
            cases = [(v, str(v)) for v in ([value, 0.5, 0.0], [0.0, -1.0, value])]
        for v, shown in cases:
            with pytest.raises(ValueError, match=re.escape(
                    f"{kind.model} cannot invert the non-finite velocity {shown}")):
                momentum_from_velocity_exact(v, kind)
        assert newton == []

_ACTION_PARAMS = params_of(0.01, 1.3)
_ACTION_POTENTIALS = {"free": Potential.free(), "harmonic": Potential.harmonic(0.7),
                      "uniform-field": Potential.uniform_field(0.4)}
_ACTION_MODELS = {
    "first-order-1d": lambda pot: Lagrangian.first_order_1d(_ACTION_PARAMS, pot),
    "sqrt-1d": lambda pot: Lagrangian.sqrt_1d(
        _ACTION_PARAMS, math.sqrt(3.0 / (8.0 * 0.01 * 1.3 ** 2)), pot),
    "first-order-3d": lambda pot: Lagrangian.first_order_3d(_ACTION_PARAMS, pot),
    "relativistic": lambda pot: Lagrangian.relativistic(_ACTION_PARAMS, 3.0, pot),
}


class TestLagrangianValue:
    def test_undeformed_quadratic(self):
        kind = Lagrangian.first_order_1d(params_of(0.0))
        assert lagrangian_value(kind, 0.0, 1.0) == 0.5

    def test_first_order_quartic_correction(self):
        kind = Lagrangian.first_order_1d(params_of(0.01))
        got = lagrangian_value(kind, 0.0, 1.0)
        assert got == pytest.approx(0.49666666666666665, rel=1e-15)

    def test_sqrt_form_and_its_gap_to_first_order(self):
        # u^2 = 3/(8 beta m^2) makes the two forms agree through O(beta).
        u = math.sqrt(3.0 / (8.0 * 0.01))
        kind = Lagrangian.sqrt_1d(params_of(0.01), u)
        got = lagrangian_value(kind, 0.0, 1.0)
        assert got == pytest.approx(0.4967103839266601, rel=1e-14)
        gap = got - 0.49666666666666665
        assert gap == pytest.approx(4.371725999346987e-05, rel=1e-9)

    def test_potential_enters_with_a_minus_sign(self):
        kind = Lagrangian.first_order_1d(params_of(0.0),
                                         Potential.harmonic(2.0))
        assert lagrangian_value(kind, 1.0, 0.0) == -1.0

    def test_first_order_3d(self):
        kind = Lagrangian.first_order_3d(params_of(0.01))
        v = np.array([1.0, 0.0, 0.0])
        got = lagrangian_value(kind, np.zeros(3), v)
        assert got == pytest.approx(0.5 - 0.005, rel=1e-15)

    @pytest.mark.parametrize("model", ["first-order-1d", "sqrt-1d", "relativistic"])
    def test_a_1d_form_takes_one_component(self, model):
        kind = _ACTION_MODELS[model](Potential.harmonic(0.7))
        path = PathSample(np.linspace(0.0, 1.0, 5), 0.3 * np.linspace(0.0, 1.0, 5) ** 2)
        for x, v in zip(path.positions, path.velocities):  # rows of shape (1,)
            want = lagrangian_value(kind, x.item(), v.item())
            assert lagrangian_value(kind, x, v).hex() == want.hex()

    @pytest.mark.parametrize("model, velocity", [
        ("first-order-1d", [0.5, 0.5]),
        ("first-order-3d", [0.5, 0.5]),
        ("first-order-3d", 0.5),
    ])
    def test_a_wrong_component_count_is_refused_by_shape(self, model, velocity):
        kind = _ACTION_MODELS[model](Potential.free())
        shape = np.shape(velocity)
        message = f"model {model} expects a {kind.dim}-component velocity, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            lagrangian_value(kind, np.zeros(kind.dim), velocity)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("model", sorted(_ACTION_MODELS))
    def test_a_non_finite_velocity_is_refused_by_name(self, model, value):
        # first-order-1d gave nan at v = nan and sqrt-1d gave inf at v = inf
        kind = _ACTION_MODELS[model](Potential.harmonic(0.7))
        if kind.dim == 1:
            cases = [(value, repr(value)), ([value], repr(value))]
        else:
            cases = [(v, str(v)) for v in ([value, 0.5, 0.0], [0.0, -1.0, value])]
        for v, shown in cases:
            with pytest.raises(ValueError, match=re.escape(
                    f"{model} Lagrangian cannot take the non-finite velocity {shown}")):
                lagrangian_value(kind, np.zeros(kind.dim), v)

    @pytest.mark.parametrize("model, x", [
        (model, x) for model in sorted(_ACTION_MODELS) for x in (
            [1.0, [1.0], [1.0, 2.0], np.ones(4), [[1.0, 2.0, 3.0]], np.ones((3, 1)), []]
            if model == "first-order-3d" else
            [[1.0, 2.0, 3.0], [1.0, 2.0], np.ones(4), [[1.0]], np.ones((3, 1)), []])])
    def test_a_position_of_another_size_is_refused_by_name(self, model, x):
        # Potential.energy took its size from x: first-order-1d harmonic at x = [1, 2, 3]
        # gave -6.875, a 3D potential energy, and the free potential took any size
        for potential in _ACTION_POTENTIALS.values():
            kind = _ACTION_MODELS[model](potential)
            message = (f"model {model} expects a {kind.dim}-component position, "
                       f"got shape {np.shape(x)}")
            with pytest.raises(ValueError, match=re.escape(message)):
                lagrangian_value(kind, x, np.full(kind.dim, 0.5))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("model", sorted(_ACTION_MODELS))
    def test_a_non_finite_position_is_refused_by_name(self, model, value):
        # it gave -inf or nan, or a finite value under the free potential
        for potential in _ACTION_POTENTIALS.values():
            kind = _ACTION_MODELS[model](potential)
            if kind.dim == 1:
                cases = [(value, repr(value)), ([value], repr(value))]
            else:
                cases = [(v, str(v)) for v in ([value, 0.5, 0.0], [0.0, -1.0, value])]
            for x, shown in cases:
                with pytest.raises(ValueError, match=re.escape(
                        f"{model} Lagrangian cannot take the non-finite position {shown}")):
                    lagrangian_value(kind, x, np.full(kind.dim, 0.5))

    def test_relativistic_rest_term(self):
        kind = Lagrangian.relativistic(params_of(1e-4), 10.0)
        assert lagrangian_value(kind, 0.0, 0.0) == -100.0

    def test_relativistic_speed_domain(self):
        kind = Lagrangian.relativistic(params_of(1e-4), 10.0)
        with pytest.raises(DomainError):
            lagrangian_value(kind, 0.0, 10.0)

    @pytest.mark.parametrize("model", sorted(_ACTION_MODELS))
    def test_pickle_round_trip(self, model):
        kind = _ACTION_MODELS[model](Potential.harmonic(0.7))
        back = pickle.loads(pickle.dumps(kind))
        v = np.array([0.3, -0.2, 0.1]) if kind.dim == 3 else 0.3
        assert back == kind
        assert lagrangian_value(back, 0.5 * v, v) == lagrangian_value(kind, 0.5 * v, v)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            Lagrangian("quartic", params_of(0.01))
        with pytest.raises(ValueError):
            Lagrangian.sqrt_1d(params_of(0.01), 0.0)


def test_3d_first_order_forms_sum_the_squared_speed_on_floats():
    # bit for bit: |v|^2 is summed left to right on floats, as dynamics sums
    # |p|^2; the correctly rounded sum of the same squares differs on some
    params = params_of(0.01, 1.3)
    m, b = params.mass, params.beta
    kind = Lagrangian.first_order_3d(params)
    velocities = np.random.default_rng(11).uniform(-1.2, 1.2, (200, 3))
    rounded_apart = 0
    for v in velocities:
        v1, v2, v3 = v.tolist()
        vsq = v1 * v1 + v2 * v2 + v3 * v3
        rounded_apart += math.fsum((v1 * v1, v2 * v2, v3 * v3)) != vsq
        want = m * vsq / 2.0 - (b * m ** 3 / 2.0) * vsq * vsq - 0.0
        assert lagrangian_value(kind, np.zeros(3), v).hex() == want.hex()
        got = momentum_from_velocity_first_order(v, params).tolist()
        want = (m * v * (1.0 - 2.0 * b * m * m * vsq)).tolist()
        assert [c.hex() for c in got] == [c.hex() for c in want]
    assert rounded_apart > 0


class TestLegendreRoundtrip:
    def test_undeformed_pair_closes(self):
        lag = Lagrangian.first_order_1d(params_of(0.0))
        ham = Hamiltonian.first_order_1d(params_of(0.0))
        assert legendre_roundtrip_residual(lag, ham, 0.9) < 1e-12

    def test_transform_of_the_hamiltonian_is_tautological(self):
        ham = Hamiltonian.exact_1d(params_of(0.01))
        lag = lagrangian_from_hamiltonian(ham)
        assert legendre_roundtrip_residual(lag, ham, 0.5) < 1e-12

    def test_first_order_mismatch_is_second_order_small(self):
        beta = 0.01
        resid = legendre_roundtrip_residual(
            Lagrangian.first_order_1d(params_of(beta)),
            Hamiltonian.exact_1d(params_of(beta)), 0.5)
        assert resid <= 5.0 * beta ** 2 * 0.5 ** 6

    def test_mismatch_drops_fourfold_per_beta_halving(self):
        def resid(beta):
            return legendre_roundtrip_residual(
                Lagrangian.first_order_1d(params_of(beta)),
                Hamiltonian.exact_1d(params_of(beta)), 0.5)

        ratio = resid(0.01) / resid(0.005)
        assert 3.2 < ratio < 4.8

    @pytest.mark.parametrize("quantity", ["position", "velocity"])
    @pytest.mark.parametrize("k", range(7))
    def test_a_non_finite_input_is_refused_by_name(self, k, quantity):
        kind = _suite_hamiltonians()[k]
        first = (Lagrangian.first_order_1d if kind.dim == 1 else Lagrangian.first_order_3d)(
            kind.params, kind.potential)
        bad = math.nan if kind.dim == 1 else [0.1, math.nan, 0.0]
        fine = 0.1 if kind.dim == 1 else [0.1, 0.0, 0.0]
        x, v = (bad, fine) if quantity == "position" else (fine, bad)
        message = re.escape(f"{kind.model} Legendre transform cannot take the non-finite "
                            f"{quantity} {'nan' if kind.dim == 1 else [0.1, math.nan, 0.0]}")
        with pytest.raises(ValueError, match=message):
            legendre_roundtrip_residual(first, kind, v, x)
        with pytest.raises(ValueError, match=message):
            lagrangian_from_hamiltonian(kind)(x, v)


class TestPathSample:
    def test_velocities_derived_when_absent(self):
        t = np.linspace(0.0, 1.0, 11)
        path = PathSample(t, 2.0 * t)
        np.testing.assert_allclose(path.velocities[:, 0], 2.0, rtol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            PathSample(np.array([0.0]), np.array([1.0]))

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError):
            PathSample(np.array([0.0, 2.0, 1.0]), np.zeros(3))

    @staticmethod
    def _refuses(times):
        try:
            PathSample(np.array(times), np.zeros(len(times)), np.zeros(len(times)))
        except ValueError as err:
            assert str(err) == "path times must be strictly increasing"
            return True
        return False

    @pytest.mark.parametrize("times", _TIME_CASES)
    def test_refuses_the_times_the_difference_test_refused(self, times):
        assert self._refuses(times) == (not _increasing_by_differences(times))

    @given(_TIMES)
    @settings(max_examples=300, deadline=None)
    def test_refuses_exactly_the_times_the_difference_test_refused(self, times):
        assert self._refuses(times) == (not _increasing_by_differences(times))

    def test_two_component_positions_rejected(self):
        with pytest.raises(ValueError):
            PathSample(np.array([0.0, 1.0]), np.zeros((2, 2)))

    def test_split_shares_the_joint_sample(self):
        t = np.linspace(0.0, 1.0, 5)
        path = PathSample(t, np.sin(t))
        left, right = path.split(2)
        assert left.times[-1] == right.times[0]
        assert left.velocities[-1, 0] == right.velocities[0, 0]
        with pytest.raises(ValueError):
            path.split(4)

    def test_from_trajectory(self):
        kind = Hamiltonian.first_order_1d(params_of(0.0))
        traj = integrate(kind, PhaseState.of(0.0, 1.0), t_end=1.0, dt=0.1)
        path = PathSample.from_trajectory(traj)
        assert len(path) == len(traj)
        np.testing.assert_allclose(path.velocities[:, 0], 1.0, rtol=1e-9)


class TestActionAlongPath:
    def test_static_path_contributes_nothing(self):
        u = math.sqrt(37.5)
        kind = Lagrangian.sqrt_1d(params_of(0.01), u)
        t = np.linspace(0.0, 3.0, 31)
        path = PathSample(t, np.full_like(t, 1.25))
        assert action_along_path(kind, path) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_motion_closed_form(self):
        u = math.sqrt(37.5)
        V, T = 1.0, 3.0
        kind = Lagrangian.sqrt_1d(params_of(0.01), u)
        t = np.linspace(0.0, T, 61)
        path = PathSample(t, V * t)
        expect = T * (u * u * (math.sqrt(1.0 + V * V / (u * u)) - 1.0))
        assert action_along_path(kind, path) == pytest.approx(expect, rel=1e-12)

    def test_quadrature_is_second_order(self):
        kind = Lagrangian.first_order_1d(params_of(0.01),
                                         Potential.harmonic(1.0))

        def act(n):
            t = np.linspace(0.0, 2.0, n)
            return action_along_path(kind, PathSample(t, np.cos(t), -np.sin(t)))

        ref = act(20001)
        ratio = abs(act(101) - ref) / abs(act(201) - ref)
        assert 3.0 < ratio < 5.5

    def test_additive_across_a_split(self):
        kind = Lagrangian.first_order_1d(params_of(0.01),
                                         Potential.harmonic(1.0))
        t = np.linspace(0.0, 2.0, 1001)
        path = PathSample(t, np.cos(t), -np.sin(t))
        left, right = path.split(517)
        whole = action_along_path(kind, path)
        parts = action_along_path(kind, left) + action_along_path(kind, right)
        assert parts == pytest.approx(whole, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        kind = Lagrangian.first_order_3d(params_of(0.01))
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            action_along_path(kind, PathSample(t, t))

    def test_relativistic_sample_at_light_speed_raises(self):
        # one sample of an otherwise slow path sits exactly at |v| = c
        kind = Lagrangian.relativistic(params_of(1e-4), 3.0, Potential.harmonic(0.7))
        t = np.linspace(0.0, 1.0, 11)
        velocities = np.full(11, 0.5)
        velocities[6] = -3.0
        with pytest.raises(DomainError) as err:
            action_along_path(kind, PathSample(t, 0.5 * t, velocities))
        assert str(err.value) == "relativistic Lagrangian needs |v| < 3, got 3"


# float.hex of action_along_path on _action_path, recorded from the
# per-sample lagrangian_value loop.
_PINNED_ACTIONS = {
    ("first-order-1d", "free"): "0x1.d99bd883d831cp-2",
    ("first-order-1d", "harmonic"): "0x1.c0f8319a58dfep-5",
    ("first-order-1d", "uniform-field"): "0x1.1268c13ebc328p+0",
    ("sqrt-1d", "free"): "0x1.d9ca31b3e3c9bp-2",
    ("sqrt-1d", "harmonic"): "0x1.c26afb1ab59f3p-5",
    ("sqrt-1d", "uniform-field"): "0x1.1274578abf188p+0",
    ("first-order-3d", "free"): "0x1.a7e258b682ed6p+0",
    ("first-order-3d", "harmonic"): "0x1.1a0b530a8630fp+0",
    ("first-order-3d", "uniform-field"): "0x1.106ba1561927dp+1",
    ("relativistic", "free"): "-0x1.6eb087cd23384p+4",
    ("relativistic", "harmonic"): "-0x1.75367b16656cap+4",
    ("relativistic", "uniform-field"): "-0x1.64f06b1b46d5ep+4",
}


def _action_path(dim):
    """A seeded random walk of 81 samples over t in [0, 2]; |v| stays under 2.2."""
    rng = np.random.default_rng(23 + dim)
    times = np.linspace(0.0, 2.0, 81)
    steps = rng.uniform(-0.04, 0.04, (81, dim))
    return PathSample(times, rng.uniform(-1.0, 1.0, dim) + np.cumsum(steps, axis=0))


@pytest.mark.parametrize("model, potential", sorted(_PINNED_ACTIONS))
def test_action_along_path_is_pinned(model, potential):
    kind = _ACTION_MODELS[model](_ACTION_POTENTIALS[potential])
    got = action_along_path(kind, _action_path(kind.dim))
    assert got.hex() == _PINNED_ACTIONS[model, potential]


class TestEuclideanInterval:
    def test_coincident_events(self):
        e = [1.0, 2.0]
        assert euclidean_interval(e, e, 3.0) == 0.0

    def test_pure_time_separation(self):
        got = euclidean_interval([0.0, 0.0], [1.0, 0.0], 2.0)
        assert got == 4.0

    def test_unit_cube_diagonal(self):
        got = euclidean_interval([0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], 1.0)
        assert got == 4.0

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            euclidean_interval([0.0, 0.0], [1.0, 1.0], 0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            euclidean_interval([0.0, 0.0], [1.0, 1.0, 0.0, 0.0], 1.0)

    def test_free_sqrt_action_is_an_arc_length(self):
        # Straight free path: dynamical action = m u (arc in (ut, x)) - m u^2 T.
        u = 5.0
        V, T = 2.0, 1.5
        kind = Lagrangian.sqrt_1d(params_of(0.01), u)
        t = np.linspace(0.0, T, 201)
        action = action_along_path(kind, PathSample(t, V * t))
        arc = math.sqrt(euclidean_interval([0.0, 0.0], [T, V * T], u))
        assert action == pytest.approx(u * arc - u * u * T, rel=1e-12)


# float.hex of momentum_from_velocity_exact per _suite_hamiltonians() model
# on the three velocities of _seeded_velocities(kind, 100 + k), flattened.
_PINNED_INVERSIONS = [
    ["0x1.a0f24f5d11155p+2", "0x1.87ce48d7edba4p+1", "-0x1.4cc22d246e5fcp+2"],
    ["0x1.09f80c438726ep+3", "-0x1.07ffd6a22055cp+2", "0x1.a22a6fba24320p+2"],
    ["-0x1.027e0df53dfb4p+2", "0x1.055adb0581b36p+0", "0x1.ec6524d1987b5p+1",
     "0x1.e894b2d191744p+1", "-0x1.7dbb58a5ecff7p-1", "0x1.02882ee9560afp+3",
     "0x1.2612f26c5d00bp+2", "-0x1.330d3bae3eac1p+1", "-0x1.d1ed660ff9041p+1"],
    ["-0x1.3a9d684d1f94dp+2", "-0x1.cf0818a2975d8p+2", "-0x1.0b0bd5031c9a7p+3",
     "0x1.94c2f6e942bc4p+2", "-0x1.c0cb19d6af29dp+2", "-0x1.dd873f90cd106p+1",
     "0x1.4df5ba3f24d4dp+3", "-0x1.96ee92f095e0bp+1", "-0x1.ed8ee55320836p-1"],
    ["0x1.087a5c5c493d9p+2", "0x1.1ead5cf964966p+1", "-0x1.b219b23fbe210p+1"],
    ["0x1.ee4088ec23018p+1", "0x1.725c851de741fp+2", "-0x1.691ba3a25a222p+2"],
    ["0x1.57131bf7f01edp+3", "-0x1.2090aacef384cp+3", "-0x1.6a778db4f50cap+2"],
]


def _seeded_velocities(kind, seed):
    """Three velocities below 0.9 of the model's speed limit, capped at 18."""
    rng = np.random.default_rng(seed)
    cap = min(speed_limit(kind), 20.0)
    for _ in range(3):
        if kind.dim == 1:
            yield float(rng.uniform(-0.9, 0.9)) * cap
        else:
            d = rng.uniform(-1.0, 1.0, size=3)
            d1, d2, d3 = d.tolist()
            norm = math.sqrt(d1 * d1 + d2 * d2 + d3 * d3)
            yield d * (float(rng.uniform(0.05, 0.9)) * cap / norm)


@pytest.mark.parametrize("k", range(7))
def test_the_exact_inversion_is_its_float_kernel(k):
    kind = _suite_hamiltonians()[k]
    rest = -0.0 if kind.dim == 1 else np.array([-0.0, 0.0, -0.0])
    for v in [rest, *_seeded_velocities(kind, 300 + k)]:
        got = momentum_from_velocity_exact(v, kind)
        if kind.dim == 1:
            assert type(got) is float
        else:
            assert type(got) is np.ndarray and got.dtype == float and got.shape == (3,)
        want = legendre._momentum_exact(kind, np.ravel(v).tolist())
        assert [c.hex() for c in np.ravel(got).tolist()] == [c.hex() for c in want]
    # at rest the momentum keeps the velocity's signed zeros
    assert [c.hex() for c in np.ravel(momentum_from_velocity_exact(rest, kind)).tolist()] == \
        [c.hex() for c in np.ravel(rest).tolist()]


@pytest.mark.parametrize("k", range(7))
def test_exact_inversion_is_pinned_per_suite_model(k):
    kind = _suite_hamiltonians()[k]
    got = [float(c).hex() for v in _seeded_velocities(kind, 100 + k)
           for c in np.ravel(momentum_from_velocity_exact(v, kind))]
    assert got == _PINNED_INVERSIONS[k]


def _model_points(dim, seed, speed):
    """Three seeded (x, v) of the model's size: floats in 1D, 3-arrays in 3D."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x, v = rng.uniform(-2.0, 2.0, dim), rng.uniform(-speed, speed, dim)
        yield (x.item(), v.item()) if dim == 1 else (x, v)


# float.hex of lagrangian_value at _model_points(kind.dim, 40 + kind.dim, 1.5)
_PINNED_LAGRANGIANS = {
    ("first-order-1d", "free"):
        ["0x1.aae7f7943e936p-2", "0x1.3cc73f42b370cp-1", "0x1.0dbb02edb1d7cp-3"],
    ("first-order-1d", "harmonic"):
        ["-0x1.79ea8b0939279p-1", "-0x1.5158fc0be9fb8p-3", "-0x1.19f0801a5db60p-1"],
    ("first-order-1d", "uniform-field"):
        ["0x1.24bf2fbc86134p+0", "0x1.4bf4143888240p-6", "0x1.616478f94ac9ap-1"],
    ("first-order-3d", "free"):
        ["0x1.203908cab620cp+0", "0x1.010113523b946p+1", "0x1.515abe99063d4p+1"],
    ("first-order-3d", "harmonic"):
        ["-0x1.75ae667861606p+0", "0x1.4de2819afac94p+0", "0x1.06b5fcd50e8c8p+1"],
    ("first-order-3d", "uniform-field"):
        ["0x1.5e9ac4feb84f0p+0", "0x1.34923dfc828acp+1", "0x1.2404bd5c603a4p+1"],
    ("relativistic", "free"):
        ["-0x1.68b60b7618eb5p+3", "-0x1.61d1936bb1e23p+3", "-0x1.7226d552d676ap+3"],
    ("relativistic", "harmonic"):
        ["-0x1.8dabf3e34e726p+3", "-0x1.7ae36b500cc13p+3", "-0x1.87fcc96033196p+3"],
    ("relativistic", "uniform-field"):
        ["-0x1.5175653b2a1d8p+3", "-0x1.74f80d55c0d53p+3", "-0x1.604779cef8916p+3"],
    ("sqrt-1d", "free"):
        ["0x1.aaf36d0017580p-2", "0x1.3cda03811068cp-1", "0x1.0dbbbb64ae1f7p-3"],
    ("sqrt-1d", "harmonic"):
        ["-0x1.79e4d0534cc54p-1", "-0x1.510deb12761b8p-3", "-0x1.19f051fc9ea41p-1"],
    ("sqrt-1d", "uniform-field"):
        ["0x1.24c20d177c446p+0", "0x1.4e4c9c0427240p-6", "0x1.6164a71709db9p-1"],
}


@pytest.mark.parametrize("model, potential", sorted(_PINNED_LAGRANGIANS))
def test_lagrangian_value_is_pinned(model, potential):
    kind = _ACTION_MODELS[model](_ACTION_POTENTIALS[potential])
    points = _model_points(kind.dim, 40 + kind.dim, 1.5)
    got = [lagrangian_value(kind, x, v).hex() for x, v in points]
    assert got == _PINNED_LAGRANGIANS[model, potential]


# float.hex of (lagrangian_from_hamiltonian(kind)(x, v), legendre_roundtrip_residual of the
# first-order Lagrangian of kind's size, parameters and potential against kind at (x, v)) per
# _suite_hamiltonians() model, v from _seeded_velocities(kind, 200 + k), x drawn per v, flattened
_PINNED_PAIRINGS = [
    ["0x1.81de0f584255ap+3", "0x1.b9ba30e66b360p-1", "0x1.b45ee6dc77da3p+3",
     "0x1.84ef2cba6bca0p+0", "0x1.49c24ebf29f3ep+6", "0x1.ab8cffd8998efp+7"],
    ["0x1.82b046a28ee1bp+6", "0x1.0966ecf41fffdp+8", "0x1.c88ea92973944p-2",
     "0x1.cae68205a1000p-12", "-0x1.377dfed1cb696p-4", "0x1.030bdf38c0000p-21"],
    ["0x1.19fe8c266b906p+6", "0x1.e9276e6d81ae0p+1", "0x1.859c0f902d660p+6",
     "0x1.3b2ca2c130a40p+3", "0x1.594bad841466ap+6", "0x1.bd4f3954ccc20p+2"],
    ["0x1.3f2b38aadd65ap+3", "0x1.9a74b2532e000p-6", "0x1.05b11cb9d5a09p+5",
     "0x1.0d8dda5e4df80p-1", "0x1.0bb1fb51f7a68p+2", "0x1.871171efc2000p-10"],
    ["-0x1.940edf7c407dap+6", "0x1.8ffff6183273cp+6", "-0x1.75de995824698p+6",
     "0x1.8f1f8c7db480cp+6", "-0x1.90879e3375d1ep+6", "0x1.8ffb9de8a5bf6p+6"],
    ["0x1.d6b871de4141bp+5", "0x1.adc799df52a42p+6", "0x1.09afb1915760ap+5",
     "0x1.fd224f79825b8p+3", "0x1.57405dd0d3e90p+5", "0x1.22db1452f8485p+5"],
    ["0x1.019115491d44dp+3", "0x1.f02e964fa2b50p+0", "0x1.1c836b146d92bp-1",
     "0x1.f8bacb0a8a580p-7", "0x1.3bb59a295f19cp+4", "0x1.17e61740c1ad0p+3"],
]


@pytest.mark.parametrize("k", range(7))
def test_the_legendre_pairing_is_pinned_per_suite_model(k):
    kind = _suite_hamiltonians()[k]
    lag = lagrangian_from_hamiltonian(kind)
    first = (Lagrangian.first_order_1d if kind.dim == 1 else Lagrangian.first_order_3d)(
        kind.params, kind.potential)
    rng = np.random.default_rng(60 + k)
    got = []
    for v in _seeded_velocities(kind, 200 + k):
        x = rng.uniform(-2.0, 2.0, kind.dim)
        x = x.item() if kind.dim == 1 else x
        got += [lag(x, v).hex(), legendre_roundtrip_residual(first, kind, v, x).hex()]
    assert got == _PINNED_PAIRINGS[k]
