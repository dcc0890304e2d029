"""Deformed bracket algebra: representations, numerics, structure checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gupmech.algebra import (
    BRACKET_STEP,
    NESTED_BRACKET_STEP,
    DeformationParameters,
    DomainError,
    PhaseState,
    bracket_xp_1d,
    bracket_xp_3d,
    coordinate_function,
    jacobi_residual,
    momentum_function_1d,
    momentum_function_3d,
    momentum_map_1d,
    momentum_map_3d,
    numerical_bracket,
    _contract,
    _gradients_at,
    _jacobi,
    _Point,
    _probes,
)

FD_TOL = 10.0 * BRACKET_STEP ** 2


def params_of(beta, mass=1.0):
    return DeformationParameters(beta=beta, mass=mass)


def _left_to_right_square(p):
    """|p|^2 of a 3-vector summed in axis order on floats, with no BLAS kernel involved."""
    p1, p2, p3 = p.tolist()
    return p1 * p1 + p2 * p2 + p3 * p3


class TestDeformationParameters:
    def test_gamma_is_sqrt_beta_times_mass(self):
        params = params_of(0.04, mass=3.0)
        assert params.gamma == pytest.approx(0.6, rel=1e-15)

    def test_from_gamma_round_trips(self):
        params = DeformationParameters.from_gamma(0.2, 2.0)
        assert params.beta == pytest.approx(0.01, rel=1e-12)
        assert params.gamma == pytest.approx(0.2, rel=1e-12)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            params_of(-0.1)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            params_of(0.1, mass=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_from_gamma_names_a_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="^gamma must be a finite number$"):
            DeformationParameters.from_gamma(bad, 1.0)
        with pytest.raises(ValueError, match="^mass must be a finite number$"):
            DeformationParameters.from_gamma(0.2, bad)
        # gamma is checked first
        with pytest.raises(ValueError, match="^gamma must be a finite number$"):
            DeformationParameters.from_gamma(bad, bad)


class TestPhaseState:
    def test_scalar_inputs_become_1d_arrays(self):
        state = PhaseState.of(1.5, -0.25)
        assert state.dim == 1
        assert state.x.shape == (1,)

    def test_arrays_are_read_only(self):
        state = PhaseState.of([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            state.x[0] = 9.0

    def test_two_component_states_rejected(self):
        with pytest.raises(ValueError):
            PhaseState.of([1.0, 2.0], [0.1, 0.2])


class TestProbes:
    STATE = PhaseState.of([1.0, -2.5, 0.3], [0.1, 40.0, -0.7])

    def test_probe_arrays_are_read_only(self):
        # the points a caller's function is given, through the public shell
        seen = []
        numerical_bracket(lambda point: seen.append(point) or 0.0, coordinate_function(),
                          self.STATE)
        assert len(seen) == 12
        for point in seen:
            assert type(point) is _Point
            assert point.x is point[0] and point.p is point[1]
            for v in point:
                assert type(v) is tuple and len(v) == 3
                assert all(type(c) is float for c in v)
                with pytest.raises(TypeError):
                    v[0] = 9.0

    def test_each_probe_is_the_state_with_one_coordinate_moved(self):
        x, p = self.STATE.x, self.STATE.p
        for i, (hx, hp, shifted) in enumerate(_probes(x.tolist(), p.tolist(), BRACKET_STEP)):
            assert hx == BRACKET_STEP * max(1.0, abs(x[i]))
            assert hp == BRACKET_STEP * max(1.0, abs(p[i]))
            unit = np.eye(3)[i]
            expected = [(x + hx * unit, p), (x - hx * unit, p),
                        (x, p + hp * unit), (x, p - hp * unit)]
            for (probe_x, probe_p), (ex, ep) in zip(shifted, expected):
                assert len(probe_x) == len(probe_p) == 3
                assert probe_x == ex.tolist() and probe_p == ep.tolist()

    @pytest.mark.parametrize("x, p", [(1.7e308, 0.0), (0.0, -1.7e308)])
    def test_probe_past_the_float_range_raises(self, x, p):
        # a step of a tenth of the coordinate carries it past the largest float
        with pytest.raises(ValueError, match="^phase-space components must be finite$"):
            numerical_bracket(coordinate_function(), lambda state: float(state.p[0]),
                              PhaseState.of(x, p), step_scale=0.1)

    @pytest.mark.parametrize("step", [0.0, -1e-5, math.nan, math.inf])
    def test_a_step_that_is_not_finite_and_positive_is_refused(self, step):
        with pytest.raises(ValueError, match=f"^step_scale must be finite and positive, got {step}$"):
            numerical_bracket(coordinate_function(), lambda state: float(state.p[0]),
                              PhaseState.of(0.5, 0.25), step_scale=step)


class TestMomentumMap1d:
    def test_beta_zero_is_identity(self):
        assert momentum_map_1d(0.3, params_of(0.0)) == 0.3

    def test_direct_value(self):
        got = momentum_map_1d(0.5, params_of(0.04))
        assert got == pytest.approx(0.5016733604272527, rel=1e-14)

    def test_small_deformation_series(self):
        # P - p = beta p^3/3 + O(beta^2)
        beta, p = 0.0004, 0.5
        got = momentum_map_1d(p, params_of(beta)) - p
        lead = beta * p ** 3 / 3.0
        assert got == pytest.approx(lead, rel=5e-4)

    def test_branch_boundary_raises(self):
        params = params_of(0.04)
        edge = (math.pi / 2.0) / params.sqrt_beta
        with pytest.raises(DomainError):
            momentum_map_1d(edge, params)
        with pytest.raises(DomainError):
            momentum_map_1d(-1.5 * edge, params)

    def test_odd_in_momentum(self):
        params = params_of(0.01)
        assert momentum_map_1d(-2.0, params) == -momentum_map_1d(2.0, params)

    @given(st.floats(min_value=-15.0, max_value=15.0))
    @settings(max_examples=200)
    def test_stays_above_identity_in_magnitude(self, p):
        params = params_of(0.01)
        assert abs(momentum_map_1d(p, params)) >= abs(p) - 1e-15


class TestMomentumMap3d:
    def test_beta_zero_is_identity(self):
        got = momentum_map_3d(np.array([1.0, 0.0, 0.0]), params_of(0.0))
        np.testing.assert_array_equal(got, [1.0, 0.0, 0.0])

    def test_direct_value(self):
        got = momentum_map_3d(np.array([1.0, 2.0, 2.0]), params_of(0.01))
        factor = 1.0482848367219182
        np.testing.assert_allclose(got, [factor, 2 * factor, 2 * factor], rtol=1e-14)

    def test_boundary_raises(self):
        # |p|^2 = 1 meets the boundary deformation*|p|^2 = 1 exactly.
        with pytest.raises(DomainError):
            momentum_map_3d(np.array([0.6, 0.8, 0.0]), params_of(1.0))
        with pytest.raises(DomainError):
            momentum_map_3d(np.array([0.0, 3.0, 0.0]), params_of(0.25))

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_other_sizes_rejected(self, size):
        with pytest.raises(ValueError, match=f"^p must have 3 components, got {size}$"):
            momentum_map_3d(np.full(size, 0.5), params_of(0.01))


class TestClosedFormBrackets:
    def test_undeformed_point(self):
        assert bracket_xp_1d(0.0, params_of(0.5)) == 1.0
        assert bracket_xp_1d(7.0, params_of(0.0)) == 1.0

    def test_direct_value(self):
        assert bracket_xp_1d(2.0, params_of(0.1)) == pytest.approx(1.4, rel=1e-15)

    def test_3d_values(self):
        zero = np.zeros(3)
        assert bracket_xp_3d(zero, 1, 1, params_of(0.3)) == 1.0
        p = np.array([1.0, 0.0, 0.0])
        assert bracket_xp_3d(p, 1, 2, params_of(1.0)) == 0.0
        assert bracket_xp_3d(p, 1, 1, params_of(1.0)) == pytest.approx(
            2.0 * math.sqrt(2.0), rel=1e-15)

    def test_axes_are_one_based(self):
        p = np.zeros(3)
        with pytest.raises(IndexError):
            bracket_xp_3d(p, 0, 1, params_of(0.1))
        with pytest.raises(IndexError):
            bracket_xp_3d(p, 1, 4, params_of(0.1))


class TestNumericalBracket:
    def test_canonical_pair(self):
        got = numerical_bracket(coordinate_function(),
                                lambda s: float(s.p[0]),
                                PhaseState.of(0.7, -1.2))
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_mapped_pair_reproduces_deformed_bracket(self):
        params = params_of(0.04)
        state = PhaseState.of(0.0, 0.5)
        got = numerical_bracket(coordinate_function(),
                                momentum_function_1d(params), state)
        assert got == pytest.approx(1.0100670464224948, rel=FD_TOL)

    def test_self_bracket_vanishes(self):
        def f(state):
            return float(state.x[0]) ** 2 + float(state.p[0])

        got = numerical_bracket(f, f, PhaseState.of(0.3, 0.4))
        assert got == 0.0

    def test_nonfinite_probe_raises(self):
        params = params_of(0.04)
        edge = (math.pi / 2.0) / params.sqrt_beta

        def mapped(state):
            return momentum_map_1d(float(state.p[0]), params)

        with pytest.raises(DomainError):
            numerical_bracket(coordinate_function(), mapped,
                              PhaseState.of(0.0, edge * (1.0 - 1e-12)))

    @given(st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=100)
    def test_antisymmetry(self, x, p):
        def f(state):
            return float(state.x[0]) * float(state.p[0])

        def g(state):
            return float(state.x[0]) + float(state.p[0]) ** 2

        state = PhaseState.of(x, p)
        assert numerical_bracket(f, g, state) == -numerical_bracket(g, f, state)

    def test_3d_mapped_pair_componentwise(self):
        params = params_of(0.01)
        rng = np.random.default_rng(7)
        p = rng.uniform(-4.0, 4.0, size=3)
        state = PhaseState.of(rng.uniform(-1, 1, size=3), p)
        momenta = [momentum_function_3d(params, axis) for axis in (1, 2, 3)]
        coords = [coordinate_function(axis) for axis in (1, 2, 3)]
        big_p = np.array([momenta[j]((state.x, state.p)) for j in range(3)])
        root = math.sqrt(1.0 + params.beta * _left_to_right_square(big_p))
        for i in range(3):
            for j in range(3):
                target = root * ((i == j) + params.beta * big_p[i] * big_p[j])
                got = numerical_bracket(coords[i], momenta[j], state)
                assert got == pytest.approx(target, abs=FD_TOL * root * 16.0)


class TestJacobiResidual:
    def test_canonical_triple(self):
        def h(state):
            return float(state.x[0]) * float(state.p[0])

        got = jacobi_residual(coordinate_function(),
                              lambda s: float(s.p[0]), h,
                              PhaseState.of(0.4, -0.6))
        assert got < 1e-6

    def test_3d_representation_triple(self):
        params = params_of(0.01)
        state = PhaseState.of([0.2, -0.1, 0.5], [1.0, 2.0, -1.5])
        got = jacobi_residual(coordinate_function(1),
                              momentum_function_3d(params, 1),
                              momentum_function_3d(params, 2),
                              state)
        assert got < 1e-5

    def test_beta_zero_triple(self):
        params = params_of(0.0)
        state = PhaseState.of(1.0, 0.5)

        def h(state):
            return float(state.x[0]) ** 2 * float(state.p[0])

        got = jacobi_residual(coordinate_function(),
                              momentum_function_1d(params), h, state)
        assert got < 1e-5

    def test_probe_off_the_tangent_branch_raises(self):
        params = params_of(0.04)
        edge = (math.pi / 2.0) / params.sqrt_beta
        state = PhaseState.of(0.0, edge * (1.0 - 1e-12))

        def h(state):
            return float(state.x[0]) * float(state.p[0])

        with pytest.raises(DomainError, match="tangent branch"):
            jacobi_residual(coordinate_function(), momentum_function_1d(params), h, state)

    def test_nonfinite_probe_raises(self):
        params = params_of(0.04)
        edge = (math.pi / 2.0) / params.sqrt_beta

        def mapped_or_nan(state):
            p = float(state.p[0])
            return momentum_map_1d(p, params) if abs(p) < edge else math.nan

        with pytest.raises(DomainError, match="non-finite"):
            jacobi_residual(coordinate_function(), mapped_or_nan, coordinate_function(),
                            PhaseState.of(0.0, edge * (1.0 - 1e-12)))

    def test_each_function_is_evaluated_once_per_probe_state(self):
        # 12 outer probe states in 3D, each with its own 12 inner probes.
        params = params_of(0.01)
        calls = []

        def counted(name, fn):
            def wrapper(state):
                calls.append(name)
                return fn(state)
            return wrapper

        jacobi_residual(counted("f", coordinate_function(1)),
                        counted("g", momentum_function_3d(params, 1)),
                        counted("h", momentum_function_3d(params, 2)),
                        PhaseState.of([0.2, -0.1, 0.5], [1.0, 2.0, -1.5]))
        assert {name: calls.count(name) for name in "fgh"} == {"f": 156, "g": 156, "h": 156}


def _seeded_states(seed, count, dim):
    """Seeded states: 1D as in the Jacobi row, 3D at beta |p|^2 in (0.1, 0.9)."""
    rng = np.random.default_rng(seed)
    if dim == 1:
        return [PhaseState.of(rng.uniform(-2.0, 2.0), rng.uniform(-8.0, 8.0))
                for _ in range(count)]
    states = []
    for _ in range(count):
        p = rng.uniform(-1.0, 1.0, size=3)
        p *= math.sqrt(rng.uniform(0.1, 0.9) / 0.01) / math.sqrt(_left_to_right_square(p))
        states.append(PhaseState.of(rng.uniform(-2.0, 2.0, size=3), p))
    return states


def _lists(state):
    return state.x.tolist(), state.p.tolist()


class TestSharedGradients:
    """Pairs contracted from _gradients_at on plain pairs against numerical_bracket, bit for bit."""

    @staticmethod
    def _functions(dim):
        """X, the deformed P, and the antisymmetry and Leibniz polynomials."""
        params = params_of(0.01)

        def x(s):
            return s[0][0]

        def p(s):
            return s[1][0]

        polynomials = [lambda s: x(s) * p(s), lambda s: x(s) + p(s) ** 2,
                       lambda s: x(s) ** 2, lambda s: p(s) ** 2,
                       lambda s: x(s) ** 2 * p(s) ** 2]
        if dim == 1:
            return [coordinate_function(), momentum_function_1d(params)] + polynomials
        return ([coordinate_function(axis) for axis in (1, 2, 3)]
                + [momentum_function_3d(params, axis) for axis in (1, 2, 3)] + polynomials)

    @pytest.mark.parametrize("step", [BRACKET_STEP, NESTED_BRACKET_STEP], ids=["step", "nested"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_contracted_pairs_equal_numerical_bracket(self, dim, step):
        fns = self._functions(dim)
        for state in _seeded_states(31 + dim, 4, dim):
            grads = _gradients_at(fns, *_lists(state), step)
            for f, df in zip(fns, grads):
                for g, dg in zip(fns, grads):
                    assert _contract(df, dg).hex() == numerical_bracket(f, g, state, step).hex()

    @pytest.mark.parametrize("x, p", [(1.7e308, 0.0), (0.0, -1.7e308)])
    def test_probe_past_the_float_range_raises(self, x, p):
        with pytest.raises(ValueError, match="^phase-space components must be finite$"):
            _gradients_at([coordinate_function(), lambda s: s[1][0]], [x], [p], 0.1)

    def test_nonfinite_probe_raises_as_numerical_bracket_does(self):
        params = params_of(0.04)
        edge = (math.pi / 2.0) / params.sqrt_beta
        state = PhaseState.of(0.0, edge * (1.0 - 1e-12))

        def mapped_or_nan(s):
            q = s[1][0]
            return momentum_map_1d(q, params) if abs(q) < edge else math.nan

        for mapped, match in ((momentum_function_1d(params), "tangent branch"),
                              (mapped_or_nan, "non-finite")):
            with pytest.raises(DomainError, match=match) as shared:
                _gradients_at([coordinate_function(), mapped], *_lists(state))
            with pytest.raises(DomainError) as single:
                numerical_bracket(coordinate_function(), mapped, state)
            assert str(shared.value) == str(single.value)


class TestFloatEngine:
    """The float engine on plain pairs against the shells on PhaseStates, bit for bit."""

    @staticmethod
    def _families(dim):
        """Coordinates, deformed momenta and their products."""
        params = params_of(0.01)
        if dim == 1:
            maps = [coordinate_function(), momentum_function_1d(params)]
        else:
            maps = ([coordinate_function(a) for a in (1, 2, 3)]
                    + [momentum_function_3d(params, a) for a in (1, 2, 3)])
        return maps + [_product(f, g) for f, g in zip(maps, maps[1:] + maps[:1])]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_each_map_gives_the_same_bits_on_every_point_form(self, dim):
        for state in _seeded_states(53 + dim, 5, dim):
            x, p = _lists(state)
            for f in self._families(dim):
                want = float(f((x, p))).hex()
                assert float(f(_Point(tuple(x), tuple(p)))).hex() == want
                assert float(f((state.x, state.p))).hex() == want

    @pytest.mark.parametrize("step", [BRACKET_STEP, NESTED_BRACKET_STEP, BRACKET_STEP / 2],
                             ids=["step", "nested", "half"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_gradients_and_brackets_equal_the_shells(self, dim, step):
        fns = self._families(dim)
        for state in _seeded_states(53 + dim, 5, dim):
            x, p = _lists(state)
            grads = _gradients_at(fns, x, p, step)
            for f, df in zip(fns, grads):
                for g, dg in zip(fns, grads):
                    got = _contract(*_gradients_at((f, g), x, p, step))
                    assert got.hex() == _contract(df, dg).hex()
                    assert got.hex() == numerical_bracket(f, g, state, step).hex()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_jacobi_equals_the_shell(self, dim):
        fns = self._families(dim)
        n = len(fns)
        for k, state in enumerate(_seeded_states(53 + dim, 5, dim)):
            for a, b, c in [(0, 1, n - 1), (1, n - 2, 0), (k % n, (k + 2) % n, n - 1)]:
                got = _jacobi(fns[a], fns[b], fns[c], *_lists(state))
                want = jacobi_residual(fns[a], fns[b], fns[c], state)
                assert got.hex() == want.hex()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_the_shells_give_the_same_bits_on_a_point_as_on_a_state(self, dim):
        fns = self._families(dim)
        n = len(fns)
        for k, state in enumerate(_seeded_states(53 + dim, 5, dim)):
            point = _Point(*map(tuple, _lists(state)))
            for a in range(n):
                f, g, h = fns[a], fns[(a + k + 1) % n], fns[(a + 2 * k + 3) % n]
                assert (numerical_bracket(f, g, point).hex()
                        == numerical_bracket(f, g, state).hex())
                assert (jacobi_residual(f, g, h, point).hex()
                        == jacobi_residual(f, g, h, state).hex())


# ------------------------------------------------------- pinned bracket layer

_PIN_PARAMS = params_of(0.01)


def _product(f, g):
    return lambda state: f(state) * g(state)


def _pin_states(dim):
    """Three seeded states: 1D as in the Jacobi check, 3D at beta*|p|^2 = 0.49."""
    rng = np.random.default_rng(11 + dim)
    states = []
    for _ in range(3):
        if dim == 1:
            states.append(PhaseState.of(rng.uniform(-2.0, 2.0), rng.uniform(-8.0, 8.0)))
        else:
            p = rng.uniform(-1.0, 1.0, size=3)
            p *= 0.7 / _PIN_PARAMS.sqrt_beta / math.sqrt(_left_to_right_square(p))
            states.append(PhaseState.of(rng.uniform(-2.0, 2.0, size=3), p))
    return states


def _pin_families():
    """Coordinates, the 1D and 3D momentum maps and their products."""
    x = coordinate_function()
    big_p = momentum_function_1d(_PIN_PARAMS)
    xs = [coordinate_function(axis) for axis in (1, 2, 3)]
    ps = [momentum_function_3d(_PIN_PARAMS, axis) for axis in (1, 2, 3)]
    pairs = {
        "1d X,P": (1, x, big_p),
        "1d P,X": (1, big_p, x),
        "1d XP,P": (1, _product(x, big_p), big_p),
        "1d X,XP": (1, x, _product(x, big_p)),
        "3d X1,P1": (3, xs[0], ps[0]),
        "3d X2,P3": (3, xs[1], ps[2]),
        "3d X1,X3": (3, xs[0], xs[2]),
        "3d P1,P2": (3, ps[0], ps[1]),
        "3d X1P2,X3": (3, _product(xs[0], ps[1]), xs[2]),
        "3d X3P3,P1": (3, _product(xs[2], ps[2]), ps[0]),
    }
    triples = {
        "1d X,P,XP": (1, x, big_p, _product(x, big_p)),
        "1d P,XP,X": (1, big_p, _product(x, big_p), x),
        "3d X1,P2,X3P1": (3, xs[0], ps[1], _product(xs[2], ps[0])),
        "3d X2,P2,X2P3": (3, xs[1], ps[1], _product(xs[1], ps[2])),
        "3d P1,P3,X1P1": (3, ps[0], ps[2], _product(xs[0], ps[0])),
    }
    return pairs, triples


def _nested_jacobi(f, g, h, state):
    """The Jacobi residual as three nested numerical brackets."""

    def gh(s):
        return numerical_bracket(g, h, s)

    def hf(s):
        return numerical_bracket(h, f, s)

    def fg(s):
        return numerical_bracket(f, g, s)

    outer = NESTED_BRACKET_STEP
    return abs(
        numerical_bracket(f, gh, state, outer)
        + numerical_bracket(g, hf, state, outer)
        + numerical_bracket(h, fg, state, outer)
    )


# float.hex of each value per state of _pin_states, recorded from the
# bracket engine that built every probe state per function, with each 3D
# state's |p|^2 summed left to right on floats.
_PINNED_BRACKETS = {
    "1d X,P": ["0x1.c0d709cdbf0e5p+0", "0x1.51485492e35d7p+0", "0x1.362b125a0e1bbp+0"],
    "1d P,X": ["-0x1.c0d709cdbf0e5p+0", "-0x1.51485492e35d7p+0", "-0x1.362b125a0e1bbp+0"],
    "1d XP,P": ["0x1.e6f1fbbc8da75p+3", "-0x1.db214c8f7141fp+2", "-0x1.64b064c0041d6p+2"],
    "1d X,XP": ["-0x1.bf5c1b79ee521p+0", "-0x1.a325b18411a57p+0", "-0x1.747a0b09e2c15p-1"],
    "3d X1,P1": ["0x1.223716e3b0f67p+1", "0x1.18ca84ebb1b84p+1", "0x1.bb5741238507ap+0"],
    "3d X2,P3": ["-0x1.c8f35c125421dp-3", "-0x1.4f6a8cdde64e3p-4", "-0x1.7814e3a9c7ddfp-2"],
    "3d X1,X3": ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
    "3d P1,P2": ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
    "3d X1P2,X3": ["0x1.491cee1cb7773p-2", "0x1.84dcc8f74c057p-6", "0x1.59c17e9fcb9dbp-7"],
    "3d X3P3,P1": ["0x1.47a73b275af76p+1", "0x1.7f3307aba5c6bp-4", "0x1.8868d35c30eafp-1"],
}

_PINNED_JACOBI = {
    "1d X,P,XP": ["0x1.f585fce000000p-23", "0x1.c456ccc000000p-27", "0x1.9f65645000000p-25"],
    "1d P,XP,X": ["0x1.f585fce000000p-23", "0x1.c456cd0000000p-27", "0x1.9f65646000000p-25"],
    "3d X1,P2,X3P1": ["0x1.7e69f38000000p-27", "0x1.d0f7c81c80000p-22", "0x1.707f621d00000p-22"],
    "3d X2,P2,X2P3": ["0x1.12601c0000000p-29", "0x1.7363e06000000p-27", "0x1.fdedf98000000p-24"],
    "3d P1,P3,X1P1": ["0x1.676f4cba00000p-41", "0x1.158467c100000p-42", "0x0.0p+0"],
}


class TestBracketPinned:
    @pytest.mark.parametrize("name", sorted(_PINNED_BRACKETS))
    def test_numerical_bracket(self, name):
        dim, f, g = _pin_families()[0][name]
        got = [float(numerical_bracket(f, g, s)).hex() for s in _pin_states(dim)]
        assert got == _PINNED_BRACKETS[name]

    @pytest.mark.parametrize("name", sorted(_PINNED_JACOBI))
    def test_jacobi_residual(self, name):
        dim, f, g, h = _pin_families()[1][name]
        got = [float(jacobi_residual(f, g, h, s)).hex() for s in _pin_states(dim)]
        assert got == _PINNED_JACOBI[name]

    @pytest.mark.parametrize("name", sorted(_PINNED_JACOBI))
    def test_jacobi_equals_nested_brackets(self, name):
        dim, f, g, h = _pin_families()[1][name]
        for state in _pin_states(dim):
            assert jacobi_residual(f, g, h, state) == _nested_jacobi(f, g, h, state)


# float.hex per state of _pin_states(3): the three momentum_function_3d
# components, then bracket_xp_3d at those components for (i, j) in row order.
_PINNED_MOMENTA_3D = [
    ["0x1.f79a74d85bbf4p+2", "-0x1.a72649eb3d8d1p+1", "0x1.3479b005d3b23p+2"],
    ["0x1.e1bf245220365p+2", "0x1.8d449ba5ecc1ep+2", "-0x1.e25d5ea3f8719p-1"],
    ["0x1.376804c58cc66p+2", "0x1.f47ce918bb1c7p+2", "-0x1.ad4d79337447fp+1"],
]
_PINNED_CLOSED_BRACKETS_3D = [
    ["0x1.223716e38c641p+1", "-0x1.74ffb121452bap-2", "0x1.0fea5f18567d7p-1",
     "-0x1.74ffb121452bap-2", "0x1.8da5df679a8a6p+0", "-0x1.c8f35c126d214p-3",
     "0x1.0fea5f18567d7p-1", "-0x1.c8f35c126d214p-3", "0x1.b9c032353a71fp+0"],
    ["0x1.18ca84eb76302p+1", "0x1.4efc86781ea23p-1", "-0x1.96bdfcc5a40d9p-4",
     "0x1.4efc86781ea23p-1", "0x1.f097ecf5c539cp+0", "-0x1.4f6a8cddbb57cp-4",
     "-0x1.96bdfcc5a40dbp-4", "-0x1.4f6a8cddbb57dp-4", "0x1.69a748973c299p+0"],
    ["0x1.bb5741237c85ap+0", "0x1.10cd0e7677f83p-1", "-0x1.d4000312b697ap-3",
     "0x1.10cd0e7677f83p-1", "0x1.20d8aa59f97bcp+1", "-0x1.7814e3a93dcd8p-2",
     "-0x1.d4000312b697ap-3", "-0x1.7814e3a93dcd8p-2", "0x1.8ecba98c7e476p+0"],
]


@pytest.mark.parametrize("k", range(3))
def test_3d_momenta_and_closed_brackets_are_pinned(k):
    state = _pin_states(3)[k]
    big_p = [momentum_function_3d(_PIN_PARAMS, axis)((state.x, state.p)) for axis in (1, 2, 3)]
    assert [c.hex() for c in big_p] == _PINNED_MOMENTA_3D[k]
    got = [bracket_xp_3d(np.array(big_p), i, j, _PIN_PARAMS)
           for i in (1, 2, 3) for j in (1, 2, 3)]
    assert [c.hex() for c in got] == _PINNED_CLOSED_BRACKETS_3D[k]


@pytest.mark.parametrize("where", ["x", "p"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dim", [1, 3])
def test_phase_state_refuses_a_non_finite_component(where, bad, dim):
    good = [0.5, -1.0, 2.0][:dim]
    broken = good[:-1] + [bad]
    x, p = (broken, good) if where == "x" else (good, broken)
    with pytest.raises(ValueError, match="^phase-space components must be finite$"):
        PhaseState.of(x, p)
