"""Deformed Galilean boosts, composition laws, Lorentz counterpart."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gupmech.algebra import DeformationParameters, DomainError, PhaseState
from gupmech import frames
from gupmech.checks import run_suite
from gupmech.dynamics import Hamiltonian, Potential
from gupmech.frames import (
    GALILEAN_EXACT,
    GALILEAN_FIRST_ORDER,
    GALILEAN_ORDINARY,
    GalileanBoost,
    LorentzBoost,
    covariance_residual,
    euclidean_interval,
    galilean_apply,
    galilean_compose,
    galilean_inverse,
    interval_residual,
    lorentz_apply,
    minkowski_interval,
    velocity_compose,
)

ROOT_HALF = math.sqrt(0.5)


BOOST = GalileanBoost(velocity=0.5, scale=1.0)


class TestEvent:
    def test_scalar_position_becomes_1d(self):
        # One event is the row (t, x1); a batch stacks rows.
        assert galilean_apply(BOOST, [0.5, 2.0]).shape == (2,)
        assert galilean_apply(BOOST, [[0.5, 2.0], [1.0, 3.0]]).shape == (2, 2)

    def test_two_component_position_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            galilean_apply(BOOST, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="shape"):
            lorentz_apply(LorentzBoost(velocity=0.5, light_speed=1.0), [[0.0, 1.0, 2.0]])
        with pytest.raises(ValueError, match="shape"):
            galilean_apply(BOOST, 1.0)

    def test_nonfinite_coordinates_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            galilean_apply(BOOST, [math.nan, 0.0])
        with pytest.raises(ValueError, match="finite"):
            galilean_apply(BOOST, [[0.0, 0.0, 0.0, 0.0], [0.0, math.inf, 0.0, 0.0]])

    def test_apply_leaves_its_input_unchanged(self):
        events = np.array([[0.0, 1.0, 2.0, 3.0], [0.5, -1.0, 0.0, 1.0]])
        kept = events.copy()
        galilean_apply(BOOST, events)
        lorentz_apply(LorentzBoost(velocity=0.5, light_speed=1.0), events)
        np.testing.assert_array_equal(events, kept)

    @pytest.mark.parametrize("law", ["exact", "first-order", "ordinary", "lorentz"])
    def test_batch_matches_row_by_row(self, law):
        rng = np.random.default_rng(5)
        events = rng.uniform(-10.0, 10.0, size=(30, 4))
        boost = (LorentzBoost(velocity=0.6, light_speed=1.0) if law == "lorentz"
                 else GalileanBoost(velocity=0.4, scale=1.0, law=law))
        apply = lorentz_apply if law == "lorentz" else galilean_apply
        rows = np.array([apply(boost, row) for row in events])
        np.testing.assert_array_equal(apply(boost, events), rows)


class TestBoostConstruction:
    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError):
            GalileanBoost(velocity=1.0, scale=1.0, law="euler")

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            GalileanBoost(velocity=1.0, scale=0.0)

    def test_lorentz_superluminal_rejected(self):
        with pytest.raises(DomainError):
            LorentzBoost(velocity=1.0, light_speed=1.0)
        with pytest.raises(DomainError):
            LorentzBoost(velocity=-2.0, light_speed=1.0)


class TestGalileanApply:
    @pytest.mark.parametrize("law", ["exact", "first-order", "ordinary"])
    def test_zero_velocity_is_identity(self, law):
        boost = GalileanBoost(velocity=0.0, scale=2.0, law=law)
        e = np.array([0.7, -1.3])
        out = galilean_apply(boost, e)
        assert out[0] == e[0] and out[1] == e[1]

    def test_quarter_turn_example(self):
        boost = GalileanBoost(velocity=1.0, scale=1.0)
        out = galilean_apply(boost, [0.0, 1.0])
        assert out[1] == pytest.approx(ROOT_HALF, rel=1e-15)
        assert out[0] == pytest.approx(-ROOT_HALF, rel=1e-15)

    def test_matches_a_rotation_in_the_scaled_plane(self):
        # tan(phi) = V/u; (ut, x) rotates rigidly.
        V, u = 0.8, 2.0
        phi = math.atan2(V, u)
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        e = np.array([1.1, -0.4])
        out = galilean_apply(GalileanBoost(velocity=V, scale=u), e)
        ut_x = rot @ np.array([u * e[0], e[1]])
        assert out[0] == pytest.approx(ut_x[0] / u, rel=1e-14)
        assert out[1] == pytest.approx(ut_x[1], rel=1e-14)

    def test_large_scale_recovers_the_ordinary_law(self):
        e = [1.0, 1.0]
        exact = galilean_apply(GalileanBoost(velocity=1.0, scale=1e6), e)
        plain = galilean_apply(
            GalileanBoost(velocity=1.0, scale=1e6, law=GALILEAN_ORDINARY), e)
        assert np.max(np.abs(exact - plain)) < 2e-12

    def test_3d_boost_leaves_transverse_components_alone(self):
        boost = GalileanBoost(velocity=0.5, scale=1.0)
        out = galilean_apply(boost, [0.0, 1.0, 2.0, 3.0])
        assert out[2] == 2.0 and out[3] == 3.0
        assert out[1] != 1.0

    def test_first_order_tracks_exact_to_fourth_order(self):
        u = 1.0
        e = [0.7, 1.3]

        def gap(V):
            a = galilean_apply(GalileanBoost(velocity=V, scale=u), e)
            b = galilean_apply(
                GalileanBoost(velocity=V, scale=u, law=GALILEAN_FIRST_ORDER), e)
            return abs(a[1] - b[1])

        assert gap(0.1) < 1e-4
        assert 12.0 < gap(0.4) / gap(0.2) < 20.0

    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=100)
    def test_interval_is_invariant_under_the_exact_law(self, V, t, x):
        u = 1.5
        boost = GalileanBoost(velocity=V, scale=u)
        e1, e2 = [0.25, -0.5], [t + 0.5, x]
        before = euclidean_interval(e1, e2, u)
        after = euclidean_interval(galilean_apply(boost, e1),
                                   galilean_apply(boost, e2), u)
        assert after == pytest.approx(before, abs=1e-12 * max(1.0, before))


class TestGalileanInverse:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(3)
        boost = GalileanBoost(velocity=2.5, scale=1.0)
        inverse = galilean_inverse(boost)
        for _ in range(100):
            e = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5)])
            back = galilean_apply(inverse, galilean_apply(boost, e))
            assert abs(back[0] - e[0]) < 1e-13
            assert abs(back[1] - e[1]) < 1e-13

    def test_first_order_round_trip_defect_is_fourth_order(self):
        e = np.array([0.7, 1.3])

        def defect(V):
            boost = GalileanBoost(velocity=V, scale=1.0,
                                  law=GALILEAN_FIRST_ORDER)
            back = galilean_apply(galilean_inverse(boost),
                                  galilean_apply(boost, e))
            return np.max(np.abs(back - e))

        assert 12.0 < defect(0.4) / defect(0.2) < 20.0

    def test_preserves_law_and_scale(self):
        boost = GalileanBoost(velocity=1.0, scale=3.0, law=GALILEAN_ORDINARY)
        inverse = galilean_inverse(boost)
        assert inverse.velocity == -1.0
        assert inverse.scale == 3.0
        assert inverse.law == GALILEAN_ORDINARY


class TestCompose:
    def test_identity_element(self):
        b1 = GalileanBoost(velocity=0.7, scale=1.0)
        b0 = GalileanBoost(velocity=0.0, scale=1.0)
        assert galilean_compose(b1, b0).velocity == 0.7

    def test_tangent_addition_value(self):
        b = GalileanBoost(velocity=0.5, scale=1.0)
        got = galilean_compose(b, b).velocity
        assert got == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_matches_multiplied_rotation_matrices(self):
        u = 2.0
        v1, v2 = 0.9, -0.4

        def rot(V):
            phi = math.atan2(V, u)
            return np.array([[math.cos(phi), -math.sin(phi)],
                             [math.sin(phi), math.cos(phi)]])

        combined = rot(v1) @ rot(v2)
        expect = u * combined[1, 0] / combined[0, 0]
        got = galilean_compose(GalileanBoost(velocity=v1, scale=u),
                               GalileanBoost(velocity=v2, scale=u)).velocity
        assert got == pytest.approx(expect, rel=1e-14)

    def test_singular_pair_rejected(self):
        b = GalileanBoost(velocity=1.0, scale=1.0)
        with pytest.raises(DomainError):
            galilean_compose(b, b)

    def test_scale_mismatch_rejected(self):
        with pytest.raises(ValueError):
            galilean_compose(GalileanBoost(velocity=1.0, scale=1.0),
                             GalileanBoost(velocity=1.0, scale=2.0))

    def test_non_exact_laws_rejected(self):
        plain = GalileanBoost(velocity=1.0, scale=1.0, law=GALILEAN_ORDINARY)
        with pytest.raises(ValueError):
            galilean_compose(plain, plain)

    def test_no_speed_limit(self):
        # Repeated composition runs straight past the scale velocity.
        u = 1.0
        boost = GalileanBoost(velocity=0.9, scale=u)
        combined = galilean_compose(boost, boost)
        assert abs(combined.velocity) > u


class TestVelocityCompose:
    def test_rest_picks_up_the_boost_velocity(self):
        boost = GalileanBoost(velocity=0.4, scale=1.0)
        assert velocity_compose(0.0, boost) == 0.4

    def test_tangent_addition_value(self):
        boost = GalileanBoost(velocity=0.5, scale=1.0)
        assert velocity_compose(0.5, boost) == pytest.approx(4.0 / 3.0,
                                                             rel=1e-15)

    def test_large_scale_limit_is_additive(self):
        # Relative correction v V / u^2 = 1e-12 leaves a ~2e-12 absolute gap.
        boost = GalileanBoost(velocity=1.0, scale=1e6)
        assert abs(velocity_compose(1.0, boost) - 2.0) < 3e-12

    def test_singular_pair_rejected(self):
        boost = GalileanBoost(velocity=2.0, scale=1.0)
        with pytest.raises(DomainError):
            velocity_compose(0.5, boost)


class TestLorentz:
    def test_zero_velocity_is_identity(self):
        boost = LorentzBoost(velocity=0.0, light_speed=1.0)
        out = lorentz_apply(boost, [0.3, -0.9])
        assert out[0] == 0.3 and out[1] == -0.9

    def test_textbook_values(self):
        boost = LorentzBoost(velocity=0.6, light_speed=1.0)
        out = lorentz_apply(boost, [0.0, 1.0])
        assert out[1] == pytest.approx(1.25, rel=1e-15)
        assert out[0] == pytest.approx(0.75, rel=1e-15)

    def test_minkowski_interval_preserved(self):
        rng = np.random.default_rng(11)
        c = 2.0
        for _ in range(50):
            boost = LorentzBoost(velocity=rng.uniform(-0.9, 0.9) * c,
                                 light_speed=c)
            e1 = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            e2 = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            before = minkowski_interval(e1, e2, c)
            after = minkowski_interval(lorentz_apply(boost, e1),
                                       lorentz_apply(boost, e2), c)
            assert after == pytest.approx(before, abs=1e-12 * max(1.0, abs(before)))

    def test_interval_inputs_validated(self):
        e = [0.0, 0.0]
        with pytest.raises(ValueError):
            minkowski_interval(e, e, 0.0)
        with pytest.raises(ValueError):
            minkowski_interval(e, [0.0, 0.0, 0.0, 0.0], 1.0)


class TestFloatRange:
    @pytest.mark.parametrize("boost", [
        GalileanBoost(velocity=1e200, scale=1.0, law=GALILEAN_ORDINARY),
        GalileanBoost(velocity=10.0, scale=1.0, law=GALILEAN_FIRST_ORDER),
        GalileanBoost(velocity=1e10, scale=1.0),
        LorentzBoost(velocity=0.9, light_speed=1.0)])
    def test_non_finite_boosted_row_is_named(self, boost):
        events = np.array([[0.0, 1.0], [1.0, 2.0], [1.7e308, 1.7e308], [3.0, 4.0]])
        apply = lorentz_apply if isinstance(boost, LorentzBoost) else galilean_apply
        with pytest.raises(FloatingPointError,
                           match=r"^boosted event on CSV row 4 is not finite$"):
            apply(boost, events)


class TestCovariance:
    def _exact_kind(self):
        return Hamiltonian.exact_1d(DeformationParameters(beta=0.01, mass=1.0))

    def test_zero_boost_floor(self):
        u = math.sqrt(37.5)
        got = covariance_residual(self._exact_kind(),
                                  GalileanBoost(velocity=0.0, scale=u),
                                  PhaseState.of(0.0, 1.0), 1.0, 0.01)
        assert got < 1e-12

    def test_exact_law_keeps_free_motion_straight(self):
        u = math.sqrt(37.5)
        got = covariance_residual(self._exact_kind(),
                                  GalileanBoost(velocity=0.3, scale=u),
                                  PhaseState.of(0.0, 1.0), 1.0, 0.01)
        assert got < 1e-10

    def test_ordinary_law_fails_and_worsens_with_velocity(self):
        u = math.sqrt(37.5)

        def control(v):
            boost = GalileanBoost(velocity=v, scale=u, law=GALILEAN_ORDINARY)
            return covariance_residual(self._exact_kind(), boost,
                                       PhaseState.of(0.0, 1.0), 1.0, 0.01)

        slow, fast = control(0.15 * u), control(0.3 * u)
        assert fast > 1e-4
        assert fast > 2.0 * slow

    def test_requires_free_motion(self):
        kind = Hamiltonian.exact_1d(DeformationParameters(beta=0.01, mass=1.0),
                                    Potential.harmonic(1.0))
        with pytest.raises(ValueError):
            covariance_residual(kind, GalileanBoost(velocity=0.1, scale=6.0),
                                PhaseState.of(0.0, 1.0), 1.0, 0.01)


def _pairwise_residual(scale, sign, before, after):
    """Reference: the change of scale^2 dt^2 + sign |dx|^2 over scale^2 dt^2 + |dx|^2,
    for every pair, one pair at a time."""
    def parts(e1, e2):
        dt = e2[0] - e1[0]
        dx = e2[1:] - e1[1:]
        return scale ** 2 * dt * dt, float(dx @ dx)

    worst = 0.0
    for i in range(len(before)):
        for j in range(i + 1, len(before)):
            time_part, dx2 = parts(before[i], before[j])
            mapped_time, mapped_dx2 = parts(after[i], after[j])
            change = abs((mapped_time + sign * mapped_dx2) - (time_part + sign * dx2))
            worst = max(worst, change / max(time_part + dx2, 1e-30))
    return worst


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("boost", [GalileanBoost(0.6 * 1.3, 1.3), LorentzBoost(0.6 * 1.4, 1.4)])
def test_squared_separation_sums_as_the_stacked_matmul(dim, boost):
    # np.vecdot must keep every bit of the (1, d) @ (d, 1) form the residual pins came from
    rng = np.random.default_rng(17 + dim)
    before = rng.uniform(-2.0, 2.0, (300, 1 + dim)) * 10.0 ** rng.uniform(-5.0, 5.0, (300, 1))
    apply = lorentz_apply if isinstance(boost, LorentzBoost) else galilean_apply
    for events in (before, apply(boost, before)):
        e1, e2 = events[:60, None], events[None, 1:]
        dx = (e2 - e1)[..., 1:]
        stacked = (dx[..., None, :] @ dx[..., :, None])[..., 0, 0]
        assert frames._interval_parts(e1, e2, 1.0)[1].tobytes() == stacked.tobytes()
        # the residual's component-first (1+d, rows, m) differences sum the same bits
        columns = events.T.copy()
        d = columns[:, None, 1:] - columns[:, :60, None]
        assert np.vecdot(d[1:], d[1:], axis=0).tobytes() == stacked.tobytes()
        parts = frames._interval_parts(columns[:, :60, None], columns[:, None, 1:], 1.0, axis=0)
        assert parts[1].tobytes() == stacked.tobytes()
        assert parts[0].tobytes() == frames._interval_parts(e1, e2, 1.0)[0].tobytes()


class TestIntervalResidual:
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("law", ["exact", "lorentz"])
    def test_matches_the_pairwise_loop(self, dim, law):
        rng = np.random.default_rng(17 + dim)
        before = rng.uniform(-10.0, 10.0, size=(60, 1 + dim))
        if law == "lorentz":
            boost = LorentzBoost(velocity=0.7, light_speed=1.3)
            after = lorentz_apply(boost, before)
            reference = _pairwise_residual(1.3, -1.0, before, after)
        else:
            boost = GalileanBoost(velocity=2.5, scale=1.3, law=GALILEAN_EXACT)
            after = galilean_apply(boost, before)
            reference = _pairwise_residual(1.3, 1.0, before, after)
        got = interval_residual(boost, before, after)
        assert got == reference
        assert 0.0 < got < 1e-9

    @pytest.mark.parametrize("count", [2, 3, 40])
    @pytest.mark.parametrize("boost,sign", [
        (GalileanBoost(velocity=0.4, scale=1.3), 1.0),
        (LorentzBoost(velocity=0.4, light_speed=1.3), -1.0)])
    def test_matches_the_pairwise_loop_on_any_pair_of_arrays(self, count, boost, sign):
        # The residual compares two arrays whatever produced them; a repeated
        # row makes one original interval zero, so the 1e-30 floor is in play.
        rng = np.random.default_rng(count)
        before = rng.uniform(-1.0, 1.0, size=(count, 4))
        before[-1] = before[0]
        after = before + rng.uniform(-1e-3, 1e-3, size=before.shape)
        assert (interval_residual(boost, before, after)
                == _pairwise_residual(1.3, sign, before, after))

    @pytest.mark.parametrize("budget,count", [
        (None, 2), (None, 64), (None, 65), (None, 130),
        (100, 10), (100, 11), (16, 17), (16, 40)],
        ids=["n2", "n64-one-block", "n65-two-blocks", "n130-part-block", "rows10-n10",
             "rows9-n11", "n-over-budget-17", "n-over-budget-40"])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("law", ["exact", "lorentz"])
    def test_matches_the_pairwise_loop_across_block_edges(self, monkeypatch, budget, count,
                                                          dim, law):
        # With the default budget of 4,096 pairs, 64 events fill one block of
        # 64 rows (63 compared), 65 events need blocks of 63 and 1 rows, and
        # 130 events blocks of 31 rows from rows 0 to 93, then a part block.
        # Smaller budgets put block edges, and n > budget (one row per
        # block), within reach of the pair-by-pair reference.
        if budget is not None:
            monkeypatch.setattr(frames, "_PAIR_BLOCK", budget)
        rng = np.random.default_rng([count, dim])
        before = rng.uniform(-10.0, 10.0, size=(count, 1 + dim))
        if law == "lorentz":
            boost, sign = LorentzBoost(velocity=0.7, light_speed=1.3), -1.0
            after = lorentz_apply(boost, before)
        else:
            boost, sign = GalileanBoost(velocity=2.5, scale=1.3), 1.0
            after = galilean_apply(boost, before)
        assert (interval_residual(boost, before, after)
                == _pairwise_residual(1.3, sign, before, after))

    @pytest.mark.parametrize("budget", [1, 6, 7, 8, 13, 20, 4096])
    def test_every_pair_is_compared(self, monkeypatch, budget):
        # Events sit 10 apart in time, except that event c is moved to 1e-3
        # after event r and then shifted by 1e-3 in space: only the pair
        # (r, c) changes by about its whole interval, every other pair by
        # under 1e-8 of its own.
        monkeypatch.setattr(frames, "_PAIR_BLOCK", budget)
        boost = GalileanBoost(velocity=0.4, scale=1.0)
        for r in range(7):
            for c in range(r + 1, 7):
                before = np.column_stack((10.0 * np.arange(7.0), np.zeros(7)))
                before[c] = before[r] + (1e-3, 0.0)
                after = before.copy()
                after[c, 1] += 1e-3
                assert interval_residual(boost, before, after) > 0.5, (r, c)

    def test_memory_stays_linear_in_the_event_count(self):
        # 3,000 3D events hold 96 kB; one float per pair would take 36 MB.
        rng = np.random.default_rng(5)
        before = rng.uniform(-1.0, 1.0, size=(3000, 4))
        boost = GalileanBoost(velocity=0.4, scale=1.3)
        after = galilean_apply(boost, before)
        tracemalloc.start()
        try:
            interval_residual(boost, before, after)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("budget", [1, 4096])
    def test_non_finite_interval_names_the_first_pair(self, monkeypatch, budget):
        # Only events 70 and 85 are far enough apart for u^2 dt^2 to overflow;
        # with 100 events the default budget puts row 70 in the block from 40.
        monkeypatch.setattr(frames, "_PAIR_BLOCK", budget)
        events = np.zeros((100, 2))
        events[70, 0], events[85, 0] = 1e154, -1e154
        with pytest.raises(FloatingPointError,
                           match=r"^interval between CSV rows 72 and 87 is not finite$"):
            interval_residual(GalileanBoost(velocity=0.4, scale=1.0), events, events)

    def test_lorentz_residual_stays_at_round_off_over_many_events(self):
        # Dividing by |c^2 dt^2 - |dx|^2| let near-null pairs inflate this
        # residual as the event count grew.
        rng = np.random.default_rng(3)
        before = rng.uniform(-1.0, 1.0, size=(1000, 4))
        boost = LorentzBoost(velocity=0.6, light_speed=1.0)
        assert interval_residual(boost, before, lorentz_apply(boost, before)) < 1e-13

    @pytest.mark.parametrize("law", [GALILEAN_FIRST_ORDER, GALILEAN_ORDINARY])
    def test_laws_without_an_invariant_give_none(self, law):
        boost = GalileanBoost(velocity=0.4, scale=1.0, law=law)
        events = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert interval_residual(boost, events, galilean_apply(boost, events)) is None

    def test_single_event_has_no_pairs(self):
        event = np.array([[0.5, 1.0, 2.0, 3.0]])
        assert interval_residual(BOOST, event, galilean_apply(BOOST, event)) == 0.0

    def test_empty_batch_has_no_pairs(self):
        assert interval_residual(BOOST, np.zeros((0, 4)), np.zeros((0, 4))) == 0.0

    @pytest.mark.parametrize("after", [
        np.zeros((3, 4)),
        np.zeros((2, 2)),
        np.array([[0.0, 1.0, 2.0, 3.0], [1.0, math.inf, 0.0, 0.0]]),
        np.zeros((2, 3)),
        np.zeros(4),
    ])
    def test_mismatched_or_malformed_batches_rejected(self, after):
        before = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            interval_residual(BOOST, before, after)

    def test_intervals_broadcast_over_rows(self):
        rows = np.array([[1.0, 1.0, 0.0, 0.0], [2.0, 0.0, 2.0, 0.0]])
        origin = np.zeros(4)
        np.testing.assert_array_equal(euclidean_interval(origin, rows, 2.0), [5.0, 20.0])
        np.testing.assert_array_equal(minkowski_interval(origin, rows, 2.0), [3.0, 12.0])


@pytest.mark.parametrize("seed", range(10))
def test_frames_suite_passes_across_seeds(seed):
    failed = [r.name for r in run_suite("frames", seed=seed) if not r.passed]
    assert failed == []
