from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rftraffic import simulate
from rftraffic.detect import (
    AttenuationEvent,
    FilteredSeries,
    VehicleObservation,
    associate_vehicles,
    detect_events,
    estimate_length,
    estimate_speed,
    filter_bundle,
    process_bundle,
)
from rftraffic.simulate import (
    BINARY_TEMPLATES,
    BODY_STYLE_TEMPLATES,
    CAR_LIKE,
    TRUCK_LIKE,
    ClassTemplate,
    TraceBundle,
    generate_trace,
    invert_direction,
)
from rftraffic.topology import SystemParams, Topology

#: the default site's sample period and association guard
SAMPLE_MS = SystemParams().sample_period_ms
GUARD_MS = SystemParams().guard_w * SAMPLE_MS


def series(values, period=8.0):
    """A one-row filtered series: its phases belong to link 1."""
    return FilteredSeries(values=np.asarray(values, dtype=float)[None, :],
                          t0_ms=0.0, sample_period_ms=period)


def filtered_rows(stream, idle_dbm, filter_size_n):
    """``filter_bundle`` of a nine-row bundle whose every link carries ``stream``."""
    bundle = TraceBundle(np.tile(np.asarray(stream, dtype=float), (9, 1)),
                         np.full(9, idle_dbm), 8.0)
    out = filter_bundle(bundle, SystemParams(filter_size_n=filter_size_n))
    assert out.values.shape == bundle.rssi_dbm.shape
    return out.values


def make_obs(onsets_ms, duration_ms=500.0):
    events = {
        link: AttenuationEvent(link, t, t + duration_ms, 0.7)
        for link, t in onsets_ms.items()
    }
    return VehicleObservation(vehicle_id=0, events=events)


# ---------------------------------------------------------------------------
# normalization and filtering


def test_constant_idle_normalizes_to_one():
    # each row divides by its own link's idle level
    idle = np.linspace(-80.0, -40.0, 9)
    bundle = TraceBundle(np.repeat(idle[:, None], 50, axis=1), idle, 8.0)
    out = filter_bundle(bundle, SystemParams(filter_size_n=10))
    assert out.values.shape == (9, 50)
    assert np.allclose(out.values, 1.0)


def test_two_point_window_mean():
    idle = -60.0
    rows = filtered_rows([idle, idle, 0.8 * idle], idle, 2)
    assert rows[:, 2] == pytest.approx(np.full(9, (1.0 + 0.8) / 2))


def test_growing_window_start():
    idle = -50.0
    rows = filtered_rows(np.array([0.6, 0.8, 1.0, 1.0]) * idle, idle, 3)
    assert rows[:, 0] == pytest.approx(np.full(9, 0.6))
    assert rows[:, 1] == pytest.approx(np.full(9, 0.7))
    assert rows[:, 2] == pytest.approx(np.full(9, 0.8))


def test_empty_stream():
    assert filtered_rows(np.empty(0), -60.0, 10).shape == (9, 0)


@pytest.mark.parametrize("rssi_rows,idle_at_link_5", [
    (9, 0.0), (9, 3.0), (9, np.nan), (8, -60.0),
], ids=["zero-idle", "positive-idle", "nan-idle", "eight-rows"])
def test_bundle_rejects_what_the_filter_cannot_use(rssi_rows, idle_at_link_5):
    # the filter divides by the idle levels unchecked: the bundle guards them
    idle = np.full(9, -60.0)
    idle[4] = idle_at_link_5
    with pytest.raises(ValueError):
        TraceBundle(np.full((rssi_rows, 5), -60.0), idle, 8.0)


@settings(max_examples=60, deadline=None)
@given(
    template=st.sampled_from(BINARY_TEMPLATES + BODY_STYLE_TEMPLATES),
    spacing_m=st.sampled_from([5.0, 3.5]),
    seed=st.integers(0, 2**63 - 1),
    filter_size_n=st.sampled_from([1, 2, 10, 25]),
)
def test_each_filtered_row_equals_the_growing_mean_of_its_link(template, spacing_m, seed,
                                                                 filter_size_n):
    params = SystemParams(filter_size_n=filter_size_n)
    bundle = generate_trace(template, Topology(longitudinal_spacing_m=spacing_m), params, seed)
    filtered = filter_bundle(bundle, params)
    for stream, idle, row in zip(bundle.rssi_dbm, bundle.idle_level_dbm, filtered.values):
        oracle = simulate._growing_mean(stream / idle, filter_size_n)
        assert row.tobytes() == oracle.tobytes()


def test_filtered_min_matches_template_floor(topo, params):
    # zero-spread template: the drawn floor equals the template value exactly
    tpl = ClassTemplate("car", 40.47, 0.0, 5.22, 0.0, 0.72, 0.0, 0.86, 0.0, CAR_LIKE.noise_std)
    bundle = generate_trace(tpl, topo, params, seed=21)
    _, filtered = process_bundle(bundle, topo, params)
    assert abs(filtered.values[0].min() - 0.72) <= 0.02


# ---------------------------------------------------------------------------
# the detection state machine


def test_idle_series_yields_nothing(params):
    assert detect_events(series(np.ones(300)), params) == []


def test_step_series_hand_trace(params):
    values = [1.0] * 50 + [0.7] * 100 + [1.0] * 100
    events = detect_events(series(values), params)
    assert len(events) == 1
    ev = events[0]
    assert ev.t_start_ms == 45 * 8.0  # undercut at 50, backdated by h = 5
    assert 150 * 8.0 <= ev.t_end_ms <= 160 * 8.0
    assert ev.t_end_ms == 150 * 8.0  # release backdated to the lag-w sample
    assert ev.min_level == pytest.approx(0.7)


def test_two_dips_with_partial_recovery_stay_one_event(params):
    # inter-dip recovery to 0.96 never exceeds the 0.975 release threshold
    values = [1.0] * 50 + [0.7] * 60 + [0.96] * 30 + [0.7] * 60 + [1.0] * 100
    events = detect_events(series(values), params)
    assert len(events) == 1
    assert events[0].t_start_ms == 45 * 8.0
    assert events[0].t_end_ms == 200 * 8.0


def test_full_recovery_splits_events(params):
    values = [1.0] * 50 + [0.7] * 60 + [1.0] * 60 + [0.7] * 60 + [1.0] * 100
    events = detect_events(series(values), params)
    assert len(events) == 2
    assert events[0].t_end_ms < events[1].t_start_ms


def test_short_series_warns(params):
    with pytest.warns(UserWarning):
        assert detect_events(series(np.ones(10)), params) == []


def test_unterminated_phase_is_dropped(params):
    values = [1.0] * 50 + [0.7] * 100  # never recovers
    assert detect_events(series(values), params) == []


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        dtype=float,
        shape=st.integers(min_value=30, max_value=300),
        elements=st.floats(min_value=0.4, max_value=1.1, allow_nan=False),
    )
)
def test_fsm_soundness_on_arbitrary_series(values):
    params = SystemParams()
    events = detect_events(series(values), params)
    for ev in events:
        assert ev.t_end_ms > ev.t_start_ms
        assert ev.min_level < params.theta_start
    for first, second in zip(events, events[1:]):
        assert first.t_end_ms < second.t_start_ms


@settings(max_examples=60, deadline=None)
@given(
    template=st.sampled_from(BINARY_TEMPLATES + BODY_STYLE_TEMPLATES),
    spacing_m=st.sampled_from([5.0, 3.5]),
    seed=st.integers(0, 2**63 - 1),
    inverted=st.booleans(),
)
def test_detection_over_all_rows_equals_each_row_alone(params, template, spacing_m, seed,
                                                       inverted):
    bundle = generate_trace(template, Topology(longitudinal_spacing_m=spacing_m), params, seed)
    if inverted:
        bundle = invert_direction(bundle)
    filtered = filter_bundle(replace(bundle, t0_ms=1234.5), params)
    events = detect_events(filtered, params)
    row_by_row = [replace(ev, link=row + 1)
                  for row, values in enumerate(filtered.values)
                  for ev in detect_events(replace(filtered, values=values[None, :]), params)]
    assert events and events == row_by_row


def test_no_chatter_on_monotone_recovery(params):
    # a slow ramp back to idle may only produce one event
    ramp = np.linspace(0.7, 1.02, 200)
    values = np.concatenate([np.ones(50), np.full(60, 0.7), ramp, np.ones(60)])
    events = detect_events(series(values), params)
    assert len(events) == 1


# ---------------------------------------------------------------------------
# association


def test_overlapping_events_form_one_vehicle():
    events = [AttenuationEvent(link, 100.0 + 10 * link, 600.0 + 10 * link, 0.7)
              for link in range(1, 10)]
    obs = associate_vehicles(events, GUARD_MS)
    assert len(obs) == 1
    assert sorted(obs[0].events) == list(range(1, 10))
    assert obs[0].vehicle_id == 0


def test_separated_clusters_form_two_vehicles():
    first = [AttenuationEvent(link, 0.0, 400.0, 0.7) for link in range(1, 10)]
    second = [AttenuationEvent(link, 3000.0, 3400.0, 0.7) for link in range(1, 10)]
    obs = associate_vehicles(first + second, GUARD_MS)
    assert [o.vehicle_id for o in obs] == [0, 1]
    assert all(len(o.events) == 9 for o in obs)


def test_sequential_vehicles_counted_exactly():
    events = []
    for vehicle in range(100):
        base = vehicle * 5000.0
        events.extend(
            AttenuationEvent(link, base + 50 * link, base + 450 + 50 * link, 0.7)
            for link in range(1, 10)
        )
    obs = associate_vehicles(events, GUARD_MS)
    assert len(obs) == 100


def test_chain_overlap_merges_transitively():
    # adjacent links overlap pairwise even though the first and last do not
    events = [AttenuationEvent(link, 200.0 * link, 200.0 * link + 350.0, 0.7)
              for link in range(1, 10)]
    obs = associate_vehicles(events, GUARD_MS)
    assert len(obs) == 1


# ---------------------------------------------------------------------------
# speed, length, direction


def test_speed_uniform_motion(topo):
    obs = make_obs({1: 0.0, 5: 500.0, 9: 1000.0})
    v, low = estimate_speed(obs, topo, SAMPLE_MS)
    assert v == pytest.approx(10.0)
    assert not low


def test_speed_sign_reversal(topo):
    obs = make_obs({1: 1000.0, 5: 500.0, 9: 0.0})
    v, _ = estimate_speed(obs, topo, SAMPLE_MS)
    assert v == pytest.approx(-10.0)


def test_speed_missing_straight_link(topo):
    obs = make_obs({1: 0.0, 5: 500.0})
    assert estimate_speed(obs, topo, SAMPLE_MS) == (None, False)


def test_speed_simultaneous_onsets_undefined(topo):
    obs = make_obs({1: 0.0, 5: 0.0, 9: 500.0})
    assert estimate_speed(obs, topo, SAMPLE_MS)[0] is None


def test_speed_mixed_ordering_majority_sign(topo):
    # link 5 reported before link 1; the two forward terms out-vote it
    obs = make_obs({1: 100.0, 5: 50.0, 9: 1100.0})
    v, low = estimate_speed(obs, topo, SAMPLE_MS)
    assert low
    assert v is not None and v > 0


def test_length_arithmetic():
    obs = make_obs({1: 0.0, 5: 500.0, 9: 1000.0}, duration_ms=500.0)
    assert estimate_length(obs, 10.0) == pytest.approx(5.0)
    assert estimate_length(obs, None) is None


def test_length_from_tabulated_car_values():
    v = 40.47 / 3.6
    obs = make_obs({1: 0.0, 5: 445.0, 9: 890.0}, duration_ms=460.0)
    est = estimate_length(obs, v)
    assert est == pytest.approx(5.171, abs=0.01)
    assert abs(est - 5.22) < 1.08  # within the class spread


def test_noise_free_truck_length_within_two_percent(topo, params):
    tpl = ClassTemplate("truck", 31.42, 0.0, 16.53, 0.0, 0.62, 0.0, 0.77, 0.0, 0.0)
    bundle = generate_trace(tpl, topo, params, seed=30)
    obs, _ = process_bundle(bundle, topo, params)
    assert obs[0].l_m == pytest.approx(16.53, rel=0.02)


@pytest.mark.parametrize("v, direction", [(None, None), (-12.5, "wrong_way"), (8.0, "forward")])
def test_direction_is_derived_from_the_speed_sign(v, direction):
    assert VehicleObservation(0, {}, v_mps=v).direction == direction


def test_direction_antisymmetry_noise_free(topo, params):
    tpl = ClassTemplate("t", 40.0, 0.0, 6.0, 0.0, 0.7, 0.0, 0.85, 0.0, 0.0)
    bundle = generate_trace(tpl, topo, params, seed=3)
    fwd, _ = process_bundle(bundle, topo, params)
    rev, _ = process_bundle(invert_direction(bundle), topo, params)
    assert rev[0].v_mps == -fwd[0].v_mps
    assert fwd[0].direction == "forward"
    assert rev[0].direction == "wrong_way"


@settings(max_examples=60, deadline=None)
@given(
    template=st.sampled_from(BODY_STYLE_TEMPLATES),
    seed=st.integers(0, 2**32 - 1),
    shift_ms=st.floats(-1e6, 1e6),
)
def test_detection_invariant_to_time_origin_shift(topo, params, template, seed, shift_ms):
    bundle = generate_trace(template, topo, params, seed)
    base, _ = process_bundle(bundle, topo, params)
    moved, _ = process_bundle(replace(bundle, t0_ms=bundle.t0_ms + shift_ms), topo, params)
    assert base and len(moved) == len(base)
    for a, b in zip(base, moved):
        assert (b.vehicle_id, b.direction, b.low_confidence) == (a.vehicle_id, a.direction,
                                                                 a.low_confidence)
        assert sorted(b.events) == sorted(a.events)
        for link, ev in a.events.items():
            assert b.events[link].min_level == ev.min_level
            assert b.events[link].t_start_ms == pytest.approx(ev.t_start_ms + shift_ms, abs=1e-6)
            assert b.events[link].t_end_ms == pytest.approx(ev.t_end_ms + shift_ms, abs=1e-6)
        for got, want in ((b.v_mps, a.v_mps), (b.l_m, a.l_m)):
            assert (got is None) == (want is None)
            if want is not None:
                assert got == pytest.approx(want, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(BODY_STYLE_TEMPLATES), st.integers(0, 2**32 - 1),
                          st.booleans()), min_size=1, max_size=3))
def test_detected_events_are_disjoint_and_time_ordered(topo, params, vehicles):
    traces = [generate_trace(template, topo, params, seed) for template, seed, _ in vehicles]
    traces = [invert_direction(t) if flip else t for t, (_, _, flip) in zip(traces, vehicles)]
    bundle = TraceBundle(np.hstack([t.rssi_dbm for t in traces]), traces[0].idle_level_dbm,
                         params.sample_period_ms)
    observations, _ = process_bundle(bundle, topo, params)
    assert [obs.vehicle_id for obs in observations] == list(range(len(observations)))
    onsets = [min(ev.t_start_ms for ev in obs.events.values()) for obs in observations]
    assert onsets == sorted(onsets)
    for link in range(1, 10):
        events = [obs.events[link] for obs in observations if link in obs.events]
        assert all(ev.t_end_ms > ev.t_start_ms for ev in events)
        for earlier, later in zip(events, events[1:]):
            assert earlier.t_end_ms < later.t_start_ms


def test_speed_covariance_doubling(topo, params):
    # doubling the speed at fixed length halves durations, leaving the
    # length estimate unchanged up to sampling quantization
    slow = ClassTemplate("s", 25.0, 0.0, 8.0, 0.0, 0.7, 0.0, 0.85, 0.0, 0.0)
    fast = ClassTemplate("f", 50.0, 0.0, 8.0, 0.0, 0.7, 0.0, 0.85, 0.0, 0.0)
    obs_s, _ = process_bundle(generate_trace(slow, topo, params, seed=2), topo, params)
    obs_f, _ = process_bundle(generate_trace(fast, topo, params, seed=2), topo, params)
    tau_s = obs_s[0].events[1].duration_ms
    tau_f = obs_f[0].events[1].duration_ms
    assert abs(tau_s - 2 * tau_f) <= 2 * params.sample_period_ms
    quantum_m = obs_f[0].v_mps * params.sample_period_ms / 1000.0
    assert abs(obs_s[0].l_m - obs_f[0].l_m) <= 2 * quantum_m


def test_noisy_car_speed_estimate_population(topo, params):
    tpl = ClassTemplate("car", 40.0, 0.0, 5.2, 0.0, 0.72, 0.0, 0.86, 0.0, 0.012)
    children = np.random.SeedSequence(99).spawn(200)
    estimates = []
    for child in children:
        obs, _ = process_bundle(generate_trace(tpl, topo, params, child), topo, params)
        estimates.append(obs[0].v_mps)
    mean = np.mean(estimates)
    assert abs(mean - 40.0 / 3.6) / (40.0 / 3.6) < 0.02
