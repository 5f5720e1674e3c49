import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rftraffic import simulate
from rftraffic.detect import process_bundle
from rftraffic.simulate import (
    BINARY_TEMPLATES,
    CAR_LIKE,
    TRUCK_LIKE,
    ClassTemplate,
    GroundTruth,
    TraceBundle,
    TraceFormatError,
    generate_dataset,
    generate_trace,
    invert_direction,
    proportional_counts,
    read_labels_csv,
    read_trace_csv,
    write_labels_csv,
    write_trace_csv,
)


def noise_free(label="t", v_kmh=36.0, l_m=5.0, n_lobes=1):
    return ClassTemplate(label, v_kmh, 0.0, l_m, 0.0, 0.70, 0.0, 0.85, 0.0, 0.0,
                         n_lobes=n_lobes)


def test_template_invariants():
    with pytest.raises(ValueError):
        ClassTemplate("bad", 40, 5, 5, 1, 0.9, 0.0, 0.8, 0.0)  # min above mean level
    with pytest.raises(ValueError):
        ClassTemplate("bad", -4, 5, 5, 1, 0.7, 0.0, 0.8, 0.0)
    with pytest.raises(ValueError):
        ClassTemplate("bad", 40, 5, 5, 1, 0.7, 0.0, 0.8, 0.0, n_lobes=3)


def test_generation_is_deterministic(topo, params):
    a = generate_trace(CAR_LIKE, topo, params, seed=5)
    b = generate_trace(CAR_LIKE, topo, params, seed=5)
    assert np.array_equal(a.rssi_dbm, b.rssi_dbm)
    assert a.truth == b.truth
    c = generate_trace(CAR_LIKE, topo, params, seed=6)
    assert not np.array_equal(a.rssi_dbm, c.rssi_dbm)


def test_fixed_template_duration_exact(topo, params):
    # duration = length / speed: 5 m at 36 km/h (10 m/s) is 0.5 s
    bundle = generate_trace(noise_free(), topo, params, seed=1)
    obs, _ = process_bundle(bundle, topo, params)
    assert len(obs) == 1
    tau_ms = obs[0].events[1].duration_ms
    assert abs(tau_ms - 500.0) <= params.sample_period_ms


def test_car_truck_single_trace_durations(topo, params):
    car, _ = process_bundle(generate_trace(CAR_LIKE, topo, params, seed=1), topo, params)
    truck, _ = process_bundle(generate_trace(TRUCK_LIKE, topo, params, seed=1), topo, params)
    assert abs(car[0].events[1].duration_ms / 1000.0 - 0.46) < 0.33  # within 3 sigma
    assert abs(truck[0].events[1].duration_ms / 1000.0 - 1.9) < 1.5


def test_statistical_fidelity_car_duration_and_min(topo, params):
    # population targets: duration 0.46 s and filtered minimum 0.72 on link 1
    n = 1000
    durations = np.empty(n)
    minima = np.empty(n)
    children = np.random.SeedSequence(424242).spawn(n)
    for i in range(n):
        bundle = generate_trace(CAR_LIKE, topo, params, children[i])
        obs, filtered = process_bundle(bundle, topo, params)
        assert len(obs) == 1
        durations[i] = obs[0].events[1].duration_ms / 1000.0
        minima[i] = obs[0].events[1].min_level
    se_tau = durations.std() / np.sqrt(n)
    se_min = minima.std() / np.sqrt(n)
    assert abs(durations.mean() - 0.46) <= 3 * se_tau
    assert abs(minima.mean() - 0.72) <= 3 * se_min


def test_onset_differences_encode_speed(topo, params):
    bundle = generate_trace(noise_free(v_kmh=45.0), topo, params, seed=9)
    obs, _ = process_bundle(bundle, topo, params)
    starts = {link: obs[0].events[link].t_start_ms for link in (1, 5, 9)}
    v = bundle.truth.speed_mps
    expected_ms = 5.0 / v * 1000.0
    assert abs((starts[5] - starts[1]) - expected_ms) <= params.sample_period_ms
    assert abs((starts[9] - starts[5]) - expected_ms) <= params.sample_period_ms


def test_dataset_counts_and_determinism(topo, params):
    ds = generate_dataset(BINARY_TEMPLATES, [3, 2], seed=7)
    assert len(ds) == 5
    labels = sorted(label for _, label in ds)
    assert labels == ["car-like"] * 3 + ["truck-like"] * 2

    again = generate_dataset(BINARY_TEMPLATES, [3, 2], seed=7)
    for (a, la), (b, lb) in zip(ds, again):
        assert la == lb
        assert np.array_equal(a.rssi_dbm, b.rssi_dbm)


def test_dataset_rejects_bad_input():
    with pytest.raises(ValueError):
        generate_dataset([], [1], seed=1)
    with pytest.raises(ValueError):
        generate_dataset(BINARY_TEMPLATES, [0, 5], seed=1)


def test_proportional_counts_totals_and_bus_rarity():
    counts = proportional_counts(500)
    assert sum(counts.values()) == 500
    assert all(c >= 1 for c in counts.values())
    assert counts["bus"] < 10  # rarer than a ten-fold split
    assert counts["passenger car"] == max(counts.values())


@pytest.mark.parametrize("total", range(7))
def test_proportional_counts_rejects_totals_below_class_count(total):
    with pytest.raises(ValueError, match="each of 7 classes"):
        proportional_counts(total)


@settings(max_examples=200, deadline=None)
@given(st.integers(7, 20_000))
def test_proportional_counts_sums_exactly(total):
    counts = proportional_counts(total)
    assert sum(counts.values()) == total
    assert all(c >= 1 for c in counts.values())


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 500))
def test_even_binary_split_gives_the_odd_trace_to_the_first_template(total):
    first, second = (t.label for t in BINARY_TEMPLATES)
    counts = proportional_counts(total, {first: 0.5, second: 0.5})
    assert counts == {first: total // 2 + total % 2, second: total // 2}


def test_invert_direction_is_involution(topo, params):
    bundle = generate_trace(CAR_LIKE, topo, params, seed=4)
    twice = invert_direction(invert_direction(bundle))
    assert np.array_equal(bundle.rssi_dbm, twice.rssi_dbm)
    assert bundle.truth == twice.truth
    assert invert_direction(bundle).truth.direction == -1


@settings(max_examples=60, deadline=None)
@given(
    rssi=hnp.arrays(float, st.tuples(st.just(9), st.integers(0, 40)),
                    elements=st.floats(-120.0, 0.0)),
    idle=hnp.arrays(float, 9, elements=st.floats(-100.0, -1.0)),
    t0_ms=st.floats(-1e6, 1e6),
    truth=st.one_of(st.none(), st.builds(
        GroundTruth, label=st.sampled_from(["car-like", "truck-like"]),
        speed_mps=st.floats(0.5, 40.0), length_m=st.floats(1.0, 20.0),
        direction=st.sampled_from([-1, 1]))),
)
def test_invert_direction_twice_is_the_identity(rssi, idle, t0_ms, truth):
    bundle = TraceBundle(rssi, idle, 8.0, t0_ms, truth)
    twice = invert_direction(invert_direction(bundle))
    assert twice.rssi_dbm.tobytes() == bundle.rssi_dbm.tobytes()
    assert twice.idle_level_dbm.tobytes() == bundle.idle_level_dbm.tobytes()
    assert (twice.sample_period_ms, twice.t0_ms, twice.truth) == (8.0, t0_ms, truth)


def test_invert_swaps_onsets(topo, params):
    bundle = generate_trace(noise_free(), topo, params, seed=2)
    fwd_obs, _ = process_bundle(bundle, topo, params)
    inv_obs, _ = process_bundle(invert_direction(bundle), topo, params)
    assert fwd_obs[0].events[1].t_start_ms == inv_obs[0].events[9].t_start_ms
    assert fwd_obs[0].events[9].t_start_ms == inv_obs[0].events[1].t_start_ms


def test_inverted_trace_yields_negative_speed(topo, params):
    bundle = generate_trace(CAR_LIKE, topo, params, seed=12)
    obs, _ = process_bundle(invert_direction(bundle), topo, params)
    assert obs[0].v_mps < 0
    assert obs[0].direction == "wrong_way"


def test_trace_csv_roundtrip_bytes(tmp_path, topo, params):
    bundle = generate_trace(CAR_LIKE, topo, params, seed=3)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_trace_csv(str(p1), bundle)
    back = read_trace_csv(str(p1))
    write_trace_csv(str(p2), back)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.rssi_dbm, bundle.rssi_dbm)
    assert back.sample_period_ms == bundle.sample_period_ms


def test_trace_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,link,rssi\n")
    with pytest.raises(TraceFormatError, match="header"):
        read_trace_csv(str(bad))
    bad.write_text("t_ms,link,rssi_dbm\n0.0,12,-60.0\n")
    with pytest.raises(TraceFormatError, match="link"):
        read_trace_csv(str(bad))
    bad.write_text("t_ms,link,rssi_dbm\n8.0,1,-60.0\n0.0,1,-61.0\n")
    with pytest.raises(TraceFormatError, match="sorted"):
        read_trace_csv(str(bad))


@pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf, 0.0, 3.5])
def test_trace_csv_rejects_non_finite_or_non_negative_rssi(tmp_path, value):
    streams = np.full((9, 40), -60.0)
    streams[4, 30] = value
    path = tmp_path / "bad.csv"
    write_trace_csv(str(path), TraceBundle(streams, np.full(9, -60.0), 8.0))
    with pytest.raises(TraceFormatError, match="finite negative"):
        read_trace_csv(str(path))


def _idle_trace_lines(tmp_path, epochs=40):
    path = tmp_path / "idle.csv"
    write_trace_csv(str(path), TraceBundle(np.full((9, epochs), -60.0), np.full(9, -60.0), 8.0))
    return path, path.read_text().splitlines(keepends=True)


def _set_time(line, value):
    return ",".join([value] + line.split(",")[1:])


@pytest.mark.parametrize("row,value", [
    (1, "nan"),           # first row
    (1 + 9 * 10 + 3, "nan"),  # link 4 of a later epoch
    (1, "-inf"),          # first row
])
def test_trace_csv_rejects_unordered_timestamps(tmp_path, row, value):
    path, lines = _idle_trace_lines(tmp_path)
    lines[row] = _set_time(lines[row], value)
    path.write_text("".join(lines))
    with pytest.raises(TraceFormatError, match="sorted"):
        read_trace_csv(str(path))


def test_trace_csv_rejects_trailing_infinite_timestamp(tmp_path):
    path, lines = _idle_trace_lines(tmp_path)
    lines[-1] = _set_time(lines[-1], "inf")
    path.write_text("".join(lines))
    with pytest.raises(TraceFormatError, match="finite"):
        read_trace_csv(str(path))


def test_trace_csv_rejects_dropped_epoch(tmp_path):
    path, lines = _idle_trace_lines(tmp_path)
    del lines[1 + 9 * 20: 1 + 9 * 21]
    path.write_text("".join(lines))
    with pytest.raises(TraceFormatError, match="evenly spaced"):
        read_trace_csv(str(path))


def test_trace_csv_accepts_offset_start(tmp_path):
    path = tmp_path / "late.csv"
    bundle = TraceBundle(np.full((9, 40), -60.0), np.full(9, -60.0), 12.5, t0_ms=1.0e9 + 0.1)
    write_trace_csv(str(path), bundle)
    back = read_trace_csv(str(path))
    assert back.t0_ms == bundle.t0_ms
    assert back.sample_period_ms == pytest.approx(12.5)


def test_labels_csv_roundtrip(tmp_path):
    rows = [("trace_0.csv", "van", 10.5, 5.75, 1), ("trace_1.csv", "bus", 8.25, 13.0, -1)]
    path = tmp_path / "labels.csv"
    write_labels_csv(str(path), rows)
    assert read_labels_csv(str(path)) == rows


def test_trailer_template_keeps_single_phase(topo, params):
    bundle = generate_trace(noise_free(l_m=10.0, n_lobes=2), topo, params, seed=8)
    obs, filtered = process_bundle(bundle, topo, params)
    assert len(obs) == 1
    assert len(obs[0].events) == 9
    assert filtered[1].values.min() < 0.75
