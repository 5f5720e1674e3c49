import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rftraffic.detect import AttenuationEvent, VehicleObservation, process_bundle
from rftraffic.features import (
    N_FEATURES,
    FeatureVector,
    ScalingTransform,
    extract_features,
    feature_groups,
    feature_names,
    fit_scaling,
    link_block_slice,
    read_features_csv,
    segments_for_observation,
    write_features_csv,
)
from rftraffic.simulate import CAR_LIKE, TRUCK_LIKE, generate_trace
from rftraffic.topology import LINK_IDS


def one_link_obs(segment_value=0.8, links=(1,), duration_ms=400.0, v=10.0, l=5.0):
    events = {
        link: AttenuationEvent(link, 100.0, 100.0 + duration_ms, min(segment_value, 0.9))
        for link in links
    }
    return VehicleObservation(vehicle_id=0, events=events, v_mps=v, l_m=l)


def test_vector_layout():
    names = feature_names()
    assert len(names) == N_FEATURES == 92
    assert names[:2] == ["v_kmh", "l_m"]
    assert names[2] == "phi1_tau"
    assert names[-1] == "phi9_hist6"
    groups = feature_groups()
    assert groups.count("G") == 2
    for link in LINK_IDS:
        assert groups.count(f"phi{link}") == 10
        block = link_block_slice(link)
        assert block.stop - block.start == 10


def test_constant_segment_block():
    obs = one_link_obs()
    segments = {1: np.full(50, 0.8)}
    vec = extract_features(obs, segments)
    block = vec.values[link_block_slice(1)]
    assert block[0] == pytest.approx(0.4)  # duration in seconds
    assert block[1] == pytest.approx(0.8)
    assert block[2] == pytest.approx(0.8)
    assert block[3] == pytest.approx(0.0, abs=1e-12)  # population std of a constant
    assert list(block[4:10]) == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]  # bin [0.8, 0.9)


def test_missing_links_zero_blocks():
    obs = one_link_obs(links=(1, 5))
    segments = {1: np.full(30, 0.8), 5: np.full(30, 0.75)}
    vec = extract_features(obs, segments)
    for link in LINK_IDS:
        block = vec.values[link_block_slice(link)]
        if link in (1, 5):
            assert block[0] > 0.0  # the duration column
        else:
            assert np.all(block == 0.0)


def test_globals_from_estimates():
    obs = one_link_obs(v=-12.0, l=6.5)  # wrong-way speed enters as magnitude
    vec = extract_features(obs, {1: np.full(10, 0.8)})
    assert vec.values[0] == pytest.approx(12.0 * 3.6)
    assert vec.values[1] == pytest.approx(6.5)

    obs_unavailable = one_link_obs(v=None, l=None)
    vec = extract_features(obs_unavailable, {1: np.full(10, 0.8)})
    assert vec.values[0] == vec.values[1] == 0.0


def test_histogram_rows_sum_to_one(topo, params):
    bundle = generate_trace(TRUCK_LIKE, topo, params, seed=17)
    obs, filtered = process_bundle(bundle, topo, params)
    vec = extract_features(obs[0], segments_for_observation(obs[0], filtered))
    assert vec.values.shape == (92,)
    for link in LINK_IDS:
        hist = vec.values[link_block_slice(link)][4:10]
        assert hist.sum() == pytest.approx(1.0)


def test_car_population_block_matches_class_statistics(topo, params):
    # population means of the first block entries: duration, min, mean
    children = np.random.SeedSequence(5050).spawn(200)
    blocks = []
    for child in children:
        bundle = generate_trace(CAR_LIKE, topo, params, child)
        obs, filtered = process_bundle(bundle, topo, params)
        vec = extract_features(obs[0], segments_for_observation(obs[0], filtered))
        blocks.append(vec.values[link_block_slice(1)])
    mean_block = np.vstack(blocks).mean(axis=0)
    assert mean_block[0] == pytest.approx(0.46, abs=0.03)
    assert mean_block[1] == pytest.approx(0.72, abs=0.02)
    assert mean_block[2] == pytest.approx(0.86, abs=0.02)
    assert 0.0 < mean_block[3] < 0.12  # dispersion of a dipped segment stays small


def test_truck_histogram_mass_sits_lower_than_car(topo, params):
    def mean_hist(template, seed):
        children = np.random.SeedSequence(seed).spawn(60)
        rows = []
        for child in children:
            bundle = generate_trace(template, topo, params, child)
            obs, filtered = process_bundle(bundle, topo, params)
            vec = extract_features(obs[0], segments_for_observation(obs[0], filtered))
            rows.append(vec.values[link_block_slice(1)][4:10])
        return np.vstack(rows).mean(axis=0)

    edges_mid = np.array([0.55, 0.65, 0.75, 0.85, 0.95, 1.05])
    car_center = float(edges_mid @ mean_hist(CAR_LIKE, 61))
    truck_center = float(edges_mid @ mean_hist(TRUCK_LIKE, 62))
    assert truck_center < car_center


def test_scaling_midpoint_and_constant():
    t = fit_scaling(np.array([[0.0, 3.0], [10.0, 3.0]]))
    out = t.apply(np.array([5.0, 3.0]))
    assert out[0] == pytest.approx(0.0)
    assert out[1] == 0.0  # constant dimension maps to zero
    assert np.all(t.apply(np.array([[0.0, 3.0], [10.0, 3.0]])) == [[-1, 0], [1, 0]])


def test_scaling_maps_training_data_into_unit_box():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 7)) * 10
    t = fit_scaling(x)
    scaled = t.apply(x)
    assert scaled.min() >= -1.0 and scaled.max() <= 1.0
    assert np.isclose(scaled.min(axis=0), -1.0).all()
    assert np.isclose(scaled.max(axis=0), 1.0).all()


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(dtype=float, shape=(12, 4),
               elements=st.floats(min_value=-100, max_value=100, allow_nan=False)),
    hnp.arrays(dtype=float, shape=(6, 4),
               elements=st.floats(min_value=-1000, max_value=1000, allow_nan=False)),
)
def test_scaling_clamps_out_of_range_test_points(train, test):
    t = fit_scaling(train)
    out = t.apply(test)
    assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_fit_scaling_rejects_empty():
    with pytest.raises(ValueError):
        fit_scaling(np.empty((0, 3)))


def test_feature_vector_length_enforced():
    with pytest.raises(ValueError):
        FeatureVector(values=np.zeros(91))


def test_features_csv_roundtrip(tmp_path, binary_small):
    x, labels = binary_small
    path = tmp_path / "features.csv"
    write_features_csv(str(path), x[:20], labels[:20])
    back_x, back_labels = read_features_csv(str(path))
    assert back_labels == labels[:20]
    assert np.array_equal(back_x, x[:20])
