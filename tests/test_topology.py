from dataclasses import fields

import numpy as np
import pytest

from rftraffic.topology import (
    BINARY,
    BODY_STYLE,
    BODY_STYLE_CLASSES,
    SIZE_BASED,
    ConfigError,
    LINK_NODE_MAP,
    STRAIGHT_LINKS,
    SystemParams,
    Topology,
    get_taxonomy,
    labels_for_taxonomy,
    link_distance,
    load_system_config,
)


def test_default_params_match_deployed_values():
    p = SystemParams()
    assert p.sample_period_ms == 8.0
    assert p.filter_size_n == 10
    assert p.guard_w == 10
    assert p.start_offset_h == 5
    assert p.theta_start == 0.92
    assert p.theta_end == 0.975
    assert p.theta_guard == 0.95
    assert Topology().longitudinal_spacing_m == 5.0


def test_threshold_ordering_enforced():
    with pytest.raises(ConfigError):
        SystemParams(theta_start=0.98)  # start above end
    with pytest.raises(ConfigError):
        SystemParams(theta_guard=0.99)  # guard above end
    with pytest.raises(ConfigError):
        SystemParams(filter_size_n=0)


def test_link_distance_examples():
    topo = Topology()
    assert link_distance(topo, 1, 5) == 5.0
    assert link_distance(topo, 1, 9) == 10.0
    assert link_distance(topo, 5, 5) == 0.0


def test_link_distance_symmetric_and_positive():
    topo = Topology(longitudinal_spacing_m=7.5)
    for i in STRAIGHT_LINKS:
        for j in STRAIGHT_LINKS:
            assert link_distance(topo, i, j) == link_distance(topo, j, i)
            if i != j:
                assert link_distance(topo, i, j) > 0
    assert link_distance(topo, 1, 5) == 7.5
    assert link_distance(topo, 1, 9) == 15.0


def test_link_distance_rejects_diagonals():
    topo = Topology()
    with pytest.raises(ValueError, match="diagonal"):
        link_distance(topo, 1, 2)
    with pytest.raises(ValueError):
        link_distance(topo, 7, 9)


def test_link_map_is_bijection():
    assert sorted(LINK_NODE_MAP) == list(range(1, 10))
    assert len(set(LINK_NODE_MAP.values())) == 9
    assert LINK_NODE_MAP[1] == (0, 0)
    assert LINK_NODE_MAP[5] == (1, 1)
    assert LINK_NODE_MAP[9] == (2, 2)


@pytest.mark.parametrize("s", [5.0, 7.5, 0.1, 1 / 3, 2.0 ** -40, 1e300])
def test_geometry_is_the_posts_at_whole_spacings(s):
    """Post i of either row stands at (0.0, s, 2.0 * s)[i], to the bit."""
    posts = (0.0, s, 2.0 * s)
    topo = Topology(longitudinal_spacing_m=s)
    for link, (tx, rx) in LINK_NODE_MAP.items():
        assert topo.link_midpoint_m(link) == 0.5 * (posts[tx] + posts[rx])
    for i in STRAIGHT_LINKS:
        for j in STRAIGHT_LINKS:
            expected = abs(posts[LINK_NODE_MAP[i][0]] - posts[LINK_NODE_MAP[j][0]])
            assert link_distance(topo, i, j) == expected


def test_topology_is_hashable_and_equal_by_spacing():
    assert hash(Topology()) == hash(Topology(longitudinal_spacing_m=5.0))
    assert Topology(longitudinal_spacing_m=7.5) != Topology()


def test_straight_links_midpoints_on_spacing_grid():
    topo = Topology()
    assert [topo.link_midpoint_m(link) for link in (1, 5, 9)] == [0.0, 5.0, 10.0]
    # links 3 and 7 span the full deployment and share the central midpoint
    assert topo.link_midpoint_m(3) == topo.link_midpoint_m(7) == 5.0


def test_taxonomy_shapes():
    assert len(BINARY.classes) == 2
    assert len(SIZE_BASED.classes) == 3
    assert len(BODY_STYLE.classes) == 7
    assert BINARY.classes == ("car-like", "truck-like")
    assert SIZE_BASED.classes == ("small", "mid-size", "large")


def test_coarsen_examples():
    assert labels_for_taxonomy(["van"], BINARY) == ["car-like"]
    assert labels_for_taxonomy(["semitruck"], SIZE_BASED) == ["large"]
    assert labels_for_taxonomy(["truck"], BODY_STYLE) == ["truck"]


def test_coarsen_total_and_idempotent():
    for label in BODY_STYLE_CLASSES:
        assert labels_for_taxonomy([label], BINARY)[0] in BINARY.classes
        assert labels_for_taxonomy([label], SIZE_BASED)[0] in SIZE_BASED.classes
        assert labels_for_taxonomy([label], BODY_STYLE) == [label]


def test_coarsen_unknown_label():
    with pytest.raises(KeyError):
        labels_for_taxonomy(["bicycle"], BINARY)
    with pytest.raises(KeyError):
        labels_for_taxonomy(["car-like"], SIZE_BASED)


def test_labels_passthrough_when_already_coarse():
    assert labels_for_taxonomy(["car-like", "truck-like"], BINARY) == ["car-like", "truck-like"]
    assert labels_for_taxonomy(["van", "bus"], BINARY) == ["car-like", "truck-like"]


def test_encode_maps_labels_to_class_indices():
    labels = ["bus", "van", "passenger car", "truck with trailer"]
    for taxonomy in (BINARY, SIZE_BASED, BODY_STYLE):
        y = taxonomy.encode(labels)
        assert y.dtype.kind == "i"
        assert [taxonomy.classes[i] for i in y] == labels_for_taxonomy(labels, taxonomy)
    assert BINARY.encode(["truck-like", "car-like"]).tolist() == [1, 0]
    assert BODY_STYLE.encode([]).shape == (0,)
    with pytest.raises(KeyError):
        SIZE_BASED.encode(["car-like"])


def test_get_taxonomy_unknown():
    with pytest.raises(ConfigError):
        get_taxonomy("fhwa13")


def test_config_file_defaults_and_overrides(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    topo, params = load_system_config(str(empty))
    assert topo == Topology()
    assert params == SystemParams()

    cfg = tmp_path / "custom.cfg"
    cfg.write_text(
        "# deployment overrides\n"
        "longitudinal_spacing_m = 4.0\n"
        "filter_size_n = 8\n"
        "theta_start = 0.9\n"
    )
    topo, params = load_system_config(str(cfg))
    assert topo.longitudinal_spacing_m == 4.0
    assert params.filter_size_n == 8
    assert params.theta_start == 0.9
    assert params.guard_w == 10  # untouched default


def test_every_site_parameter_round_trips_through_a_config_file(tmp_path):
    values = {
        "longitudinal_spacing_m": 3.5,
        "sample_period_ms": 4.25,
        "filter_size_n": 7,
        "guard_w": 6,
        "start_offset_h": 3,
        "theta_start": 0.91,
        "theta_end": 0.97,
        "theta_guard": 0.94,
    }
    assert set(values) == {f.name for cls in (Topology, SystemParams) for f in fields(cls)}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    topo, params = load_system_config(str(cfg))
    assert topo == Topology(values.pop("longitudinal_spacing_m"))
    assert params == SystemParams(**values)
    assert params != SystemParams()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("key", ["longitudinal_spacing_m", "sample_period_ms"])
def test_config_rejects_a_non_finite_site_parameter(tmp_path, key, value):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"^{key} must be finite, got {value}$"):
        load_system_config(str(cfg))


def test_config_file_rejects_a_repeated_key(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("guard_w = 3\n# later edit\ntheta_start = 0.9\nguard_w = 12\n")
    with pytest.raises(ConfigError, match=f"^{cfg}:4: key 'guard_w' is already set on line 1$"):
        load_system_config(str(cfg))


def test_config_file_rejects_unknown_and_malformed(tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("spacing = 4\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_system_config(str(bad_key))

    bad_val = tmp_path / "badval.cfg"
    bad_val.write_text("filter_size_n = ten\n")
    with pytest.raises(ConfigError, match="invalid value"):
        load_system_config(str(bad_val))

    no_eq = tmp_path / "noeq.cfg"
    no_eq.write_text("theta_start 0.9\n")
    with pytest.raises(ConfigError):
        load_system_config(str(no_eq))
