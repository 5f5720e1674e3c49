import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rftraffic import simulate
from rftraffic.detect import process_bundle
from rftraffic.simulate import (
    BINARY_TEMPLATES,
    BODY_STYLE_TEMPLATES,
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
    stream_dataset,
    write_labels_csv,
    write_trace_csv,
)
from rftraffic.tables import read_table
from rftraffic.topology import LINK_IDS, STRAIGHT_LINKS, SystemParams, Topology


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


def _made_first_then_shuffled(templates, counts, seed):
    """The corpus made block by block, then shuffled: the stream's oracle."""
    topology, params = Topology(), SystemParams()
    children = np.random.SeedSequence(seed).spawn(sum(counts) + 1)
    made = []
    for template, count in zip(templates, counts):
        for _ in range(count):
            made.append((generate_trace(template, topology, params, children[len(made) + 1]),
                         template.label))
    perm = np.random.default_rng(children[0]).permutation(len(made))
    return [made[j] for j in perm]


def _corpus_bytes(corpus):
    return [(label, bundle.truth, bundle.rssi_dbm.tobytes(), bundle.idle_level_dbm.tobytes())
            for bundle, label in corpus]


@pytest.mark.parametrize("templates,counts", [
    (BINARY_TEMPLATES, [1, 4]),
    (BINARY_TEMPLATES, [3, 1]),
    (BODY_STYLE_TEMPLATES, [2, 1, 1, 1, 1, 1, 1]),
    (BODY_STYLE_TEMPLATES, [1, 1, 3, 1, 2, 1, 1]),
], ids=["binary-1-4", "binary-3-1", "body-2-1", "body-mixed"])
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_stream_yields_the_shuffled_corpus_bit_for_bit(templates, counts, seed):
    expected = _corpus_bytes(_made_first_then_shuffled(templates, counts, seed))
    assert _corpus_bytes(stream_dataset(templates, counts, seed)) == expected
    assert _corpus_bytes(generate_dataset(templates, counts, seed)) == expected


def test_stream_makes_each_trace_when_it_is_asked_for(monkeypatch):
    made = []
    real = simulate.generate_trace
    monkeypatch.setattr(simulate, "generate_trace", lambda *a: made.append(a) or real(*a))
    stream = stream_dataset(BINARY_TEMPLATES, {"car-like": 2, "truck-like": 3}, seed=5)
    assert made == []
    next(stream)
    assert len(made) == 1
    assert sum(1 for _ in stream) == 4 and len(made) == 5


@pytest.mark.parametrize("templates,counts,error", [
    ([], [1], ValueError),
    (BINARY_TEMPLATES, [0, 5], ValueError),
    (BINARY_TEMPLATES, [2, -1], ValueError),
    (BINARY_TEMPLATES, [3], ValueError),
    (BINARY_TEMPLATES, [1, 2, 3], ValueError),
    (BINARY_TEMPLATES, {"car-like": 2}, KeyError),
])
def test_stream_rejects_bad_arguments_at_the_call(templates, counts, error):
    with pytest.raises(error):
        stream_dataset(templates, counts, seed=1)


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
        GroundTruth, speed_mps=st.floats(0.5, 40.0), length_m=st.floats(1.0, 20.0),
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


def read_trace_rowwise(path):
    """Row-by-row trace reader through ``read_table``: the oracle of ``read_trace_csv``."""
    per_link = {link: [] for link in LINK_IDS}
    links, times = [], []
    prev_t, prev_link = -math.inf, math.inf
    for row in read_table(path, simulate.TRACE_HEADER):
        try:
            t = float(row[0])
            link = int(row[1])
            rssi = float(row[2])
        except ValueError:
            raise TraceFormatError(f"{path}: malformed row {row!r}") from None
        stream = per_link.get(link)
        if stream is None:
            raise TraceFormatError(f"{path}: link {link} out of range 1..9")
        if not (t > prev_t or (t == prev_t and link > prev_link)):
            raise TraceFormatError(f"{path}: rows must be sorted by t_ms then link")
        prev_t, prev_link = t, link
        stream.append(rssi)
        links.append(link)
        if link == 1:
            times.append(t)
    if not links:
        raise TraceFormatError(f"{path}: empty trace")
    # whole epochs: row r (from 0) names link r % 9 + 1, to the end of the last epoch
    for r in range(-(-len(links) // 9) * 9):
        if r == len(links) or links[r] != r % 9 + 1:
            raise TraceFormatError(f"{path}: not whole epochs of links 1..9: "
                                   f"data row {r + 1} should be link {r % 9 + 1}")
    if not math.isfinite(prev_t):
        raise TraceFormatError(f"{path}: t_ms must be finite")
    streams = np.array([per_link[link] for link in LINK_IDS])
    if not (np.isfinite(streams).all() and (streams < 0).all()):
        raise TraceFormatError(f"{path}: rssi_dbm must be finite negative dBm")
    if len(times) >= 2:
        period = times[1] - times[0]
        if np.abs(np.diff(times) - period).max() > 1e-6 * period:
            raise TraceFormatError(f"{path}: link-1 timestamps must be evenly spaced")
    else:
        period = SystemParams().sample_period_ms
    idle = streams[:, : min(25, streams.shape[1])].mean(axis=1)
    return TraceBundle(rssi_dbm=streams, idle_level_dbm=idle, sample_period_ms=period,
                       t0_ms=times[0])


def assert_same_trace(got, want):
    for name in ("rssi_dbm", "idle_level_dbm"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
    for name in ("t0_ms", "sample_period_ms"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) and repr(a) == repr(b), name


def _trace_text(epochs=4, t0=0.0, period=8.0, line_end="\n", cell=repr):
    rows = ["t_ms,link,rssi_dbm"]
    for k in range(epochs):
        for link in LINK_IDS:
            rows.append(",".join([cell(t0 + k * period), cell(link), cell(-60.0 - link - k / 7)]))
    return line_end.join(rows) + line_end


def _rising_stamps_text():
    """Whole 8 ms epochs whose link-l row is stamped ``(l - 1) / 2`` ms after the epoch's link-1 row."""
    lines = _trace_text().splitlines(keepends=True)
    for r in range(1, len(lines)):
        lines[r] = _set_time(lines[r], repr((r - 1) // 9 * 8.0 + (r - 1) % 9 / 2))
    return "".join(lines)


def _shifted_links_text():
    """A generated trace (body-style template 0, seed 5) with links 6-9 stamped
    three epochs late, rows sorted by time then link: every link keeps its
    row count, but the epochs at both ends are not whole."""
    bundle = generate_trace(BODY_STYLE_TEMPLATES[0], Topology(), SystemParams(), seed=5)
    period = bundle.sample_period_ms
    rows = sorted((bundle.t0_ms + (k + 3 * (link >= 6)) * period, link, rssi)
                  for link, stream in zip(LINK_IDS, bundle.rssi_dbm.tolist())
                  for k, rssi in enumerate(stream))
    return "t_ms,link,rssi_dbm\n" + "".join(f"{t!r},{link},{rssi!r}\n" for t, link, rssi in rows)


def _swap_rows(text, i, j):
    lines = text.splitlines(keepends=True)
    lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


def _edit_row(text, row, column, value):
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines)


#: files both readers accept, beyond what write_trace_csv writes
ACCEPTED = {
    "lf": _trace_text(),
    "crlf": _trace_text(line_end="\r\n"),
    "cr": _trace_text(line_end="\r"),
    "no final line end": _trace_text().rstrip("\n"),
    "quoted cells": _trace_text(cell=lambda v: f'"{v!r}"'),
    "spaces around cells": _trace_text(cell=lambda v: f" {v!r} "),
    "signs and exponents": _trace_text().replace(",1,", ",+1,").replace("-60.0", "-6.0e1"),
    "one epoch": _trace_text(epochs=1),
    "offset start": _trace_text(t0=1.0e9 + 0.1, period=12.5),
    "quoted header": _trace_text().replace("t_ms,link", '"t_ms",link', 1),
    "stamps rising inside epochs": _rising_stamps_text(),
}


@pytest.mark.parametrize("name", list(ACCEPTED))
def test_trace_reader_matches_rowwise_oracle_on_valid_files(tmp_path, name):
    path = tmp_path / "trace.csv"
    path.write_bytes(ACCEPTED[name].encode())
    assert_same_trace(read_trace_csv(str(path)), read_trace_rowwise(str(path)))


@settings(max_examples=60, deadline=None)
@given(
    rssi=hnp.arrays(float, st.tuples(st.just(9), st.integers(1, 30)),
                    elements=st.floats(-1e300, -1e-300)),
    t0_ms=st.floats(-1e6, 1e6),
    period=st.floats(0.5, 50.0),
)
def test_trace_reader_matches_rowwise_oracle_on_written_files(tmp_path_factory, rssi, t0_ms,
                                                              period):
    path = tmp_path_factory.mktemp("written") / "trace.csv"
    write_trace_csv(str(path), TraceBundle(rssi, np.full(9, -60.0), period, t0_ms))
    assert_same_trace(read_trace_csv(str(path)), read_trace_rowwise(str(path)))


def test_trace_reader_matches_rowwise_oracle_on_generated_traces(tmp_path, topo, params):
    for seed, invert in ((1, False), (2, True), (3, False)):
        bundle = generate_trace(CAR_LIKE, topo, params, seed=seed)
        path = tmp_path / f"trace{seed}.csv"
        write_trace_csv(str(path), invert_direction(bundle) if invert else bundle)
        assert_same_trace(read_trace_csv(str(path)), read_trace_rowwise(str(path)))


_LINES = _trace_text().split("\n")
#: files both readers reject, each with a message both readers share
REJECTED = {
    "empty file": ("", "header"),
    "wrong header": ("time,link,rssi\n0.0,1,-60.0\n", "header"),
    "header only": ("t_ms,link,rssi_dbm\n", "empty trace"),
    "header only crlf": ("t_ms,link,rssi_dbm\r\n", "empty trace"),
    "blank line": (_trace_text().replace("\n", "\n\n", 3), "malformed row"),
    "blank line after header": (_trace_text().replace("\n", "\n\n", 1), "malformed row"),
    "trailing blank line": (_trace_text() + "\n", "malformed row"),
    "blank crlf line": (_trace_text(line_end="\r\n").replace("\r\n", "\r\n\r\n", 5),
                        "malformed row"),
    "space-only line": (_trace_text().replace("\n", "\n \n", 2), "malformed row"),
    "trailing comma": (_trace_text().replace("-61.0\n", "-61.0,\n"), "malformed row"),
    "missing cell": (_edit_row(_trace_text(), 3, 1, ""), "malformed row"),
    "two cells": (_trace_text().replace(",-61.0", "", 1), "malformed row"),
    "comment line": (_trace_text().replace("\n", "\n# note\n", 1), "malformed row"),
    "comment cell": (_edit_row(_trace_text(), 2, 0, "#0.0"), "malformed row"),
    "link written 1.0": (_edit_row(_trace_text(), 1, 1, "1.0"), "malformed row"),
    "link written 1e0": (_edit_row(_trace_text(), 1, 1, "1e0"), "malformed row"),
    "text link": (_edit_row(_trace_text(), 5, 1, "x"), "malformed row"),
    "text time": (_edit_row(_trace_text(), 5, 0, "soon"), "malformed row"),
    "hex time": (_edit_row(_trace_text(), 5, 0, "0x1p3"), "malformed row"),
    "semicolons": (_LINES[0] + "\n" + "\n".join(_LINES[1:]).replace(",", ";"), "malformed row"),
    "link 12": (_edit_row(_trace_text(), 1, 1, "12"), "link 12 out of range"),
    "link 0": (_edit_row(_trace_text(), 4, 1, "0"), "link 0 out of range"),
    "link -3": (_edit_row(_trace_text(), 4, 1, "-3"), "link -3 out of range"),
    "swapped links": (_swap_rows(_trace_text(), 3, 4), "sorted"),
    "swapped epochs": (_swap_rows(_trace_text(), 3, 12), "sorted"),
    "repeated row": (_trace_text().replace(_LINES[3] + "\n", _LINES[3] + "\n" + _LINES[3] + "\n"),
                     "sorted"),
    "nan first time": (_edit_row(_trace_text(), 1, 0, "nan"), "sorted"),
    "nan later time": (_edit_row(_trace_text(), 20, 0, "nan"), "sorted"),
    "-inf first time": (_edit_row(_trace_text(), 1, 0, "-inf"), "sorted"),
    "inf last time": (_edit_row(_trace_text(), 36, 0, "inf"), "must be finite"),
    # row 2 names link 12 and row 3 then breaks the order: the first fault wins
    "bad link before disorder": (_edit_row(_swap_rows(_trace_text(), 3, 12), 2, 1, "12"),
                                 "link 12 out of range"),
    "disorder before bad link": (_edit_row(_swap_rows(_trace_text(), 3, 12), 20, 1, "12"),
                                 "sorted"),
    "short link stream": ("\n".join(_LINES[:-2]) + "\n",
                          "not whole epochs of links 1..9: data row 36 should be link 9"),
    # equal stream lengths without whole epochs: links 1-5 at 0 ms, 1-9 at 8 ms, 6-9 at 16 ms
    "ragged epochs": ("t_ms,link,rssi_dbm\n" + "".join(
        f"{t},{link},-6{link}.5\n" for t, links in ((0.0, range(1, 6)), (8.0, LINK_IDS),
                                                   (16.0, range(6, 10))) for link in links),
                      "not whole epochs of links 1..9: data row 6 should be link 6"),
    "links 6-9 three epochs late": (_shifted_links_text(),
                                    "not whole epochs of links 1..9: data row 6 should be link 6"),
    "link missing mid-file": (_trace_text().replace(_LINES[14] + "\n", ""),
                              "not whole epochs of links 1..9: data row 14 should be link 5"),
    "nan rssi": (_edit_row(_trace_text(), 7, 2, "nan"), "finite negative"),
    "zero rssi": (_edit_row(_trace_text(), 7, 2, "0.0"), "finite negative"),
    "positive rssi": (_edit_row(_trace_text(), 7, 2, "4"), "finite negative"),
    "dropped epoch": ("\n".join(_LINES[:10] + _LINES[19:]), "evenly spaced"),
}


@pytest.mark.parametrize("name", list(REJECTED))
def test_trace_reader_rejects_what_the_rowwise_oracle_rejects(tmp_path, name):
    text, match = REJECTED[name]
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    for reader in (read_trace_rowwise, read_trace_csv):
        with pytest.raises(TraceFormatError, match=match):
            reader(str(path))


#: cells Python's float() or int() parses and numpy's parser does not: the
#: bulk reader rejects them as malformed rows where the row-wise reader read a
#: number (or, for a link, reported it out of range)
@pytest.mark.parametrize("row,column,cell", [
    (1, 0, "0_0"),  # digit separators in a time
    (3, 1, "1_0"),  # ... and in a link
    (3, 1, str(2**70)),  # a link past int64
    (3, 1, "٣"),  # a non-ASCII digit
])
def test_trace_reader_rejects_cells_only_python_parses(tmp_path, row, column, cell):
    path = tmp_path / "odd.csv"
    path.write_text(_edit_row(_trace_text(), row, column, cell), encoding="utf-8")
    try:
        read_trace_rowwise(str(path))
    except TraceFormatError as exc:
        assert "out of range" in str(exc)
    with pytest.raises(TraceFormatError, match="malformed row"):
        read_trace_csv(str(path))


def test_trace_writer_matches_csv_module_bytes(tmp_path, topo, params):
    bundle = generate_trace(CAR_LIKE, topo, params, seed=5)
    for trace in (bundle, TraceBundle(np.full((9, 3), -1e-300), np.full(9, -60.0), 1 / 3,
                                      t0_ms=-1e17)):
        path = tmp_path / "bulk.csv"
        write_trace_csv(str(path), trace)
        with open(tmp_path / "rows.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(simulate.TRACE_HEADER)
            period = trace.sample_period_ms
            writer.writerows([trace.t0_ms + k * period, link, rssi]
                             for k, epoch in enumerate(trace.rssi_dbm.T.tolist())
                             for link, rssi in zip(LINK_IDS, epoch))
        assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()


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
    assert filtered.values[0].min() < 0.75


def generate_streams_per_link(template, topology, params, seed):
    """The generator's streams made link by link: the oracle of ``generate_trace``.

    Each link evaluates its own lobe, depth scale and noise draw of ``n``.
    """
    rng = np.random.default_rng(seed)
    ts = params.sample_period_ms / 1000.0
    v_kmh = simulate._draw_trunc(rng, template.speed_kmh_mean, template.speed_kmh_std, lo=1.0)
    v_mps = v_kmh * simulate.KMH_TO_MPS
    speed_mean_mps = template.speed_kmh_mean * simulate.KMH_TO_MPS
    dur_mean = template.length_m_mean / speed_mean_mps
    dur_std = template.length_m_std / speed_mean_mps
    duration_s = simulate._draw_trunc(rng, dur_mean, dur_std,
                                      lo=max(6 * ts, simulate.MIN_LENGTH_M / v_mps))
    floor = simulate._draw_trunc(rng, template.min_depth_mean, template.min_depth_std,
                                 lo=0.30, hi=0.88)
    mean_level = simulate._draw_trunc(rng, template.mean_level_mean, template.mean_level_std,
                                      lo=floor + 0.05, hi=0.95)
    plateau = simulate._plateau_for_mean(mean_level, floor, template.n_lobes)
    if template.n_lobes == 1:
        segments = simulate._single_lobe_segments(plateau, floor)
    else:
        segments = simulate._double_lobe_segments(plateau, floor, simulate.GAP_RECOVERY_LEVEL)
    profile = simulate._LobeProfile(segments)

    lead = simulate._LEAD_S + rng.uniform(0.0, ts)
    last_mid = max(topology.link_midpoint_m(link) for link in LINK_IDS)
    total_s = lead + last_mid / v_mps + 2.5 * duration_s + simulate._TAIL_S
    n = int(math.ceil(total_s / ts))
    grid = np.arange(n) * ts
    span, start0 = simulate._calibrate_lobe(profile, lead, duration_s, params, grid)

    idle_noise = simulate.IDLE_NOISE_DB / abs(simulate.DEFAULT_IDLE_DBM)
    streams = np.empty((9, n))
    for link in LINK_IDS:
        start = start0 + topology.link_midpoint_m(link) / v_mps
        u = (grid - start) / span
        level = profile(u)
        if link not in STRAIGHT_LINKS:
            level = 1.0 - simulate.DIAGONAL_DEPTH_SCALE * (1.0 - level)
        sigma = np.where((u >= 0.0) & (u <= 1.0), template.noise_std, idle_noise)
        level = level + rng.standard_normal(n) * sigma
        streams[link - 1] = simulate.DEFAULT_IDLE_DBM * level
    return streams


@settings(max_examples=100, deadline=None)
@given(
    template=st.sampled_from(BINARY_TEMPLATES + BODY_STYLE_TEMPLATES),
    spacing_m=st.sampled_from([5.0, 3.5]),
    seed=st.integers(0, 2**63 - 1),
)
def test_one_array_generation_equals_the_per_link_loop(params, template, spacing_m, seed):
    topology = Topology(longitudinal_spacing_m=spacing_m)
    bundle = generate_trace(template, topology, params, seed)
    oracle = generate_streams_per_link(template, topology, params, seed)
    assert bundle.rssi_dbm.shape == oracle.shape
    assert bundle.rssi_dbm.tobytes() == oracle.tobytes()
