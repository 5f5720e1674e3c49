"""Synthetic generation and CSV files of nine-link RSSI trace bundles.

A passing vehicle depresses each link's received signal strength for roughly
``length / speed`` seconds.  The generator synthesizes that dip as a smooth
piecewise profile (raised-cosine blended segments): a shoulder at the class
mean level with a central notch down to the class minimum.  Trailer classes
emit two lobes separated by a partial recovery that stays below the detector's
release threshold, so the whole vehicle remains one attenuation phase.

Because the downstream detector reports phase boundaries only after its moving
average crosses fixed thresholds, a naively placed lobe would be reported with
a systematic duration bias.  The generator therefore solves for lobe span and
placement such that the threshold crossings of the filtered noise-free profile
land exactly on the advertised ground truth.  The solver reimplements the
filter/threshold arithmetic locally on purpose: the detector module stays an
independently testable consumer of these traces.

A labeled corpus is a stream (``stream_dataset``): its shuffle is drawn first,
from a child seed of its own, and each trace is made from its own child seed
when it is asked for, so a consumer holds one bundle at a time.  The draws
share no state, so the stream yields exactly the list that making every trace
first and shuffling after gives; ``generate_dataset`` is that list.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .tables import (
    TraceFormatError,
    read_numeric_table,
    read_table,
    write_numeric_table,
    write_table,
)
from .topology import LINK_IDS, STRAIGHT_LINKS, SystemParams, Topology

KMH_TO_MPS = 1.0 / 3.6

DEFAULT_IDLE_DBM = -60.0
IDLE_NOISE_DB = 0.5
GAP_RECOVERY_LEVEL = 0.96
#: depth of a diagonal link's dip as a fraction of a straight link's
DIAGONAL_DEPTH_SCALE = 0.8
#: bundle rows of the links that cross the lane diagonally
_DIAGONAL_ROWS = [link - 1 for link in LINK_IDS if link not in STRAIGHT_LINKS]

#: shortest vehicle the length draw may produce; anything at least this long
#: keeps adjacent link phases overlapping at any legal speed, so association
#: chains the nine links into one vehicle
MIN_LENGTH_M = 2.5

_LEAD_S = 0.6
_TAIL_S = 0.6


@dataclass(frozen=True)
class GroundTruth:
    label: str
    speed_mps: float
    length_m: float
    direction: int  # +1 forward, -1 reversed

    def __post_init__(self):
        if self.length_m <= 0 or self.speed_mps == 0 or self.direction not in (-1, 1):
            raise ValueError("inconsistent ground truth")


@dataclass(frozen=True)
class TraceBundle:
    """Time-aligned RSSI streams of all nine links plus per-link idle levels."""

    rssi_dbm: np.ndarray  # shape (9, n); row i holds link i+1
    idle_level_dbm: np.ndarray  # shape (9,)
    sample_period_ms: float
    t0_ms: float = 0.0
    truth: GroundTruth | None = None

    def __post_init__(self):
        if self.rssi_dbm.ndim != 2 or self.rssi_dbm.shape[0] != 9:
            raise ValueError("bundle needs 9 link streams")
        if self.idle_level_dbm.shape != (9,):
            raise ValueError("one idle level per link required")
        if not np.all(np.isfinite(self.idle_level_dbm)) or np.any(self.idle_level_dbm >= 0):
            raise ValueError("idle levels must be finite negative dBm")
        if self.sample_period_ms <= 0:
            raise ValueError("sample period must be positive")


@dataclass(frozen=True)
class ClassTemplate:
    """Statistical recipe for one vehicle class.

    The per-link shape is not part of the recipe: every diagonal link dips
    ``DIAGONAL_DEPTH_SCALE`` as deep as the straight ones, for every class.
    """

    label: str
    speed_kmh_mean: float
    speed_kmh_std: float
    length_m_mean: float
    length_m_std: float
    min_depth_mean: float
    min_depth_std: float
    mean_level_mean: float
    mean_level_std: float
    noise_std: float = 0.01
    n_lobes: int = 1

    def __post_init__(self):
        if not (0.0 < self.min_depth_mean < self.mean_level_mean < 1.0):
            raise ValueError("need 0 < min depth < mean level < 1")
        if self.speed_kmh_mean <= 0 or self.length_m_mean <= 0:
            raise ValueError("speed and length means must be positive")
        if self.n_lobes not in (1, 2):
            raise ValueError("only 1- and 2-lobe profiles are supported")


CAR_LIKE = ClassTemplate("car-like", 40.47, 7.2, 5.22, 1.08, 0.72, 0.06, 0.86, 0.03, 0.012)
TRUCK_LIKE = ClassTemplate("truck-like", 31.42, 5.4, 16.53, 3.3, 0.62, 0.05, 0.77, 0.03, 0.010)

BINARY_TEMPLATES = (CAR_LIKE, TRUCK_LIKE)

BODY_STYLE_TEMPLATES = (
    ClassTemplate("passenger car", 42.0, 7.0, 4.4, 0.5, 0.73, 0.05, 0.87, 0.025, 0.012),
    ClassTemplate("passenger car with trailer", 36.0, 6.0, 9.5, 1.2, 0.71, 0.05, 0.86, 0.03, 0.012, n_lobes=2),
    ClassTemplate("van", 38.0, 6.0, 5.9, 0.7, 0.70, 0.05, 0.84, 0.025, 0.012),
    ClassTemplate("truck", 33.0, 5.0, 11.5, 1.5, 0.63, 0.05, 0.78, 0.03, 0.010),
    ClassTemplate("truck with trailer", 30.0, 5.0, 17.5, 2.0, 0.63, 0.04, 0.78, 0.03, 0.010, n_lobes=2),
    ClassTemplate("semitruck", 30.0, 5.0, 15.5, 1.8, 0.61, 0.04, 0.76, 0.03, 0.010),
    ClassTemplate("bus", 32.0, 5.0, 13.5, 1.5, 0.64, 0.04, 0.79, 0.03, 0.010),
)

#: measurement-count weights used when a body-style corpus is requested by
#: total size only; buses stay rarer than a ten-fold split
BODY_STYLE_PROPORTIONS = {
    "passenger car": 0.55,
    "van": 0.15,
    "truck": 0.11,
    "semitruck": 0.08,
    "passenger car with trailer": 0.05,
    "truck with trailer": 0.052,
    "bus": 0.008,
}


#: the template sets a corpus may be drawn from, by class-set name
TEMPLATE_SETS: dict[str, tuple[ClassTemplate, ...]] = {
    "binary": BINARY_TEMPLATES,
    "body_style": BODY_STYLE_TEMPLATES,
}


# ---------------------------------------------------------------------------
# lobe profile synthesis


def _single_lobe_segments(plateau: float, floor: float) -> list[tuple[float, float, float]]:
    # the flat notch bottom spans ~0.16 of the lobe so the moving average
    # window fits inside it and the filtered minimum reaches the floor
    p, m = plateau, floor
    return [
        (0.10, 1.0, p),
        (0.22, p, p),
        (0.10, p, m),
        (0.16, m, m),
        (0.10, m, p),
        (0.22, p, p),
        (0.10, p, 1.0),
    ]


def _double_lobe_segments(plateau: float, floor: float, gap: float) -> list[tuple[float, float, float]]:
    p, m, g = plateau, floor, gap
    return [
        (0.06, 1.0, p),
        (0.14, p, p),
        (0.07, p, m),
        (0.06, m, m),
        (0.07, m, p),
        (0.10, p, p),
        (0.05, p, g),
        (0.08, g, g),
        (0.05, g, p),
        (0.22, p, p),
        (0.10, p, 1.0),
    ]


def _plateau_for_mean(mean_level: float, floor: float, n_lobes: int) -> float:
    # Inverts the lobe-average of the segment layout above so the drawn mean
    # level is realized; clamped to stay between the floor and the detection
    # threshold with margin.
    if n_lobes == 1:
        p = (mean_level - 0.1 - 0.26 * floor) / 0.64
    else:
        p = (mean_level - 0.08 - 0.13 * floor - 0.13 * GAP_RECOVERY_LEVEL) / 0.66
    return float(min(max(p, floor + 0.01), 0.915))


class _LobeProfile:
    """Continuous attenuation profile evaluated at arbitrary lobe fractions."""

    def __init__(self, segments: list[tuple[float, float, float]]):
        fracs = np.array([s[0] for s in segments])
        self.edges = np.concatenate([[0.0], np.cumsum(fracs)])
        self.edges[-1] = 1.0
        self.lo = np.array([s[1] for s in segments])
        self.hi = np.array([s[2] for s in segments])

    def __call__(self, u: np.ndarray) -> np.ndarray:
        out = np.ones_like(u, dtype=float)
        inside = (u >= 0.0) & (u <= 1.0)
        if not np.any(inside):
            return out
        ui = u[inside]
        idx = np.clip(np.searchsorted(self.edges, ui, side="right") - 1, 0, len(self.lo) - 1)
        width = self.edges[idx + 1] - self.edges[idx]
        local = (ui - self.edges[idx]) / width
        blend = 0.5 - 0.5 * np.cos(np.pi * local)
        out[inside] = self.lo[idx] + (self.hi[idx] - self.lo[idx]) * blend
        return out


# ---------------------------------------------------------------------------
# local filter/threshold arithmetic used only to place lobes consistently


def _growing_mean(values: np.ndarray, n: int) -> np.ndarray:
    csum = np.cumsum(values)
    out = np.empty_like(values)
    out[:n] = csum[:n] / np.arange(1, min(n, len(values)) + 1)
    if len(values) > n:
        out[n:] = (csum[n:] - csum[:-n]) / n
    return out


def _threshold_crossings(filtered: np.ndarray, params: SystemParams) -> tuple[int, int] | None:
    """First phase-start and phase-end indices of the filtered series, or None."""
    w = params.guard_w
    n = len(filtered)
    start_mask = filtered < params.theta_start
    if not start_mask.any():
        return None
    j0 = int(np.argmax(start_mask))
    tail = np.concatenate([filtered, np.ones(w)])  # idle continuation for the guard mean
    csum = np.cumsum(tail)
    guard_mean = (csum[w:] - csum[:-w]) / w  # mean of tail[j+1 .. j+w] at index j
    end_mask = (filtered > params.theta_end) & (guard_mean[: n] >= params.theta_guard)
    end_mask[: j0 + 1] = False
    if not end_mask.any():
        return None
    j1 = int(np.argmax(end_mask))
    return j0, j1


def _calibrate_lobe(
    profile: _LobeProfile,
    onset_s: float,
    duration_s: float,
    params: SystemParams,
    grid_s: np.ndarray,
) -> tuple[float, float]:
    """Solve for (span, start time) so the detected phase matches the truth.

    Returns the lobe span and lobe start time such that a detector running the
    standard filter and thresholds reports the phase starting at ``onset_s``
    with duration ``duration_s`` (up to sample quantization).
    """
    ts = params.sample_period_ms / 1000.0
    span = duration_s
    start = onset_s
    for _ in range(10):
        raw = profile((grid_s - start) / span)
        filtered = _growing_mean(raw, params.filter_size_n)
        crossings = _threshold_crossings(filtered, params)
        if crossings is None:
            span *= 1.25  # too shallow/short to register; widen and retry
            continue
        j0, j1 = crossings
        det_start = (max(j0 - params.start_offset_h, 0)) * ts + grid_s[0]
        det_dur = (j1 - max(j0 - params.start_offset_h, 0)) * ts
        err_start = onset_s - det_start
        err_dur = duration_s - det_dur
        if abs(err_start) <= 0.45 * ts and abs(err_dur) <= 0.45 * ts:
            break
        start += err_start
        span = max(span + err_dur, 4 * ts)
    return span, start


# ---------------------------------------------------------------------------
# sampling helpers


def _draw_trunc(rng: np.random.Generator, mean: float, std: float,
                lo: float = -math.inf, hi: float = math.inf) -> float:
    """Normal draw rejected outside +/-3 sigma and outside (lo, hi)."""
    if std <= 0.0:
        return float(min(max(mean, lo), hi))
    for _ in range(1000):
        x = rng.normal(mean, std)
        if abs(x - mean) <= 3.0 * std and lo < x < hi:
            return float(x)
    return float(min(max(mean, lo), hi))


def generate_trace(
    template: ClassTemplate,
    topology: Topology,
    params: SystemParams,
    seed,
) -> TraceBundle:
    """Generate one deterministic nine-link trace for a vehicle of the class.

    The same (template, seed) pair always yields a bit-identical bundle.  The
    per-link lobes share one profile, shifted by the link crossing position
    divided by the drawn speed, so straight-link onset differences encode the
    speed exactly.  The nine rows are evaluated as one ``(9, n)`` array, and
    their noise is one ``(9, n)`` draw, which takes the same numbers from the
    stream as nine draws of ``n``, row by row.
    """
    rng = np.random.default_rng(seed)
    ts = params.sample_period_ms / 1000.0

    v_kmh = _draw_trunc(rng, template.speed_kmh_mean, template.speed_kmh_std, lo=1.0)
    v_mps = v_kmh * KMH_TO_MPS
    speed_mean_mps = template.speed_kmh_mean * KMH_TO_MPS
    dur_mean = template.length_m_mean / speed_mean_mps
    dur_std = template.length_m_std / speed_mean_mps
    duration_s = _draw_trunc(rng, dur_mean, dur_std, lo=max(6 * ts, MIN_LENGTH_M / v_mps))
    length_m = v_mps * duration_s

    floor = _draw_trunc(rng, template.min_depth_mean, template.min_depth_std, lo=0.30, hi=0.88)
    mean_level = _draw_trunc(
        rng, template.mean_level_mean, template.mean_level_std, lo=floor + 0.05, hi=0.95
    )
    plateau = _plateau_for_mean(mean_level, floor, template.n_lobes)
    if template.n_lobes == 1:
        profile = _LobeProfile(_single_lobe_segments(plateau, floor))
    else:
        profile = _LobeProfile(_double_lobe_segments(plateau, floor, GAP_RECOVERY_LEVEL))

    lead = _LEAD_S + rng.uniform(0.0, ts)  # randomized grid phase
    midpoints = np.array([topology.link_midpoint_m(link) for link in LINK_IDS])
    total_s = lead + midpoints.max() / v_mps + 2.5 * duration_s + _TAIL_S
    n = int(math.ceil(total_s / ts))
    grid = np.arange(n) * ts

    span, start0 = _calibrate_lobe(profile, lead, duration_s, params, grid)

    idle_noise = IDLE_NOISE_DB / abs(DEFAULT_IDLE_DBM)
    # build the streams in the noise array, made before the temporaries: a
    # kept array made after them sits above their freed space and grows the heap
    streams = rng.standard_normal((9, n))
    starts = start0 + midpoints / v_mps
    u = (grid - starts[:, None]) / span
    level = profile(u)
    level[_DIAGONAL_ROWS] = 1.0 - DIAGONAL_DEPTH_SCALE * (1.0 - level[_DIAGONAL_ROWS])
    streams *= np.where((u >= 0.0) & (u <= 1.0), template.noise_std, idle_noise)
    streams += level
    streams *= DEFAULT_IDLE_DBM

    truth = GroundTruth(template.label, v_mps, length_m, +1)
    return TraceBundle(
        rssi_dbm=streams,
        idle_level_dbm=np.full(9, DEFAULT_IDLE_DBM),
        sample_period_ms=params.sample_period_ms,
        truth=truth,
    )


def stream_dataset(
    templates: list[ClassTemplate] | tuple[ClassTemplate, ...],
    counts: dict[str, int] | list[int],
    seed,
    topology: Topology | None = None,
    params: SystemParams | None = None,
) -> Iterator[tuple[TraceBundle, str]]:
    """Yield a labeled corpus one trace at a time, deterministic per seed.

    ``counts`` maps class label to trace count (or lists counts in template
    order).  Trace j of the per-class blocks, laid out in template order, is
    made by its block's template from child seed ``j + 1`` of ``seed`` when it
    is asked for; the order is a permutation drawn from child seed 0, which
    depends only on the total count.  The arguments are checked at the call,
    before any trace is made.
    """
    if not templates:
        raise ValueError("need at least one class template")
    topology = topology or Topology()
    params = params or SystemParams()
    if isinstance(counts, dict):
        count_list = [counts[t.label] for t in templates]
    else:
        count_list = list(counts)
    if len(count_list) != len(templates) or any(c < 1 for c in count_list):
        raise ValueError("need a positive count per template")

    total = sum(count_list)
    children = np.random.SeedSequence(seed).spawn(total + 1)
    order = np.random.default_rng(children[0]).permutation(total).tolist()
    blocks = [t for t, count in zip(templates, count_list) for _ in range(count)]
    return ((generate_trace(blocks[j], topology, params, children[j + 1]), blocks[j].label)
            for j in order)


def generate_dataset(
    templates: list[ClassTemplate] | tuple[ClassTemplate, ...],
    counts: dict[str, int] | list[int],
    seed,
    topology: Topology | None = None,
    params: SystemParams | None = None,
) -> list[tuple[TraceBundle, str]]:
    """The labeled corpus of ``stream_dataset`` as a list.

    It equals the traces made block by block and then shuffled: the shuffle
    comes from child seed 0 alone and each trace from its own child seed, so
    the order in which the traces are made changes none of them.
    """
    return list(stream_dataset(templates, counts, seed, topology, params))


def proportional_counts(total: int, proportions: dict[str, float] | None = None) -> dict[str, int]:
    """Split ``total`` into per-class counts by largest remainder, each >= 1."""
    props = proportions or BODY_STYLE_PROPORTIONS
    if total < len(props):
        raise ValueError(f"a total of {total} cannot give each of {len(props)} classes one trace")
    raw = {label: total * p for label, p in props.items()}
    counts = {label: max(1, int(x)) for label, x in raw.items()}
    remainder = sorted(props, key=lambda lab: raw[lab] - int(raw[lab]), reverse=True)
    idx = 0
    while sum(counts.values()) < total:
        counts[remainder[idx % len(remainder)]] += 1
        idx += 1
    while sum(counts.values()) > total:
        counts[max(counts, key=lambda lab: (counts[lab], lab))] -= 1
    return counts


def invert_direction(trace: TraceBundle) -> TraceBundle:
    """Reverse the link rows (link i becomes link 10 - i), as if the post order were reversed."""
    truth = trace.truth
    if truth is not None:
        truth = replace(truth, direction=-truth.direction)
    return TraceBundle(
        rssi_dbm=trace.rssi_dbm[::-1].copy(),
        idle_level_dbm=trace.idle_level_dbm[::-1].copy(),
        sample_period_ms=trace.sample_period_ms,
        t0_ms=trace.t0_ms,
        truth=truth,
    )


# ---------------------------------------------------------------------------
# file formats


TRACE_HEADER = ["t_ms", "link", "rssi_dbm"]
TRACE_DTYPE = np.dtype([("t_ms", float), ("link", np.int64), ("rssi_dbm", float)])
#: one epoch: the nine rows of one timestamp, links in order
_EPOCH_FORMAT = "".join(f"{{0}},{link},{{{i}}}\r\n" for i, link in enumerate(LINK_IDS, 1))


def write_trace_csv(path: str, trace: TraceBundle) -> None:
    """Write `t_ms,link,rssi_dbm` rows sorted by time then link."""
    period = trace.sample_period_ms
    stamps = [str(trace.t0_ms + k * period) for k in range(trace.rssi_dbm.shape[1])]
    write_numeric_table(path, TRACE_HEADER, _EPOCH_FORMAT,
                        zip(stamps, *trace.rssi_dbm.tolist()))


def read_trace_csv(path: str) -> TraceBundle:
    """Read a trace file; idle levels are estimated from the leading samples.

    Rows must be strictly sorted by ``t_ms`` then link, every timestamp must be
    finite, and the link-1 timestamps must be evenly spaced: a missing epoch
    would otherwise stretch every time difference after it.  Of the rows that
    break the order or name a link outside 1..9, the first in the file is
    reported.
    """
    rows = read_numeric_table(path, TRACE_HEADER, TRACE_DTYPE)
    if len(rows) == 0:
        raise TraceFormatError(f"{path}: empty trace")
    t, link = rows["t_ms"], rows["link"]
    bad_link = (link < 1) | (link > 9)
    # the positive form also rejects nan, which fails every comparison; no
    # link exceeds the one before the first row, so that row needs t > -inf
    in_order = np.empty(len(rows), dtype=bool)
    in_order[0] = t[0] > -math.inf
    in_order[1:] = (t[1:] > t[:-1]) | ((t[1:] == t[:-1]) & (link[1:] > link[:-1]))
    first_bad = np.flatnonzero(bad_link | ~in_order)
    if first_bad.size:
        i = first_bad[0]
        if bad_link[i]:
            raise TraceFormatError(f"{path}: link {int(link[i])} out of range 1..9")
        raise TraceFormatError(f"{path}: rows must be sorted by t_ms then link")
    lengths = np.bincount(link - 1, minlength=9)
    if lengths.min() != lengths.max():
        raise TraceFormatError(f"{path}: unequal stream lengths {sorted(set(lengths.tolist()))}")
    if not math.isfinite(t[-1]):  # rows rise strictly, so only the last can be +inf
        raise TraceFormatError(f"{path}: t_ms must be finite")
    # a stable sort by link keeps each stream in file order
    streams = rows["rssi_dbm"][np.argsort(link, kind="stable")].reshape(9, -1)
    if not (np.isfinite(streams).all() and (streams < 0).all()):
        raise TraceFormatError(f"{path}: rssi_dbm must be finite negative dBm")
    times = t[link == 1]
    if len(times) >= 2:
        period = float(times[1] - times[0])
        if np.abs(np.diff(times) - period).max() > 1e-6 * period:
            raise TraceFormatError(f"{path}: link-1 timestamps must be evenly spaced")
    else:
        period = SystemParams().sample_period_ms
    head = streams[:, : min(25, streams.shape[1])]
    idle = head.mean(axis=1)
    return TraceBundle(
        rssi_dbm=streams,
        idle_level_dbm=idle,
        sample_period_ms=period,
        t0_ms=float(times[0]),
    )


LABELS_HEADER = ["trace_file", "label", "speed_mps", "length_m", "direction"]


def write_labels_csv(path: str, rows: list[tuple[str, str, float, float, int]]) -> None:
    write_table(path, LABELS_HEADER, rows)


def read_labels_csv(path: str) -> list[tuple[str, str, float, float, int]]:
    rows = []
    for row in read_table(path, LABELS_HEADER):
        try:
            rows.append((row[0], row[1], float(row[2]), float(row[3]), int(row[4])))
        except ValueError:
            raise TraceFormatError(f"{path}: malformed row {row!r}") from None
    return rows
