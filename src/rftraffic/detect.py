"""Attenuation-phase detection and per-vehicle speed/length/direction estimation.

A bundle's nine raw RSSI streams stay one ``(9, n)`` array throughout: row i
holds link i + 1.  Each row is normalized to its link's idle level and smoothed
with a moving average.  A two-state machine then segments each filtered row
into attenuation phases: the phase starts once the value at lag ``w`` undercuts
the start threshold (backdated by ``h`` samples to include the turning point),
and ends once the value at lag ``w`` exceeds the end threshold while the mean of
the most recent ``w`` values clears the guard threshold.  The delayed, guarded
release keeps multi-dip fingerprints (vehicles towing trailers) in a single
phase.  The threshold masks are built for all rows at once; only the walk over
the phases is per link.

Phases from all nine links are associated into per-vehicle observations by
temporal overlap, and the straight links (1, 5, 9) yield the signed speed --
negative for wrong-way drivers -- and the length estimate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .simulate import TraceBundle
from .tables import write_table
from .topology import STRAIGHT_LINKS, SystemParams, Topology, link_distance


@dataclass(frozen=True)
class FilteredSeries:
    """Idle-normalized, moving-average filtered samples; row i holds link i + 1."""

    values: np.ndarray  # shape (links, n)
    t0_ms: float
    sample_period_ms: float


@dataclass(frozen=True)
class AttenuationEvent:
    """One detected attenuation phase on one link; the observation holding it is its vehicle."""

    link: int
    t_start_ms: float
    t_end_ms: float
    min_level: float

    def __post_init__(self):
        if not self.t_end_ms > self.t_start_ms:
            raise ValueError("attenuation phase must have positive duration")

    @property
    def duration_ms(self) -> float:
        return self.t_end_ms - self.t_start_ms


@dataclass
class VehicleObservation:
    """All per-link phases attributed to one vehicle plus derived estimates."""

    vehicle_id: int
    events: dict[int, AttenuationEvent]
    v_mps: float | None = None
    l_m: float | None = None

    @property
    def direction(self) -> str | None:
        """Derived from the speed's sign: "wrong_way" below zero, else "forward"."""
        return None if self.v_mps is None else ("wrong_way" if self.v_mps < 0 else "forward")


def filter_bundle(bundle: TraceBundle, params: SystemParams) -> FilteredSeries:
    """Divide each stream by its idle level and apply the moving average.

    The first ``filter_size_n - 1`` outputs of a row use a growing window over
    the samples available so far, keeping output timestamps aligned with input.
    Each row's running sum is the sequential one of that row alone.  An empty
    bundle yields empty rows.
    """
    normalized = bundle.rssi_dbm / bundle.idle_level_dbm[:, None]
    length = normalized.shape[1]
    csum = np.cumsum(normalized, axis=1)
    n = params.filter_size_n
    out = np.empty_like(normalized)
    head = min(n, length)
    out[:, :head] = csum[:, :head] / np.arange(1, head + 1)
    if length > n:
        out[:, n:] = (csum[:, n:] - csum[:, :-n]) / n
    return FilteredSeries(out, bundle.t0_ms, bundle.sample_period_ms)


def detect_events(series: FilteredSeries, params: SystemParams) -> list[AttenuationEvent]:
    """Run the two-state attenuation machine over every row of a filtered series.

    Row i's phases belong to link i + 1; the list holds them link by link, and
    each link's phases are disjoint and time ordered.  A phase that has not
    been released by the end of the series is discarded (the decision needs
    ``w`` trailing samples).
    """
    v = series.values
    n = v.shape[1]
    w = params.guard_w
    h = params.start_offset_h
    if n < w + h:
        warnings.warn(f"series of {n} samples is shorter than guard+offset; no detection")
        return []

    start_ok = v < params.theta_start
    start_ok[:, n - w:] = False  # start decision needs w trailing samples
    csum = np.cumsum(v, axis=1)
    guard_mean = np.full(v.shape, -np.inf)
    # mean of v[j+1 .. j+w] for j with a full guard window
    guard_mean[:, : n - w] = (csum[:, w:] - csum[:, : n - w]) / w
    end_ok = (v > params.theta_end) & (guard_mean >= params.theta_guard)

    events: list[AttenuationEvent] = []
    for row, values in enumerate(v):
        start_idx = np.flatnonzero(start_ok[row])
        end_idx = np.flatnonzero(end_ok[row])
        pos = 0
        while True:
            si = np.searchsorted(start_idx, pos)
            if si >= len(start_idx):
                break
            j_start = int(start_idx[si])
            ei = np.searchsorted(end_idx, j_start + 1)
            if ei >= len(end_idx):
                break
            j_end = int(end_idx[ei])
            back = max(j_start - h, pos)
            events.append(
                AttenuationEvent(
                    link=row + 1,
                    t_start_ms=series.t0_ms + back * series.sample_period_ms,
                    t_end_ms=series.t0_ms + j_end * series.sample_period_ms,
                    min_level=float(values[back: j_end + 1].min()),
                )
            )
            pos = j_end + 1
    return events


def associate_vehicles(
    events: list[AttenuationEvent], guard_ms: float
) -> list[VehicleObservation]:
    """Group phases into vehicles by overlap of guard-padded intervals.

    Phases are swept in start order; a phase joins the open group when its
    padded interval intersects the group's padded span, otherwise it opens the
    next vehicle.  Ids are dense integers from zero.  If one link contributes
    several phases to a group, the earliest is kept.
    """
    ordered = sorted(events, key=lambda e: (e.t_start_ms, e.link))
    observations: list[VehicleObservation] = []
    group_end = None
    current: dict[int, AttenuationEvent] = {}
    for event in ordered:
        if group_end is not None and event.t_start_ms - guard_ms <= group_end + guard_ms:
            group_end = max(group_end, event.t_end_ms)
            current.setdefault(event.link, event)
        else:
            if current:
                observations.append(VehicleObservation(len(observations), current))
            current = {event.link: event}
            group_end = event.t_end_ms
    if current:
        observations.append(VehicleObservation(len(observations), current))
    return observations


def estimate_speed(
    obs: VehicleObservation,
    topology: Topology,
    sample_period_ms: float,
) -> float | None:
    """Signed average speed from straight-link onset differences, in m/s.

    None when a straight link is missing or an onset difference is below one
    sample period.  With mixed onset orderings the majority sign wins and the
    speed is the mean of the majority's terms.
    """
    if any(link not in obs.events for link in STRAIGHT_LINKS):
        return None
    starts = {link: obs.events[link].t_start_ms for link in STRAIGHT_LINKS}
    terms = []
    for i, j in ((1, 5), (1, 9), (5, 9)):
        dt_ms = starts[j] - starts[i]
        if abs(dt_ms) < sample_period_ms:
            return None
        terms.append(link_distance(topology, i, j) / (dt_ms / 1000.0))
    positive = sum(1 for t in terms if t > 0)
    if positive in (0, 3):
        return float(np.mean(terms))
    majority = [t for t in terms if (t > 0) == (positive >= 2)]
    return float(np.mean(majority))


def estimate_length(obs: VehicleObservation, v_mps: float | None) -> float | None:
    """Length estimate |v|/3 * (tau_1 + tau_5 + tau_9); None when unavailable."""
    if v_mps is None or v_mps == 0:
        return None
    if any(link not in obs.events for link in STRAIGHT_LINKS):
        return None
    tau_s = sum(obs.events[link].duration_ms for link in STRAIGHT_LINKS) / 1000.0
    return abs(v_mps) / 3.0 * tau_s


def process_bundle(
    bundle: TraceBundle,
    topology: Topology,
    params: SystemParams,
) -> tuple[list[VehicleObservation], FilteredSeries]:
    """Full detection chain: filter, segment, associate, estimate.

    Returns the observations, each with its signed speed and its length (None
    where ``estimate_speed`` or ``estimate_length`` gives none), and the one
    filtered series of the bundle, whose row i holds link i + 1.
    """
    filtered = filter_bundle(bundle, params)
    guard_ms = params.guard_w * params.sample_period_ms
    observations = associate_vehicles(detect_events(filtered, params), guard_ms=guard_ms)
    for obs in observations:
        obs.v_mps = estimate_speed(obs, topology, params.sample_period_ms)
        obs.l_m = estimate_length(obs, obs.v_mps)
    return observations, filtered


EVENTS_HEADER = ["vehicle_id", "link", "t_start_ms", "t_end_ms", "min_level"]
OBSERVATIONS_HEADER = ["vehicle_id", "v_mps", "l_m", "direction"]


def write_events_csv(path: str, observations: list[VehicleObservation]) -> None:
    write_table(path, EVENTS_HEADER, (
        [obs.vehicle_id, link, ev.t_start_ms, ev.t_end_ms, ev.min_level]
        for obs in observations
        for link, ev in sorted(obs.events.items())
    ))


def write_observations_csv(path: str, observations: list[VehicleObservation]) -> None:
    write_table(path, OBSERVATIONS_HEADER, (
        [obs.vehicle_id, obs.v_mps, obs.l_m, obs.direction] for obs in observations
    ))

