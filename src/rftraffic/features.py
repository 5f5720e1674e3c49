"""The 92-dimensional fingerprint descriptor and its train-split scaling.

Layout: two global features (speed in km/h, length in m) followed by one
ten-wide block per link: attenuation duration in seconds, minimum, mean and
population standard deviation of the filtered level during the phase, plus a
normalized six-bin histogram of those levels.  Links without a detected phase
contribute an all-zero block so the dimensionality never varies.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .detect import FilteredSeries, VehicleObservation, process_bundle
from .simulate import TraceBundle
from .tables import TraceFormatError, read_table, write_table
from .topology import LINK_IDS, SystemParams, Topology

N_FEATURES = 92
GLOBAL_GROUP = "G"

#: fixed histogram support in normalized level units, in equal-width bins
N_HIST_BINS = 6
HIST_EDGES = np.linspace(0.5, 1.1, N_HIST_BINS + 1)

_BLOCK_FIELDS = ("tau", "min", "mean", "std", "hist1", "hist2", "hist3", "hist4", "hist5", "hist6")


def feature_names() -> list[str]:
    names = ["v_kmh", "l_m"]
    for link in LINK_IDS:
        names.extend(f"phi{link}_{field}" for field in _BLOCK_FIELDS)
    return names


FEATURES_HEADER = ["label"] + feature_names()


def feature_groups() -> list[str]:
    """Group tag per feature index: 'G' for globals, 'phi<j>' per link block."""
    groups = [GLOBAL_GROUP, GLOBAL_GROUP]
    for link in LINK_IDS:
        groups.extend([f"phi{link}"] * len(_BLOCK_FIELDS))
    return groups


def link_block_slice(link: int) -> slice:
    base = 2 + 10 * (link - 1)
    return slice(base, base + 10)


@dataclass(frozen=True)
class FeatureVector:
    """Feature values plus flags for parts that had to be zero-filled."""

    values: np.ndarray
    missing_links: tuple[int, ...] = ()
    globals_missing: bool = False

    def __post_init__(self):
        if self.values.shape != (N_FEATURES,):
            raise ValueError(f"feature vector must have {N_FEATURES} entries")


def segments_for_observation(
    obs: VehicleObservation, filtered: dict[int, FilteredSeries]
) -> dict[int, np.ndarray]:
    """Filtered values inside each detected phase of the observation."""
    segments: dict[int, np.ndarray] = {}
    for link, event in obs.events.items():
        series = filtered[link]
        i0 = int(round((event.t_start_ms - series.t0_ms) / series.sample_period_ms))
        i1 = int(round((event.t_end_ms - series.t0_ms) / series.sample_period_ms))
        segments[link] = series.values[max(i0, 0): i1 + 1]
    return segments


def extract_features(
    obs: VehicleObservation, segments: dict[int, np.ndarray]
) -> FeatureVector:
    """Build the 92-entry descriptor for one vehicle observation."""
    values = np.zeros(N_FEATURES)
    globals_missing = obs.v_mps is None or obs.l_m is None
    if obs.v_mps is not None:
        values[0] = abs(obs.v_mps) * 3.6
    if obs.l_m is not None:
        values[1] = obs.l_m
    missing = []
    for link in LINK_IDS:
        event = obs.events.get(link)
        segment = segments.get(link)
        if event is None or segment is None or len(segment) == 0:
            missing.append(link)
            continue
        block = values[link_block_slice(link)]
        block[0] = event.duration_ms / 1000.0
        block[1] = float(segment.min())
        block[2] = float(segment.mean())
        block[3] = float(segment.std())  # population convention
        hist, _ = np.histogram(np.clip(segment, HIST_EDGES[0], HIST_EDGES[-1]), bins=HIST_EDGES)
        block[4:] = hist / len(segment)
    return FeatureVector(values, tuple(missing), globals_missing)


def featurize_bundle(
    bundle: TraceBundle, topology: Topology, params: SystemParams
) -> list[FeatureVector]:
    """Detection chain plus feature extraction; one vector per observed vehicle."""
    observations, filtered = process_bundle(bundle, topology, params)
    out = []
    for obs in observations:
        segments = segments_for_observation(obs, filtered)
        out.append(extract_features(obs, segments))
    return out


def dataset_features(
    dataset: Iterable[tuple[TraceBundle, str]],
    topology: Topology | None = None,
    params: SystemParams | None = None,
) -> tuple[np.ndarray, list[str]]:
    """Feature matrix and labels for a labeled corpus (one vehicle per trace).

    The corpus is read once, in order, so it may be a stream.
    """
    topology = topology or Topology()
    params = params or SystemParams()
    rows = []
    labels = []
    for bundle, label in dataset:
        vecs = featurize_bundle(bundle, topology, params)
        for vec in vecs:
            rows.append(vec.values)
            labels.append(label)
    if not rows:
        return np.empty((0, N_FEATURES)), []
    return np.vstack(rows), labels


@dataclass(frozen=True)
class ScalingTransform:
    """Per-dimension min-max map onto [-1, 1], learned on training data only."""

    lo: np.ndarray
    hi: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        span = self.hi - self.lo
        safe = np.where(span > 0, span, 1.0)
        with np.errstate(over="ignore"):  # huge ratios are clamped right below
            scaled = 2.0 * (x - self.lo) / safe - 1.0
        scaled = np.where(span > 0, scaled, 0.0)
        return np.clip(scaled, -1.0, 1.0)


def fit_scaling(train: np.ndarray) -> ScalingTransform:
    train = np.asarray(train, dtype=float)
    if train.ndim == 1:
        train = train[None, :]
    if train.shape[0] == 0:
        raise ValueError("cannot fit scaling on an empty training set")
    return ScalingTransform(lo=train.min(axis=0), hi=train.max(axis=0))


def write_features_csv(path: str, features: np.ndarray, labels: list[str]) -> None:
    rows = np.asarray(features, dtype=float).tolist()
    write_table(path, FEATURES_HEADER, ([label] + row for label, row in zip(labels, rows)))


def read_features_csv(path: str) -> tuple[np.ndarray, list[str]]:
    labels = []
    rows = []
    for line, row in enumerate(read_table(path, FEATURES_HEADER), start=2):
        labels.append(row[0])
        try:
            rows.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise TraceFormatError(f"{path}: line {line}: {exc}") from None
    matrix = np.array(rows) if rows else np.empty((0, N_FEATURES))
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        line = 2 + int(np.argmin(finite))
        raise TraceFormatError(f"{path}: line {line}: feature values must be finite")
    return matrix, labels
