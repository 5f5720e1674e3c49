"""Deployment geometry, link identifiers, system parameters and class taxonomies.

The sensing installation consists of three transmitter posts facing three
receiver posts across a single lane.  Every transmitter/receiver pairing is a
radio link, giving nine links in total.  Links connecting directly opposed
posts (1, 5, 9) are "straight"; the remaining six cross the lane diagonally.

The geometry is fixed, its links and their numbering are module constants,
and the post spacing is its one setting (``Topology``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

LINK_IDS: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9)
STRAIGHT_LINKS: tuple[int, ...] = (1, 5, 9)

#: Link numbering is row-major over (tx index, rx index) node pairs, which
#: makes links 1, 5, 9 the straight ones and 3, 7 the longest diagonals.
LINK_NODE_MAP: dict[int, tuple[int, int]] = {
    1 + 3 * tx + rx: (tx, rx) for tx in range(3) for rx in range(3)
}


class ConfigError(ValueError):
    """Raised for invalid or unknown configuration input."""


@dataclass(frozen=True)
class Topology:
    """The fixed post geometry, scaled by the one spacing a site may set.

    Transmitter post i and receiver post i both stand ``i`` spacings along the
    lane, and ``LINK_NODE_MAP`` names each link's (transmitter, receiver) pair.
    """

    longitudinal_spacing_m: float = 5.0

    def __post_init__(self):
        if self.longitudinal_spacing_m <= 0:
            raise ConfigError("longitudinal spacing must be positive")
        if not math.isfinite(self.longitudinal_spacing_m):
            raise ConfigError(f"longitudinal_spacing_m must be finite, got {self.longitudinal_spacing_m}")

    def link_midpoint_m(self, link: int) -> float:
        """Longitudinal coordinate of the point where a link crosses the lane."""
        tx, rx = LINK_NODE_MAP[link]
        s = self.longitudinal_spacing_m
        return 0.5 * (tx * s + rx * s)


def link_distance(topology: Topology, i: int, j: int) -> float:
    """Longitudinal distance between the transmitter posts of two straight links.

    Defined only for straight links; the speed estimator relies on these
    distances.  Symmetric, and zero for i == j.
    """
    for link in (i, j):
        if link not in STRAIGHT_LINKS:
            raise ValueError(
                f"link {link} is diagonal; distance is only defined between straight links"
            )
    s = topology.longitudinal_spacing_m
    return abs(LINK_NODE_MAP[i][0] * s - LINK_NODE_MAP[j][0] * s)


@dataclass(frozen=True)
class SystemParams:
    """Sampling and detector thresholds of the deployed system."""

    sample_period_ms: float = 8.0
    filter_size_n: int = 10
    guard_w: int = 10
    start_offset_h: int = 5
    theta_start: float = 0.92
    theta_end: float = 0.975
    theta_guard: float = 0.95

    def __post_init__(self):
        if not (0.0 < self.theta_start < self.theta_guard < self.theta_end < 1.0):
            raise ConfigError("thresholds must satisfy 0 < start < guard < end < 1")
        if self.filter_size_n < 1 or self.guard_w < 1 or self.start_offset_h < 0:
            raise ConfigError("filter size and guard must be >= 1, start offset >= 0")
        if self.sample_period_ms <= 0:
            raise ConfigError("sample period must be positive")
        if not math.isfinite(self.sample_period_ms):
            raise ConfigError(f"sample_period_ms must be finite, got {self.sample_period_ms}")


BINARY_CLASSES = ("car-like", "truck-like")
SIZE_CLASSES = ("small", "mid-size", "large")
BODY_STYLE_CLASSES = (
    "passenger car",
    "passenger car with trailer",
    "van",
    "truck",
    "truck with trailer",
    "semitruck",
    "bus",
)

_TO_BINARY = {
    "passenger car": "car-like",
    "passenger car with trailer": "car-like",
    "van": "car-like",
    "truck": "truck-like",
    "truck with trailer": "truck-like",
    "semitruck": "truck-like",
    "bus": "truck-like",
}
_TO_SIZE = {
    "passenger car": "small",
    "passenger car with trailer": "mid-size",
    "van": "mid-size",
    "truck": "large",
    "truck with trailer": "large",
    "semitruck": "large",
    "bus": "large",
}


@dataclass(frozen=True)
class Taxonomy:
    """A class scheme together with its ordered label list."""

    name: str
    classes: tuple[str, ...]

    def index(self, label: str) -> int:
        try:
            return self.classes.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} not in taxonomy {self.name!r}") from None

    def encode(self, labels) -> np.ndarray:
        """Class indices of dataset labels, coarsened onto this taxonomy."""
        mapped = labels_for_taxonomy(list(labels), self)
        return np.array([self.index(lab) for lab in mapped], dtype=int)


BINARY = Taxonomy("binary", BINARY_CLASSES)
SIZE_BASED = Taxonomy("size_based", SIZE_CLASSES)
BODY_STYLE = Taxonomy("body_style", BODY_STYLE_CLASSES)

TAXONOMIES: dict[str, Taxonomy] = {t.name: t for t in (BINARY, SIZE_BASED, BODY_STYLE)}


def get_taxonomy(name: str) -> Taxonomy:
    try:
        return TAXONOMIES[name]
    except KeyError:
        raise ConfigError(f"unknown taxonomy {name!r}") from None


#: body-style label to coarser label, per taxonomy name
_COARSENING = {"binary": _TO_BINARY, "size_based": _TO_SIZE}


def labels_for_taxonomy(labels: list[str], taxonomy: Taxonomy) -> list[str]:
    """Translate dataset labels into `taxonomy`, coarsening body-style labels."""
    coarsen = _COARSENING.get(taxonomy.name, {})
    out = []
    for lab in labels:
        if lab in taxonomy.classes:
            out.append(lab)
        elif lab in coarsen:
            out.append(coarsen[lab])
        else:
            raise KeyError(f"label {lab!r} cannot be mapped onto taxonomy {taxonomy.name!r}")
    return out


def load_system_config(path: str) -> tuple[Topology, SystemParams]:
    """Read a `key = value` configuration file; unknown and repeated keys are rejected.

    The keys are the ``Topology`` and ``SystemParams`` fields, each parsed as
    the type of its default.  Omitted keys keep those defaults, so an empty
    file yields the default Topology/SystemParams pair.
    """
    owners = {f.name: (cls, type(f.default)) for cls in (Topology, SystemParams)
              for f in fields(cls)}
    values: dict[type, dict[str, float | int]] = {Topology: {}, SystemParams: {}}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in owners:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first_line:
                raise ConfigError(f"{path}:{lineno}: key {key!r} is already set "
                                  f"on line {first_line[key]}")
            first_line[key] = lineno
            cls, kind = owners[key]
            try:
                values[cls][key] = kind(val.strip())
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: invalid value for {key!r}: {val.strip()!r}")
    return Topology(**values[Topology]), SystemParams(**values[SystemParams])
