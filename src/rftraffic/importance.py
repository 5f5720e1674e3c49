"""Feature-group importance for linear SVM models.

Every weight splits into a sign, pointing at one of the classes the pairwise
decision separates, and a magnitude.  Summing magnitudes per feature group and
per pointed-at class, normalized by the group's total magnitude, yields a
per-group distribution over classes: ``sum_y I(j, y) = 1``.  Meaningful only
for models trained on data scaled into [-1, 1]; the bias weight belongs to no
group and is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import feature_groups
from .learn import SvmEnsemble
from .tables import write_table


@dataclass(frozen=True)
class ImportanceMatrix:
    groups: tuple[str, ...]
    classes: tuple[str, ...]
    values: np.ndarray  # (n_groups, n_classes), rows sum to 1
    degenerate: tuple[str, ...] = ()  # groups with zero weight mass, reported uniform

    def row(self, group: str) -> np.ndarray:
        return self.values[self.groups.index(group)]


def _group_slices(group_of_feature: list[str]) -> list[tuple[str, np.ndarray]]:
    order: list[str] = []
    for g in group_of_feature:
        if g not in order:
            order.append(g)
    tags = np.array(group_of_feature)
    return [(g, np.flatnonzero(tags == g)) for g in order]


def importance_multiclass(
    ensemble: SvmEnsemble,
    group_of_feature: list[str] | None = None,
) -> ImportanceMatrix:
    """Group importance aggregated over all pairwise SVMs of the ensemble.

    Each weight's magnitude is credited to the class its sign votes for via
    the pair-to-class mapping; normalization is per group over all pairs.
    """
    groups = group_of_feature if group_of_feature is not None else feature_groups()
    if ensemble.weights.shape[1] - 1 != len(groups):  # bias carries no group
        raise ValueError("group tags must cover exactly the non-bias weights")
    n_classes = ensemble.n_classes
    slices = _group_slices(groups)
    values = np.zeros((len(slices), n_classes))
    degenerate = []
    for row, (name, idx) in enumerate(slices):
        mass = np.zeros(n_classes)
        z = 0.0
        for beta, (neg, pos) in zip(ensemble.weights, ensemble.pairs.tolist()):
            w = beta[idx]
            absw = np.abs(w)
            z += absw.sum()
            mass[neg] += absw[w < 0].sum()
            mass[pos] += absw[w > 0].sum()
        if z == 0.0:
            values[row] = 1.0 / n_classes
            degenerate.append(name)
            continue
        values[row] = mass / z
    return ImportanceMatrix(
        groups=tuple(name for name, _ in slices),
        classes=tuple(ensemble.classes),
        values=values,
        degenerate=tuple(degenerate),
    )


def write_importance_csv(path: str, matrix: ImportanceMatrix) -> None:
    """`group,class,importance` rows ready for stacked-bar plotting."""
    write_table(path, ["group", "class", "importance"], (
        [group, klass, value]
        for group, row in zip(matrix.groups, matrix.values.tolist())
        for klass, value in zip(matrix.classes, row)
    ))
