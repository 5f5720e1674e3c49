"""k-fold evaluation harness, quality measures and the link-subset study.

Accuracy is the exact-match fraction; the k-fold summary reports the mean of
the per-fold accuracies and their population standard deviation, taken in two
passes as ``sqrt(mean((acc - mean(acc))^2))``.  Folds are stratified by class
with a seeded shuffle and a rotating remainder offset, so fold sizes never
differ by more than one sample while class proportions stay balanced.  One FoldPlan can
be shared across model kinds and across all link subsets for fair comparison.

Each fold is scaled once on all 92 columns and every link subset is a column
selection of it.  The SVMs of every fold, class pair and subset are one
lockstep Pegasos run over the folds' training splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import N_FEATURES, ScalingTransform, fit_scaling, link_block_slice
from .learn import (
    ZERO_COLUMN,
    RandomForest,
    SvmEnsemble,
    train_random_forest,
    train_svm_ensemble,
    train_svm_ensembles,
)
from .tables import write_table
from .topology import STRAIGHT_LINKS, Taxonomy


@dataclass(frozen=True)
class FoldPlan:
    """Partition of a dataset into k folds (disjoint, exhaustive, balanced)."""

    k: int
    assignments: np.ndarray

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)

    def test_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)


def build_fold_plan(y_idx: np.ndarray, k: int, seed) -> FoldPlan:
    """Stratified fold assignment with globally balanced fold sizes."""
    y_idx = np.asarray(y_idx, dtype=int)
    n = len(y_idx)
    if k < 2 or k > n:
        raise ValueError(f"fold count {k} must be in [2, {n}]")
    rng = np.random.default_rng(seed)
    assignments = np.empty(n, dtype=int)
    offset = 0
    for klass in np.unique(y_idx):
        rows = np.flatnonzero(y_idx == klass)
        rows = rng.permutation(rows)
        assignments[rows] = (offset + np.arange(len(rows))) % k
        offset = (offset + len(rows)) % k
    return FoldPlan(k=k, assignments=assignments)


def accuracy(predictions, labels) -> float:
    """Exact-match fraction over paired predictions and reference labels."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must have equal length")
    if not labels:
        raise ValueError("accuracy of an empty set is undefined")
    hits = sum(1 for p, t in zip(predictions, labels) if p == t)
    return hits / len(labels)


#: the model families a ModelSpec may name
MODEL_KINDS = ("svm", "rf")


@dataclass(frozen=True)
class ModelSpec:
    """Training recipe shared by the harness, the subset study and the CLI."""

    kind: str  # one of MODEL_KINDS
    c: float = 1.0
    epochs: int = 50
    n_trees: int = 100
    max_depth: int = 10

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"C must be finite and positive, got {self.c}")
        for name in ("epochs", "n_trees"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be at least 0, got {self.max_depth}")

    def describe(self) -> str:
        # no commas: the descriptor lands in CSV columns
        if self.kind == "svm":
            return f"svm(C={self.c:g} epochs={self.epochs})"
        return f"rf(trees={self.n_trees} depth={self.max_depth})"


def train_model(x_scaled: np.ndarray, y_idx: np.ndarray, classes: tuple[str, ...],
                spec: ModelSpec, seed) -> SvmEnsemble | RandomForest:
    if spec.kind == "svm":
        return train_svm_ensemble(
            x_scaled, y_idx, classes,
            c=spec.c, epochs=spec.epochs, seed=seed,
        )
    return train_random_forest(
        x_scaled, y_idx, classes,
        n_trees=spec.n_trees, max_depth=spec.max_depth, seed=seed,
    )


@dataclass(frozen=True)
class ScaledFold:
    """One fold's splits, scaled by the training split, and its model seed.

    The scaled splits are computed each time they are read, so a list of all
    folds holds no copy of the data.
    """

    index: int
    x: np.ndarray
    train_rows: np.ndarray
    test_rows: np.ndarray
    scaling: ScalingTransform
    y_train: np.ndarray
    y_test: np.ndarray
    model_seed: np.random.SeedSequence

    @property
    def x_train(self) -> np.ndarray:
        return self.scaling.apply(self.x[self.train_rows])

    @property
    def x_test(self) -> np.ndarray:
        return self.scaling.apply(self.x[self.test_rows])


def scaled_folds(x: np.ndarray, y_idx: np.ndarray, fold_plan: FoldPlan, seed):
    """Yield every fold of the plan with scaling fitted on its training split.

    Fold ``i`` trains its model from child ``i`` of ``SeedSequence([seed, 0x5EED])``,
    so the same seed and plan give every caller the same per-fold models.
    """
    model_seeds = np.random.SeedSequence([int(seed), 0x5EED]).spawn(fold_plan.k)
    for fold in range(fold_plan.k):
        train_rows = fold_plan.train_rows(fold)
        test_rows = fold_plan.test_rows(fold)
        yield ScaledFold(
            index=fold, x=x, train_rows=train_rows, test_rows=test_rows,
            scaling=fit_scaling(x[train_rows]), y_train=y_idx[train_rows],
            y_test=y_idx[test_rows], model_seed=model_seeds[fold],
        )


@dataclass
class EvaluationReport:
    taxonomy: str
    model: str
    fold_accuracies: np.ndarray
    acc_mean: float
    acc_std: float
    confusion: np.ndarray  # row-normalized, pooled over folds


def fold_summary(fold_accuracies: np.ndarray) -> tuple[float, float]:
    """Mean and two-pass population std of the fold accuracies; 0 where all agree."""
    return float(fold_accuracies.mean()), float(fold_accuracies.std())


def cross_validate(
    x: np.ndarray,
    labels: list[str],
    taxonomy: Taxonomy,
    model_spec: ModelSpec,
    k: int = 10,
    seed: int = 0,
    fold_plan: FoldPlan | None = None,
) -> EvaluationReport:
    """Fit scaling and model per fold on the training split, score the test split."""
    return _cross_validate_views(x, labels, taxonomy, model_spec, [np.arange(np.shape(x)[1])],
                                 k, seed, fold_plan)[0]


def _column_view(x: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The columns of ``x`` a view reads, ``ZERO_COLUMN`` as 0.0; ``x`` itself
    for every column in order."""
    if np.array_equal(columns, np.arange(x.shape[1])):
        return x
    view = x[:, columns]
    view[:, columns == ZERO_COLUMN] = 0.0
    return view


def _fold_models(folds: list[ScaledFold], views, classes: tuple[str, ...], spec: ModelSpec):
    """For each fold, one model per view.

    The SVMs of every fold, class pair and view train in one lockstep run,
    each view a column selection of its fold's training split, which is
    scaled as the run reads it; forests train one fold at a time, as the
    folds are iterated.
    """
    if spec.kind == "svm":
        return train_svm_ensembles((fold.x_train for fold in folds),
                                   [(fold.y_train, fold.model_seed) for fold in folds],
                                   classes, c=spec.c, epochs=spec.epochs, views=views)
    return ([train_model(_column_view(fold.x_train, view), fold.y_train, classes, spec,
                         fold.model_seed) for view in views] for fold in folds)


def _cross_validate_views(x, labels, taxonomy, model_spec, views, k, seed,
                          fold_plan) -> list[EvaluationReport]:
    """Cross-validate the model on column views of ``x``.

    A view is the array of columns it reads, ``ZERO_COLUMN`` where the
    speed/length pair is blanked.  Every fold is scaled once on all columns and
    each view selects from it; scaling works column by column and a zero column
    scales to exactly 0.0, so a view scores as if it had been cut and blanked
    before scaling.  All views train together (``_fold_models``) and are
    scored fold by fold.  Reports come back in view order.
    """
    x = np.asarray(x, dtype=float)
    y_idx = taxonomy.encode(labels)
    if fold_plan is None:
        fold_plan = build_fold_plan(y_idx, k, seed)
    y_classes = len(taxonomy.classes)
    counts = np.zeros((len(views), y_classes, y_classes))
    fold_acc = np.empty((len(views), fold_plan.k))
    folds = list(scaled_folds(x, y_idx, fold_plan, seed))
    for fold, models in zip(folds, _fold_models(folds, views, taxonomy.classes, model_spec)):
        x_test = fold.x_test  # a property that scales on every read
        for i, model in enumerate(models):
            pred = np.atleast_1d(model.predict(_column_view(x_test, views[i])))
            fold_acc[i, fold.index] = accuracy(pred, fold.y_test)
            np.add.at(counts[i], (fold.y_test, pred), 1)
    sums = counts.sum(axis=2, keepdims=True)
    confusion = np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)
    return [EvaluationReport(taxonomy.name, model_spec.describe(), acc, *fold_summary(acc), matrix)
            for acc, matrix in zip(fold_acc, confusion)]


# ---------------------------------------------------------------------------
# link subsets


@dataclass(frozen=True)
class SubsetSpec:
    id: str
    links: tuple[int, ...]

    def __post_init__(self):
        if not self.links:
            raise ValueError("a subset must contain at least one link")


BUILTIN_SUBSETS: tuple[SubsetSpec, ...] = (
    SubsetSpec("A", (1, 2, 3, 4, 5, 6, 7, 8, 9)),
    SubsetSpec("B", (1,)),
    SubsetSpec("C", (5,)),
    SubsetSpec("D", (9,)),
    SubsetSpec("E", (1, 5)),
    SubsetSpec("F", (1, 9)),
    SubsetSpec("G", (5, 9)),
    SubsetSpec("H", (1, 5, 9)),
    SubsetSpec("I", (2,)),
    SubsetSpec("J", (4,)),
    SubsetSpec("K", (6,)),
    SubsetSpec("L", (8,)),
    SubsetSpec("M", (1, 2, 4, 5)),
    SubsetSpec("N", (5, 6, 8, 9)),
    SubsetSpec("O", (2, 4, 6, 8)),
    SubsetSpec("P", (1, 2, 4, 6, 8, 9)),
    SubsetSpec("Q", (3,)),
    SubsetSpec("R", (7,)),
    SubsetSpec("S", (3, 7)),
    SubsetSpec("T", (1, 3, 7, 9)),
)


def subset_by_id(subset_id: str) -> SubsetSpec:
    for spec in BUILTIN_SUBSETS:
        if spec.id == subset_id:
            return spec
    raise KeyError(f"unknown subset id {subset_id!r}")


def subset_columns(spec: SubsetSpec) -> np.ndarray:
    """The columns a subset reads, in order, with ``ZERO_COLUMN`` for a blanked global pair.

    Speed and length need onset differences of at least two straight links, so
    subsets with fewer keep the two global columns only as zeros.
    """
    mask = np.zeros(N_FEATURES, dtype=bool)
    mask[0:2] = True
    for link in spec.links:
        mask[link_block_slice(link)] = True
    columns = np.flatnonzero(mask)
    if len(set(spec.links) & set(STRAIGHT_LINKS)) < 2:
        columns[0:2] = ZERO_COLUMN
    return columns


def subset_evaluation(
    x: np.ndarray,
    labels: list[str],
    taxonomy: Taxonomy,
    model_spec: ModelSpec,
    specs: list[SubsetSpec] | tuple[SubsetSpec, ...] = BUILTIN_SUBSETS,
    k: int = 10,
    seed: int = 0,
    fold_plan: FoldPlan | None = None,
) -> list[tuple[SubsetSpec, EvaluationReport]]:
    """Cross-validate every link subset on one fold plan, in spec order.

    Each fold is scaled once and every subset (2 + 10 columns per link) is a
    column selection of it: with SVMs, every fold, class pair and subset is
    one lockstep Pegasos run.
    """
    if not specs:
        raise ValueError("need at least one subset spec")
    views = [subset_columns(spec) for spec in specs]
    reports = _cross_validate_views(x, labels, taxonomy, model_spec, views, k, seed, fold_plan)
    return list(zip(specs, reports))


# ---------------------------------------------------------------------------
# plot-ready outputs

RESULTS_HEADER = ["taxonomy", "model", "subset", "fold", "accuracy"]
SUMMARY_HEADER = ["taxonomy", "model", "subset", "acc_mean", "acc_std"]


def write_results_csv(path: str, rows: list[tuple[str, str, str, int, float]]) -> None:
    write_table(path, RESULTS_HEADER, rows)


def write_summary_csv(path: str, rows: list[tuple[str, str, str, float, float]]) -> None:
    write_table(path, SUMMARY_HEADER, rows)


def write_confusion_csv(path: str, matrix: np.ndarray, taxonomy: Taxonomy) -> None:
    rows = np.asarray(matrix, dtype=float).tolist()
    write_table(path, ["class"] + list(taxonomy.classes),
                ([name] + row for name, row in zip(taxonomy.classes, rows)))
