import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rftraffic import evaluate as ev
from rftraffic.evaluate import (
    BUILTIN_SUBSETS,
    FoldPlan,
    ModelSpec,
    SubsetSpec,
    accuracy,
    build_fold_plan,
    cross_validate,
    fold_summary,
    subset_by_id,
    subset_columns,
    subset_evaluation,
    write_confusion_csv,
    write_results_csv,
    write_summary_csv,
)
from rftraffic.features import N_FEATURES, fit_scaling, link_block_slice
from rftraffic.learn import ZERO_COLUMN
from rftraffic.topology import BINARY, BODY_STYLE, SIZE_BASED, STRAIGHT_LINKS


@pytest.mark.parametrize("fields", [
    {"c": 0.0}, {"c": -1.0}, {"c": float("nan")}, {"c": float("inf")},
    {"epochs": 0}, {"epochs": -3}, {"n_trees": 0}, {"max_depth": -1},
])
def test_model_spec_rejects_degenerate_hyper_parameters(fields):
    with pytest.raises(ValueError):
        ModelSpec(kind="svm", **fields)
    with pytest.raises(ValueError):
        ModelSpec(kind="rf", **fields)


def test_model_spec_accepts_smallest_valid_values():
    ModelSpec(kind="rf", c=1e-300, epochs=1, n_trees=1, max_depth=0)


def test_accuracy_examples():
    assert accuracy(["a", "b", "a"], ["a", "b", "a"]) == 1.0
    assert accuracy(["a", "a"], ["a", "b"]) == 0.5


def test_accuracy_equals_count_weighted_recall():
    rng = np.random.default_rng(0)
    labels = rng.choice(["x", "y", "z"], size=200).tolist()
    preds = rng.choice(["x", "y", "z"], size=200).tolist()
    direct = accuracy(preds, labels)
    total = 0.0
    for klass in ("x", "y", "z"):
        rows = [i for i, lab in enumerate(labels) if lab == klass]
        if not rows:
            continue
        recall = sum(preds[i] == klass for i in rows) / len(rows)
        total += recall * len(rows) / len(labels)
    assert direct == pytest.approx(total, abs=1e-12)


def test_accuracy_error_cases():
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy(["a"], ["a", "b"])


def test_fold_summary_fixed_list():
    accs = np.array([1.0] * 9 + [0.9])
    mean, std = fold_summary(accs)
    assert mean == pytest.approx(0.99, abs=1e-12)
    assert std == pytest.approx(0.03, abs=1e-12)


@pytest.mark.parametrize("acc, k", [(0.95, 10), (0.7, 3), (0.1, 7), (2 / 3, 5)])
def test_fold_summary_of_equal_folds_has_no_spread(acc, k):
    """Folds that all agree give a std of 0, not the rounding of mean(a^2) - mean^2."""
    mean, std = fold_summary(np.full(k, acc))
    assert abs(std) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=10, max_value=120),
    k=st.integers(min_value=2, max_value=10),
    n_classes=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fold_plan_partition_laws(n, k, n_classes, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, size=n)
    plan = build_fold_plan(y, k, seed)
    sizes = np.bincount(plan.assignments, minlength=k)
    assert sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    covered = np.concatenate([plan.test_rows(f) for f in range(k)])
    assert sorted(covered.tolist()) == list(range(n))
    for fold in range(k):
        assert set(plan.train_rows(fold)).isdisjoint(plan.test_rows(fold))


def test_fold_plan_stratification():
    y = np.array([0] * 40 + [1] * 20)
    plan = build_fold_plan(y, 10, seed=1)
    for fold in range(10):
        test = plan.test_rows(fold)
        assert (y[test] == 0).sum() == 4
        assert (y[test] == 1).sum() == 2


def test_fold_plan_k_bounds():
    y = np.zeros(10, dtype=int)
    with pytest.raises(ValueError):
        build_fold_plan(y, 1, 0)
    with pytest.raises(ValueError):
        build_fold_plan(y, 11, 0)


def test_separable_set_scores_one(binary_small):
    x, labels = binary_small
    report = cross_validate(x, labels, BINARY, ModelSpec(kind="rf", n_trees=20), k=5, seed=3)
    assert report.acc_mean >= 0.99
    assert report.confusion.shape == (2, 2)
    assert np.allclose(report.confusion.sum(axis=1), 1.0)


def test_shared_fold_plan_reuse_across_model_kinds(binary_small):
    x, labels = binary_small
    y = np.array([BINARY.index(l) for l in labels])
    plan = build_fold_plan(y, 5, seed=77)
    svm_report = cross_validate(x, labels, BINARY, ModelSpec(kind="svm", epochs=10),
                                seed=77, fold_plan=plan)
    rf_report = cross_validate(x, labels, BINARY, ModelSpec(kind="rf", n_trees=10),
                               seed=77, fold_plan=plan)
    again = cross_validate(x, labels, BINARY, ModelSpec(kind="svm", epochs=10),
                           seed=77, fold_plan=plan)
    assert np.array_equal(svm_report.fold_accuracies, again.fold_accuracies)
    assert len(rf_report.fold_accuracies) == 5


def test_scaling_never_sees_test_rows(binary_small, monkeypatch):
    x, labels = binary_small
    y = np.array([BINARY.index(l) for l in labels])
    plan = build_fold_plan(y, 5, seed=9)
    seen = []
    original = ev.fit_scaling

    def recording_fit(train):
        seen.append(len(train))
        return original(train)

    monkeypatch.setattr(ev, "fit_scaling", recording_fit)
    cross_validate(x, labels, BINARY, ModelSpec(kind="rf", n_trees=3), seed=9, fold_plan=plan)
    expected = [len(plan.train_rows(f)) for f in range(5)]
    assert seen == expected  # one fit per fold, on the training split only


def test_cross_validate_k_errors(binary_small):
    x, labels = binary_small
    with pytest.raises(ValueError):
        cross_validate(x, labels, BINARY, ModelSpec(kind="svm"), k=1)
    with pytest.raises(ValueError):
        cross_validate(x, labels, BINARY, ModelSpec(kind="svm"), k=len(labels) + 1)


# ---------------------------------------------------------------------------
# subsets


def test_builtin_subsets_table():
    assert len(BUILTIN_SUBSETS) == 20
    assert [s.id for s in BUILTIN_SUBSETS] == [chr(ord("A") + i) for i in range(20)]
    assert subset_by_id("A").links == tuple(range(1, 10))
    assert subset_by_id("B").links == (1,)
    assert subset_by_id("H").links == (1, 5, 9)
    assert subset_by_id("M").links == (1, 2, 4, 5)
    assert subset_by_id("P").links == (1, 2, 4, 6, 8, 9)
    assert subset_by_id("S").links == (3, 7)
    assert subset_by_id("T").links == (1, 3, 7, 9)


def test_subset_columns_dimension_and_global_rule():
    columns_b = subset_columns(subset_by_id("B"))
    assert len(columns_b) == 12  # two globals plus one ten-wide block
    assert list(columns_b[:2]) == [ZERO_COLUMN] * 2  # one straight link: no speed/length
    assert list(columns_b[2:]) == list(range(2, 12))
    columns_e = subset_columns(subset_by_id("E"))
    assert len(columns_e) == 22
    assert list(columns_e[:2]) == [0, 1]  # links 1 and 5 give two straight onsets
    assert list(subset_columns(subset_by_id("O"))[:2]) == [ZERO_COLUMN] * 2  # diagonals only
    assert list(subset_columns(subset_by_id("A"))) == list(range(92))


def test_subset_a_equals_plain_run_bitexact(body_small):
    x, labels = body_small
    spec = ModelSpec(kind="svm", epochs=8)
    plain = cross_validate(x, labels, SIZE_BASED, spec, k=5, seed=21)
    pairs = subset_evaluation(x, labels, SIZE_BASED, spec, [subset_by_id("A")], k=5, seed=21)
    report = pairs[0][1]
    assert np.array_equal(report.fold_accuracies, plain.fold_accuracies)
    assert np.array_equal(report.confusion, plain.confusion)
    assert report.acc_mean == plain.acc_mean
    assert report.acc_std == plain.acc_std


def test_subset_empty_rejected():
    with pytest.raises(ValueError):
        SubsetSpec("X", ())
    with pytest.raises(ValueError):
        subset_evaluation(np.zeros((4, 92)), ["a"] * 4, BINARY, ModelSpec(kind="svm"), [])


def test_straight_pair_subsets_stay_accurate(binary_small):
    x, labels = binary_small
    spec = ModelSpec(kind="svm", epochs=20)
    chosen = [subset_by_id(i) for i in ("H", "M", "T")]
    results = subset_evaluation(x, labels, BINARY, spec, chosen, k=5, seed=13)
    for subset, report in results:
        assert report.acc_mean >= 0.95, subset.id


def test_subset_study_scales_each_fold_once(binary_small, monkeypatch):
    x, labels = binary_small
    plan = build_fold_plan(BINARY.encode(labels), 4, seed=5)
    seen = []
    original = ev.fit_scaling

    def recording_fit(train):
        seen.append(len(train))
        return original(train)

    monkeypatch.setattr(ev, "fit_scaling", recording_fit)
    results = subset_evaluation(x, labels, BINARY, ModelSpec(kind="svm", epochs=1),
                                BUILTIN_SUBSETS, seed=5, fold_plan=plan)
    assert len(results) == 20
    assert seen == [len(plan.train_rows(f)) for f in range(4)]  # k scalings, not 20 k


@pytest.mark.parametrize("spec", [ModelSpec(kind="svm", epochs=3),
                                  ModelSpec(kind="rf", n_trees=3, max_depth=4)])
def test_mixed_width_subsets_report_in_spec_order_as_alone(body_small, spec):
    x, labels = body_small
    ids = ["O", "C", "A", "S", "B", "M", "H", "E", "R", "T", "P", "Q"]
    order = np.random.default_rng(4).permutation(len(ids))
    chosen = [subset_by_id(ids[i]) for i in order]
    together = subset_evaluation(x, labels, SIZE_BASED, spec, chosen, k=3, seed=8)
    assert [subset for subset, _ in together] == chosen
    for subset, report in together:
        [(_, alone)] = subset_evaluation(x, labels, SIZE_BASED, spec, [subset], k=3, seed=8)
        assert np.array_equal(report.fold_accuracies, alone.fold_accuracies), subset.id
        assert np.array_equal(report.confusion, alone.confusion), subset.id
        assert (report.acc_mean, report.acc_std) == (alone.acc_mean, alone.acc_std)


def test_csv_writers(tmp_path):
    results = tmp_path / "r.csv"
    write_results_csv(str(results), [("binary", "svm", "A", 0, 0.5)])
    assert results.read_text().splitlines()[0] == "taxonomy,model,subset,fold,accuracy"
    summary = tmp_path / "s.csv"
    write_summary_csv(str(summary), [("binary", "svm", "A", 0.5, 0.1)])
    assert summary.read_text().splitlines()[0] == "taxonomy,model,subset,acc_mean,acc_std"
    confusion = tmp_path / "c.csv"
    write_confusion_csv(str(confusion), np.eye(2), BINARY)
    lines = confusion.read_text().splitlines()
    assert lines[0] == "class,car-like,truck-like"
    assert lines[1].startswith("car-like,")


def _mask_view(spec):
    """A subset as a column mask and whether the speed/length pair is blanked."""
    mask = np.zeros(N_FEATURES, dtype=bool)
    mask[0:2] = True
    for link in spec.links:
        mask[link_block_slice(link)] = True
    return mask, len(set(spec.links) & set(STRAIGHT_LINKS)) < 2


def _reference_cross_validate_views(x, labels, taxonomy, spec, views, k, seed, fold_plan=None):
    """The per-fold loop before the lockstep run, the oracle for
    ``_cross_validate_views``: each fold is scaled, then one model per view is
    trained on its own and scored before the next fold."""
    x = np.asarray(x, dtype=float)
    y_idx = taxonomy.encode(labels)
    if fold_plan is None:
        fold_plan = build_fold_plan(y_idx, k, seed)
    model_seeds = np.random.SeedSequence([int(seed), 0x5EED]).spawn(fold_plan.k)
    n_classes = len(taxonomy.classes)
    counts = np.zeros((len(views), n_classes, n_classes))
    fold_acc = np.empty((len(views), fold_plan.k))
    for fold in range(fold_plan.k):
        train, test = fold_plan.train_rows(fold), fold_plan.test_rows(fold)
        scaling = fit_scaling(x[train])
        for i, (columns, zero_globals) in enumerate(views):
            x_train = scaling.apply(x[train])[:, columns]
            x_test = scaling.apply(x[test])[:, columns]
            if zero_globals:
                x_train[:, 0:2] = 0.0
                x_test[:, 0:2] = 0.0
            model = ev.train_model(x_train, y_idx[train], taxonomy.classes, spec, model_seeds[fold])
            pred = np.atleast_1d(model.predict(x_test))
            fold_acc[i, fold] = float((pred == y_idx[test]).mean()) if len(test) else 1.0
            np.add.at(counts[i], (y_idx[test], pred), 1)
    sums = counts.sum(axis=2, keepdims=True)
    return fold_acc, np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)


def _assert_reports_match_reference(reports, reference):
    fold_acc, confusion = reference
    assert len(reports) == len(fold_acc)
    for report, acc, matrix in zip(reports, fold_acc, confusion):
        assert report.fold_accuracies.tobytes() == acc.tobytes()
        assert report.confusion.tobytes() == matrix.tobytes()
        assert (report.acc_mean, report.acc_std) == fold_summary(acc)


@pytest.mark.parametrize("spec", [ModelSpec(kind="svm", c=10.0, epochs=5),
                                  ModelSpec(kind="rf", n_trees=3, max_depth=4)])
def test_cross_validation_equals_the_per_fold_loop(body_small, spec):
    x, labels = body_small
    every_column = np.ones(x.shape[1], dtype=bool)
    report = cross_validate(x, labels, BODY_STYLE, spec, k=4, seed=31)
    reference = _reference_cross_validate_views(x, labels, BODY_STYLE, spec,
                                                [(every_column, False)], 4, 31)
    _assert_reports_match_reference([report], reference)


def test_subset_study_equals_the_per_fold_loop(body_small):
    """Views of five widths, one of them (B C D, M N) shared by several, and
    a fold whose training split lacks a class, so that it has fewer pairs."""
    x, labels = body_small
    y_idx = BODY_STYLE.encode(labels)
    rare = int(np.argmin(np.bincount(y_idx)))
    assignments = build_fold_plan(y_idx, 3, seed=12).assignments.copy()
    assignments[y_idx == rare] = 0  # fold 0 tests every row of the rare class
    plan = FoldPlan(k=3, assignments=assignments)
    assert rare not in y_idx[plan.train_rows(0)] and rare in y_idx[plan.train_rows(1)]
    spec = ModelSpec(kind="svm", c=10.0, epochs=4)
    chosen = [subset_by_id(i) for i in ("B", "M", "A", "C", "E", "N", "H", "D")]
    pairs = subset_evaluation(x, labels, BODY_STYLE, spec, chosen, seed=12, fold_plan=plan)
    assert [subset for subset, _ in pairs] == chosen
    reference = _reference_cross_validate_views(
        x, labels, BODY_STYLE, spec, [_mask_view(s) for s in chosen], 3, 12, plan)
    _assert_reports_match_reference([report for _, report in pairs], reference)
