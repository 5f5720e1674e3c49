import hashlib

import numpy as np
import pytest

from conftest import compile_and_predict
from rftraffic.evaluate import ModelSpec, build_fold_plan, cross_validate, scaled_folds
from rftraffic.export import (
    OVERHEAD_BYTES,
    PLATFORMS,
    best_fitting,
    count_operations,
    emit_inference_source,
    estimate_memory,
    grid_search,
    platform_by_name,
)
from rftraffic.features import fit_scaling
from rftraffic.learn import (
    RandomForest,
    SvmEnsemble,
    train_random_forest,
    train_svm_ensemble,
)
from rftraffic.topology import BINARY, BODY_STYLE, SIZE_BASED


@pytest.fixture(scope="module")
def trained(body_small):
    x, labels = body_small
    scaling = fit_scaling(x)
    scaled = scaling.apply(x)
    y = np.array([BODY_STYLE.index(l) for l in labels])
    ens = train_svm_ensemble(scaled, y, BODY_STYLE.classes, epochs=10, seed=6)
    forest = train_random_forest(scaled, y, BODY_STYLE.classes, n_trees=12,
                                 max_depth=8, seed=6)
    return scaled, y, ens, forest


@pytest.fixture(scope="module")
def one_pair(binary_small):
    """A binary ensemble: one pair, one row of weights."""
    x, labels = binary_small
    scaled = fit_scaling(x).apply(x)
    return train_svm_ensemble(scaled, BINARY.encode(labels), BINARY.classes, epochs=10, seed=6)


def test_platform_profiles():
    budgets = {p.name: p.program_memory_bytes for p in PLATFORMS}
    assert budgets == {"msp": 16_320, "atmega": 32_000, "esp": 4_000_000}
    assert platform_by_name("atmega").program_memory_bytes == 32_000
    with pytest.raises(KeyError, match=r"'cortex' \(expected msp, atmega or esp\)"):
        platform_by_name("cortex")


def test_a_budget_admits_code_of_exactly_its_size():
    for p in PLATFORMS:
        assert p.fits(p.program_memory_bytes)
        assert not p.fits(p.program_memory_bytes + 1)


def _empty_ensemble(classes):
    """An ensemble of no pairs: an empty weight table."""
    return SvmEnsemble(np.empty((0, 93)), np.empty((0, 2), dtype=int), 1.0, classes)


def _empty_forest(classes):
    """A forest of no trees: an empty node table."""
    none = np.empty(0, dtype=int)
    return RandomForest(trees=none, feature=none, threshold=np.empty(0), left=none, right=none,
                        klass=none, classes=classes, max_depth=1, feature_subset=1)


def test_empty_model_costs_overhead_only():
    assert estimate_memory(_empty_ensemble(("a", "b"))) == OVERHEAD_BYTES
    empty_forest = _empty_forest(("a", "b"))
    assert estimate_memory(empty_forest) == OVERHEAD_BYTES
    assert count_operations(empty_forest) == 0


def test_memory_monotone_in_trees_and_depth(binary_small):
    x, labels = binary_small
    y = np.array([BINARY.index(l) for l in labels])
    shallow = train_random_forest(x, y, BINARY.classes, n_trees=20, max_depth=4, seed=3)
    deep = train_random_forest(x, y, BINARY.classes, n_trees=20, max_depth=12, seed=3)
    more = train_random_forest(x, y, BINARY.classes, n_trees=40, max_depth=12, seed=3)
    e_shallow = estimate_memory(shallow)
    e_deep = estimate_memory(deep)
    e_more = estimate_memory(more)
    assert e_shallow <= e_deep <= e_more


def test_deep_wide_forest_straddles_budgets(body_small):
    x, labels = body_small
    y = np.array([BODY_STYLE.index(l) for l in labels])
    forest = train_random_forest(x, y, BODY_STYLE.classes, n_trees=100, max_depth=20, seed=1)
    code_bytes = estimate_memory(forest)
    assert not platform_by_name("msp").fits(code_bytes)
    assert platform_by_name("esp").fits(code_bytes)


def test_operation_count_scales_with_pairs(trained):
    _, _, ens, forest = trained
    assert count_operations(ens) == 21 * 93  # Y(Y-1)/2 dot products of 92+bias
    assert count_operations(forest) > 0
    assert count_operations(forest) <= forest.max_depth * len(forest.trees)


def test_emitted_svm_source_shape(trained):
    _, _, ens, _ = trained
    source = emit_inference_source(ens)
    assert "int predict(const double features[92])" in source
    assert 'const char predict_version[]' in source
    assert "pair_weights[21][93]" in source
    assert "#include" not in source
    assert "//" not in source  # C89: block comments only


def test_emitted_sources_match_library_predictions(trained):
    scaled, _, ens, forest = trained
    rng = np.random.default_rng(77)
    vectors = rng.uniform(-1.0, 1.0, size=(300, 92))
    for model in (ens, forest):
        source = emit_inference_source(model)
        c_pred = compile_and_predict(source, vectors)
        assert np.array_equal(c_pred, model.predict(vectors))


def test_emitted_forest_source_is_pinned(trained):
    # the emitter and RandomForest.predict read the forest's one node table; the C
    # file must stay byte for byte what the per-tree emitter wrote for this forest
    _, _, _, forest = trained
    source = emit_inference_source(forest)
    assert (hashlib.sha256(source.encode()).hexdigest()
            == "711a0d73f58d7120fa10187aed0de5a5670d9c026108176502123f6bd360a135")
    assert count_operations(forest) == 85


def test_emitted_svm_sources_are_pinned(trained, one_pair):
    # each ensemble's C file, pinned byte for byte: the skeleton it shares with
    # the forest must not move it
    for ens, n_pairs, digest in (
        (trained[2], 21, "005cdc6ed79b35e93cfb65807c257b7abd880bb938895cf2a2175f29ca323b55"),
        (one_pair, 1, "362ce199777ae4f5f8f6549ca3f0bd609b553812d416d74276b36fad28b3d60f"),
    ):
        assert len(ens.weights) == n_pairs
        assert hashlib.sha256(emit_inference_source(ens).encode()).hexdigest() == digest


def test_one_pair_source_matches_library_predictions(one_pair):
    vectors = np.random.default_rng(78).uniform(-1.0, 1.0, size=(300, 92))
    source = emit_inference_source(one_pair)
    assert np.array_equal(compile_and_predict(source, vectors), one_pair.predict(vectors))


def test_stump_forest_emits_single_branch(binary_small):
    x, labels = binary_small
    y = np.array([BINARY.index(l) for l in labels])
    stump = train_random_forest(x, y, BINARY.classes, n_trees=1, max_depth=1,
                                feature_subset=92, seed=0)
    assert len(stump.trees) == 1 and stump.n_nodes == 3
    source = emit_inference_source(stump)
    assert "node_feature[3]" in source
    vectors = np.random.default_rng(1).uniform(-1, 1, size=(50, 92))
    assert np.array_equal(compile_and_predict(source, vectors), stump.predict(vectors))


def test_emit_rejects_empty_models():
    with pytest.raises(ValueError):
        emit_inference_source(_empty_ensemble(("a", "b")))
    with pytest.raises(ValueError):
        emit_inference_source(_empty_forest(("a",)))


# ---------------------------------------------------------------------------
# sweet spot


def test_sweet_spot_unlimited_budget_is_grid_best(binary_small):
    x, labels = binary_small
    from rftraffic.export import PlatformProfile

    unlimited = PlatformProfile("lab", 10**12)
    grid = grid_search(x, labels, BINARY, tree_counts=(2, 5), depths=(2, 4), k=3, seed=4)
    result = best_fitting(grid, unlimited)
    assert result is not None
    assert result["acc_mean"] == max(cell["acc_mean"] for cell in grid)


def test_sweet_spot_zero_budget_is_no_fit(binary_small):
    x, labels = binary_small
    from rftraffic.export import PlatformProfile

    none = PlatformProfile("dust", 0)
    grid = grid_search(x, labels, BINARY, tree_counts=(2,), depths=(2,), k=3, seed=4)
    assert best_fitting(grid, none) is None


def test_sweet_spot_dominance_and_tiebreak(binary_small):
    x, labels = binary_small
    grid = grid_search(x, labels, BINARY, tree_counts=(2, 5, 10), depths=(2, 6),
                       k=3, seed=4)
    platform = platform_by_name("msp")
    result = best_fitting(grid, platform)
    assert result is not None
    fitting = [c for c in grid if c["code_bytes"] <= platform.program_memory_bytes]
    assert all(result["acc_mean"] >= c["acc_mean"] for c in fitting)
    ties = [c for c in fitting if c["acc_mean"] == result["acc_mean"]]
    assert result["code_bytes"] == min(c["code_bytes"] for c in ties)


def test_grid_cell_does_not_depend_on_other_cells(binary_small):
    x, labels = binary_small
    full = grid_search(x, labels, BINARY, tree_counts=(2, 5), depths=(2, 6, 10), k=2, seed=4)
    alone = grid_search(x, labels, BINARY, tree_counts=(5,), depths=(6,), k=2, seed=4)
    cell = next(c for c in full if (c["n_trees"], c["max_depth"]) == (5, 6))
    assert (cell["code_bytes"], cell["op_count"]) == (alone[0]["code_bytes"], alone[0]["op_count"])
    assert cell["acc_mean"] == alone[0]["acc_mean"]
    for n_trees in (2, 5):
        sizes = [c["code_bytes"] for c in full if c["n_trees"] == n_trees]
        assert sizes == sorted(sizes)  # a deeper cap on the same forest is never smaller


def test_grid_rejects_empty(binary_small):
    x, labels = binary_small
    with pytest.raises(ValueError):
        grid_search(x, labels, BINARY, tree_counts=(), depths=(2,), k=3, seed=0)


def test_grid_cells_equal_per_cell_training(binary_small):
    x, labels = binary_small
    tree_counts, depths, k, seed = (5, 2, 5, 8), (7, 1, 3), 3, 4
    grid = grid_search(x, labels, BINARY, tree_counts=tree_counts, depths=depths, k=k, seed=seed)
    assert [(c["n_trees"], c["max_depth"]) for c in grid] == [
        (n, d) for n in sorted(tree_counts) for d in sorted(depths)]
    y = BINARY.encode(labels)
    plan = build_fold_plan(y, k, seed)
    x_scaled = fit_scaling(x).apply(x)
    deploy_seed = np.random.SeedSequence([seed, 0xDE9107]).spawn(1)[0]
    for cell in grid:
        spec = ModelSpec(kind="rf", n_trees=cell["n_trees"], max_depth=cell["max_depth"])
        report = cross_validate(x, labels, BINARY, spec, k=k, seed=seed, fold_plan=plan)
        assert (cell["acc_mean"], cell["acc_std"]) == (report.acc_mean, report.acc_std)
        deployed = train_random_forest(x_scaled, y, BINARY.classes, n_trees=cell["n_trees"],
                                       max_depth=cell["max_depth"], seed=deploy_seed)
        assert cell["code_bytes"] == estimate_memory(deployed)
        assert cell["op_count"] == count_operations(deployed)


def test_stopped_walk_votes_as_the_pruned_forest(body_small):
    """Per fold and cap, the walk grid_search stops equals the truncated forest's full walk."""
    x, labels = body_small
    y = BODY_STYLE.encode(labels)
    plan = build_fold_plan(y, 3, 5)
    for fold in scaled_folds(x, y, plan, 5):
        forest = train_random_forest(fold.x_train, fold.y_train, BODY_STYLE.classes,
                                     n_trees=8, max_depth=9, seed=fold.model_seed)
        for cap in range(forest.max_depth + 1):
            cut = forest.truncated(8, cap)
            assert np.array_equal(forest.tree_classes(fold.x_test, cap),
                                  cut.tree_classes(fold.x_test, cut.depth))


def test_grid_rejects_negative_tree_count(binary_small):
    x, labels = binary_small
    with pytest.raises(ValueError):
        grid_search(x, labels, BINARY, tree_counts=(-1, 2), depths=(2,), k=3, seed=0)


@pytest.mark.parametrize("tree_counts, depths", [((0,), (2,)), ((0, 3), (2,)), ((2,), (-2,)),
                                                 ((2,), (-1, 4))])
def test_grid_rejects_empty_forests_and_negative_depths(binary_small, tree_counts, depths):
    x, labels = binary_small
    with pytest.raises(ValueError):
        grid_search(x, labels, BINARY, tree_counts=tree_counts, depths=depths, k=3, seed=0)
