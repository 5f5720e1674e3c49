"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The corpora are regenerated deterministically from
fixed seeds, so every figure asserted here is reproducible bit for bit.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import compile_and_predict, reference_importance_binary
from rftraffic import cli, evaluate, export, features, importance, learn, simulate
from rftraffic.detect import process_bundle
from rftraffic.evaluate import ModelSpec, build_fold_plan, cross_validate, fold_summary, subset_by_id
from rftraffic.simulate import BINARY_TEMPLATES, BODY_STYLE_TEMPLATES, ClassTemplate
from rftraffic.topology import BINARY, BODY_STYLE, SIZE_BASED, SystemParams, Topology


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {number:2d} {text}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] {number:2d} {text}: PASS")


TOPO = Topology()
PARAMS = SystemParams()


@pytest.fixture(scope="module")
def body_corpus():
    """1000 labeled traces over all seven classes, detection timed."""
    counts = simulate.proportional_counts(1000)
    assert sum(counts.values()) == 1000 and len(counts) == 7
    dataset = simulate.generate_dataset(
        BODY_STYLE_TEMPLATES, counts, seed=20_260_810, topology=TOPO, params=PARAMS
    )
    t0 = time.perf_counter()
    processed = [process_bundle(bundle, TOPO, PARAMS) for bundle, _ in dataset]
    detect_seconds = time.perf_counter() - t0
    rows, labels = [], []
    for (bundle, label), (observations, filtered) in zip(dataset, processed):
        for obs in observations:
            segments = features.segments_for_observation(obs, filtered)
            rows.append(features.extract_features(obs, segments).values)
            labels.append(label)
    return {
        "dataset": dataset,
        "observations": [obs for obs_list, _ in processed for obs in obs_list],
        "detect_seconds": detect_seconds,
        "x": np.vstack(rows),
        "labels": labels,
    }


@pytest.fixture(scope="module")
def binary_corpus():
    """2000 traces from the two aggregate templates, featurized."""
    dataset = simulate.generate_dataset(
        BINARY_TEMPLATES, [1000, 1000], seed=77_001, topology=TOPO, params=PARAMS
    )
    x, labels = features.dataset_features(dataset, TOPO, PARAMS)
    return {"dataset": dataset, "x": x, "labels": labels}


@pytest.fixture(scope="module")
def body_ensemble(body_corpus):
    from rftraffic.topology import labels_for_taxonomy

    x, labels = body_corpus["x"], body_corpus["labels"]
    scaling = features.fit_scaling(x)
    y = np.array([BODY_STYLE.index(l) for l in labels_for_taxonomy(labels, BODY_STYLE)])
    model = learn.train_svm_ensemble(
        scaling.apply(x), y, BODY_STYLE.classes, c=10.0, epochs=60, seed=4242
    )
    return scaling, model


def test_criterion_01_detection_completeness(body_corpus):
    with criterion(1, "detection completeness on 1000 traces"):
        assert len(body_corpus["observations"]) == 1000
        seconds = body_corpus["detect_seconds"]
        print(f"    detection pass over 9000 link streams: {seconds:.2f} s")
        assert seconds < 30.0


def test_criterion_02_wrong_way_detection(body_corpus):
    with criterion(2, "wrong-way detection, zero false alarms"):
        forward = body_corpus["dataset"][:500]
        inverted_hits = 0
        for bundle, _ in forward:
            observations, _ = process_bundle(
                simulate.invert_direction(bundle), TOPO, PARAMS
            )
            assert len(observations) == 1
            obs = observations[0]
            assert obs.v_mps is not None and obs.v_mps < 0
            assert obs.direction == "wrong_way"
            inverted_hits += 1
        assert inverted_hits == 500
        false_alarms = sum(
            1 for obs in body_corpus["observations"][:500] if obs.direction == "wrong_way"
        )
        assert false_alarms == 0


def test_criterion_03_speed_length_oracles():
    with criterion(3, "speed/length within 2% (+1 sample) on noise-free traces"):
        period_s = PARAMS.sample_period_ms / 1000.0
        for v_kmh in (20.0, 30.0, 40.0, 50.0, 60.0):
            for l_m in (4.0, 8.0, 12.0, 18.0):
                template = ClassTemplate(
                    "probe", v_kmh, 0.0, l_m, 0.0, 0.70, 0.0, 0.85, 0.0, 0.0
                )
                bundle = simulate.generate_trace(template, TOPO, PARAMS, seed=606)
                observations, _ = process_bundle(bundle, TOPO, PARAMS)
                assert len(observations) == 1
                obs = observations[0]
                v_true = bundle.truth.speed_mps
                l_true = bundle.truth.length_m
                assert abs(obs.v_mps - v_true) <= 0.02 * v_true, (v_kmh, l_m)
                budget = 0.02 * l_true + v_true * period_s
                assert abs(obs.l_m - l_true) <= budget, (v_kmh, l_m)


def test_criterion_04_binary_classification(binary_corpus):
    with criterion(4, "binary SVM at 0.99 target (hard floor 0.98) with 1-NN oracle"):
        x, labels = binary_corpus["x"], binary_corpus["labels"]
        y = np.array([BINARY.index(l) for l in labels])
        plan = build_fold_plan(y, 10, seed=11)
        report = cross_validate(
            x, labels, BINARY, ModelSpec(kind="svm", c=1.0, epochs=50),
            seed=11, fold_plan=plan,
        )
        # independent separability oracle: 1-NN on (link-1 duration, length)
        oracle_feats = x[:, [2, 1]]
        oracle_acc = []
        for fold in range(10):
            train, test = plan.train_rows(fold), plan.test_rows(fold)
            dist = ((oracle_feats[test][:, None, :] - oracle_feats[train][None, :, :]) ** 2).sum(axis=2)
            nearest = dist.argmin(axis=1)
            oracle_acc.append(float((y[train][nearest] == y[test]).mean()))
        oracle_mean = float(np.mean(oracle_acc))
        print(f"    svm ACC_k = {report.acc_mean:.4f}, 1-NN oracle = {oracle_mean:.4f}")
        assert oracle_mean >= 0.99  # the corpus is separable where it matters
        assert report.acc_mean >= 0.98  # hard floor
        assert report.acc_mean >= 0.99  # stated target


def test_criterion_05_taxonomy_ordering(body_corpus):
    with criterion(5, "binary >= size-based >= body-style for SVM and RF"):
        x, labels = body_corpus["x"], body_corpus["labels"]
        svm_spec = ModelSpec(kind="svm", c=10.0, epochs=120)
        rf_spec = ModelSpec(kind="rf", n_trees=100, max_depth=12)
        for spec in (svm_spec, rf_spec):
            accs = {}
            for taxonomy in (BINARY, SIZE_BASED, BODY_STYLE):
                report = cross_validate(x, labels, taxonomy, spec, k=10, seed=31)
                accs[taxonomy.name] = report.acc_mean
            print(f"    {spec.kind}: " + "  ".join(f"{k}={v:.4f}" for k, v in accs.items()))
            assert accs["binary"] >= accs["size_based"] >= accs["body_style"]
            assert accs["body_style"] >= 0.85


def test_criterion_06_quality_measure_unit_correctness():
    with criterion(6, "accuracy, ACC_k and sigma match hand computation to 1e-12"):
        preds = ["a", "b", "b", "c", "a", "a", "c", "b", "a", "c"]
        truth = ["a", "b", "c", "c", "a", "b", "c", "b", "b", "c"]
        # 7 exact matches out of 10, counted by hand
        assert abs(evaluate.accuracy(preds, truth) - 0.7) < 1e-12

        folds = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.9])
        mean, std = fold_summary(folds)
        assert abs(mean - 0.99) < 1e-12
        assert abs(std - 0.03) < 1e-12

        mixed = np.array([0.8, 0.9, 1.0, 0.7, 0.6, 0.85, 0.95, 0.75, 0.65, 0.9])
        mean, std = fold_summary(mixed)
        assert abs(mean - mixed.sum() / 10) < 1e-12
        assert abs(std - np.sqrt((mixed ** 2).sum() / 10 - (mixed.sum() / 10) ** 2)) < 1e-12


def test_criterion_07_importance_laws(binary_corpus, body_ensemble):
    with criterion(7, "importance normalization, scale invariance, Y=2 equality"):
        x, labels = binary_corpus["x"], binary_corpus["labels"]
        scaling = features.fit_scaling(x)
        y = np.array([BINARY.index(l) for l in labels])
        binary_ens = learn.train_svm_ensemble(
            scaling.apply(x), y, BINARY.classes, c=1.0, epochs=50, seed=88
        )
        _, body_ens = body_ensemble
        for ensemble in (binary_ens, body_ens):
            matrix = importance.importance_multiclass(ensemble)
            assert np.all(np.abs(matrix.values.sum(axis=1) - 1.0) <= 1e-9)
            boosted = learn.SvmEnsemble(ensemble.weights * 64.0, ensemble.pairs, ensemble.c,
                                        ensemble.classes)
            assert np.array_equal(matrix.values, importance.importance_multiclass(boosted).values)
        # the two-class multi-class path reduces to the binary formula exactly
        multi = importance.importance_multiclass(binary_ens)
        single = reference_importance_binary(binary_ens.weights[0], features.feature_groups(),
                                             BINARY.classes)
        assert np.array_equal(multi.values, single.values)


def test_criterion_08_subset_harness(body_corpus, binary_corpus):
    with criterion(8, "all 60 subset cells, A bit-exact, H/M/T at 0.98 on binary"):
        x, labels = body_corpus["x"], body_corpus["labels"]
        spec = ModelSpec(kind="svm", c=10.0, epochs=40)
        cells = 0
        for taxonomy in (BINARY, SIZE_BASED, BODY_STYLE):
            results = evaluate.subset_evaluation(
                x, labels, taxonomy, spec, evaluate.BUILTIN_SUBSETS, k=10, seed=17
            )
            cells += len(results)
            plain = cross_validate(x, labels, taxonomy, spec, k=10, seed=17)
            report_a = results[0][1]
            assert results[0][0].id == "A"
            assert np.array_equal(report_a.fold_accuracies, plain.fold_accuracies)
            assert np.array_equal(report_a.confusion, plain.confusion)
        assert cells == 60

        bx, blabels = binary_corpus["x"], binary_corpus["labels"]
        chosen = [subset_by_id(s) for s in ("H", "M", "T")]
        results = evaluate.subset_evaluation(
            bx, blabels, BINARY, ModelSpec(kind="svm", c=1.0, epochs=50),
            chosen, k=10, seed=17,
        )
        for subset, report in results:
            print(f"    subset {subset.id}: ACC_k = {report.acc_mean:.4f}")
            assert report.acc_mean >= 0.98, subset.id


def test_criterion_09_export_oracle_and_memory(body_corpus, body_ensemble):
    with criterion(9, "emitted source oracle, memory monotonicity, budget exclusion"):
        scaling, ensemble = body_ensemble
        x, labels = body_corpus["x"], body_corpus["labels"]
        from rftraffic.topology import labels_for_taxonomy

        y = np.array([BODY_STYLE.index(l) for l in labels_for_taxonomy(labels, BODY_STYLE)])
        scaled = scaling.apply(x)
        forest = learn.train_random_forest(
            scaled, y, BODY_STYLE.classes, n_trees=50, max_depth=12, seed=99
        )
        rng = np.random.default_rng(123)
        vectors = rng.uniform(-1.0, 1.0, size=(1000, 92))
        for model in (ensemble, forest):
            c_pred = compile_and_predict(export.emit_inference_source(model), vectors)
            mismatches = int((c_pred != model.predict(vectors)).sum())
            print(f"    {type(model).__name__}: {mismatches} mismatches on 1000 vectors")
            assert mismatches == 0

        sizes = []
        for n_trees, depth in ((20, 4), (20, 8), (20, 16), (50, 16), (100, 16)):
            trained = learn.train_random_forest(
                scaled, y, BODY_STYLE.classes, n_trees=n_trees, max_depth=depth, seed=7
            )
            sizes.append(export.estimate_memory(trained))
        assert sizes == sorted(sizes)  # monotone in depth, then tree count

        grid = export.grid_search(
            x, labels, BODY_STYLE, tree_counts=(10, 100), depths=(4, 16), k=3, seed=3
        )
        smallest = export.platform_by_name("msp")
        largest = export.platform_by_name("esp")
        excluded = [
            cell for cell in grid
            if cell["code_bytes"] > smallest.program_memory_bytes
            and cell["code_bytes"] <= largest.program_memory_bytes
        ]
        assert excluded, "expected the 16.32 kB budget to exclude a configuration the 4 MB one admits"


def test_criterion_10_reproduce_determinism(tmp_path_factory):
    with criterion(10, "reproduce --seed 7 twice is byte-identical"):
        outs = []
        for run in range(2):
            out = str(tmp_path_factory.mktemp(f"reproduce_{run}"))
            rc = cli.main(["reproduce", "--seed", "7", "--out", out])
            assert rc == 0
            tree = {}
            for dirpath, _, names in os.walk(out):
                for name in names:
                    path = os.path.join(dirpath, name)
                    with open(path, "rb") as fh:
                        tree[os.path.relpath(path, out)] = fh.read()
            outs.append(tree)
        first, second = outs
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], f"{rel} differs between runs"
        print(f"    {len(first)} output files byte-identical across runs")
