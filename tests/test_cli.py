import filecmp
import gc
import hashlib
import json
import multiprocessing
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from rftraffic import cli, evaluate, export, simulate
from rftraffic.cli import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_NOFIT,
    EXIT_OK,
    derive_seed,
    main,
)
from rftraffic.features import write_features_csv
from rftraffic.learn import ModelBundle, save_model, train_random_forest, train_svm_ensemble
from rftraffic.features import fit_scaling
from rftraffic.topology import BINARY, SystemParams, Topology


def test_seed_derivation_is_stable_and_stage_specific():
    assert derive_seed(7, "simulate") == derive_seed(7, "simulate")
    assert derive_seed(7, "simulate") != derive_seed(7, "evaluate")
    assert derive_seed(7, "simulate") != derive_seed(8, "simulate")


def test_unknown_subcommand_exits_usage():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_simulate_writes_traces_and_labels(tmp_path):
    out = tmp_path / "traces"
    rc = main(["simulate", "--classes", "binary", "--count", "6", "--seed", "3",
               "--out", str(out)])
    assert rc == EXIT_OK
    files = sorted(os.listdir(out))
    assert "labels.csv" in files
    assert len([f for f in files if f.startswith("trace_")]) == 6
    rows = simulate.read_labels_csv(str(out / "labels.csv"))
    assert len(rows) == 6
    assert {r[1] for r in rows} == {"car-like", "truck-like"}


def test_detect_idle_trace_writes_empty_outputs(tmp_path):
    streams = np.full((9, 300), -60.0)
    bundle = simulate.TraceBundle(streams, np.full(9, -60.0), 8.0)
    trace = tmp_path / "idle.csv"
    simulate.write_trace_csv(str(trace), bundle)
    events = tmp_path / "events.csv"
    obs = tmp_path / "obs.csv"
    rc = main(["detect", "--in", str(trace),
               "--out-events", str(events), "--out-observations", str(obs)])
    assert rc == EXIT_OK
    assert events.read_text().strip() == "vehicle_id,link,t_start_ms,t_end_ms,min_level"
    assert obs.read_text().strip() == "vehicle_id,v_mps,l_m,direction"


def test_detect_missing_file_exit_code(tmp_path):
    rc = main(["detect", "--in", str(tmp_path / "nope.csv")])
    assert rc == EXIT_INPUT


def test_detect_malformed_file_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("completely,wrong,header\n")
    rc = main(["detect", "--in", str(bad)])
    assert rc == EXIT_INPUT


def test_detect_nan_trace_exit_code(tmp_path):
    streams = np.full((9, 300), -60.0)
    streams[0, 0] = np.nan  # lands in the idle-level window
    trace = tmp_path / "nan.csv"
    simulate.write_trace_csv(str(trace), simulate.TraceBundle(streams, np.full(9, -60.0), 8.0))
    rc = main(["detect", "--in", str(trace), "--out-events", str(tmp_path / "e.csv"),
               "--out-observations", str(tmp_path / "o.csv")])
    assert rc == EXIT_INPUT


def test_detect_dropped_epoch_exit_code(tmp_path):
    trace = tmp_path / "gap.csv"
    simulate.write_trace_csv(str(trace), simulate.TraceBundle(
        np.full((9, 300), -60.0), np.full(9, -60.0), 8.0))
    lines = trace.read_text().splitlines(keepends=True)
    del lines[1 + 9 * 150: 1 + 9 * 151]
    trace.write_text("".join(lines))
    rc = main(["detect", "--in", str(trace), "--out-events", str(tmp_path / "e.csv"),
               "--out-observations", str(tmp_path / "o.csv")])
    assert rc == EXIT_INPUT


def test_detect_links_shifted_in_time_exit_code(tmp_path, capsys):
    # every link keeps its row count, but links 6-9 run three epochs late
    rows = sorted((8.0 * (k + 3 * (link >= 6)), link) for link in range(1, 10) for k in range(300))
    trace = tmp_path / "shifted.csv"
    trace.write_text("t_ms,link,rssi_dbm\n" + "".join(f"{t},{link},-60.0\n" for t, link in rows))
    rc = main(["detect", "--in", str(trace), "--out-events", str(tmp_path / "e.csv"),
               "--out-observations", str(tmp_path / "o.csv")])
    assert rc == EXIT_INPUT
    assert "not whole epochs of links 1..9: data row 6 should be link 6" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "export"])
def test_input_that_is_a_directory_exits_input_in_one_line(tmp_path, capsys, command):
    flags = {"detect": ["--in", str(tmp_path)],
             "export": ["--model", str(tmp_path), "--out", str(tmp_path / "infer.c")]}
    assert main([command, *flags[command]]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["trace", "features"])
def test_input_that_is_not_utf8_exits_input_in_one_line(tmp_path, capsys, binary_small, kind):
    path = tmp_path / f"{kind}.csv"
    if kind == "trace":
        simulate.write_trace_csv(str(path), simulate.TraceBundle(
            np.full((9, 30), -60.0), np.full(9, -60.0), 8.0))
        argv = ["detect", "--in", str(path), "--out-events", str(tmp_path / "e.csv"),
                "--out-observations", str(tmp_path / "o.csv")]
    else:
        x, labels = binary_small
        write_features_csv(str(path), x[:4], labels[:4])
        argv = ["train", "--features", str(path), "--out", str(tmp_path / "m.json")]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = 0xFF
    path.write_bytes(bytes(data))
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path}: not UTF-8") and err.count("\n") == 1


def test_train_malformed_feature_cell_exit_code(tmp_path, binary_small):
    x, labels = binary_small
    path = tmp_path / "features.csv"
    write_features_csv(str(path), x[:2], labels[:2])
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[5] = "zero"
    lines[2] = ",".join(cells)
    path.write_text("".join(lines))
    rc = main(["train", "--features", str(path), "--out", str(tmp_path / "m.json")])
    assert rc == EXIT_INPUT


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_train_non_finite_feature_cell_exit_code(tmp_path, binary_small, cell):
    x, labels = binary_small
    path = tmp_path / "features.csv"
    write_features_csv(str(path), x[:12], labels[:12])
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[4].split(",")
    cells[7] = cell
    lines[4] = ",".join(cells)
    path.write_text("".join(lines))
    out = tmp_path / "m.json"
    assert main(["train", "--features", str(path), "--out", str(out)]) == EXIT_INPUT
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "confusion", "sweetspot"])
def test_feature_file_without_rows_exits_input_in_one_line(tmp_path, capsys, command):
    path = tmp_path / "features.csv"
    write_features_csv(str(path), np.empty((0, 92)), [])
    outs = {"train": ["--out", str(tmp_path / "m.json")],
            "confusion": ["--out", str(tmp_path / "c.csv")]}
    assert main([command, "--features", str(path), *outs.get(command, [])]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {path}: no feature rows\n"


@pytest.mark.parametrize("flags", [
    ["--C", "0"],
    ["--C", "-1"],
    ["--C", "nan"],
    ["--C", "inf"],
    ["--epochs", "-3"],
    ["--epochs", "0"],
    ["--model", "rf", "--n-trees", "0"],
    ["--model", "rf", "--max-depth", "-2"],
])
def test_train_degenerate_hyper_parameters_exit_config(tmp_path, binary_small, flags):
    x, labels = binary_small
    path = tmp_path / "features.csv"
    write_features_csv(str(path), x[:12], labels[:12])
    out = tmp_path / "m.json"
    assert main(["train", "--features", str(path), "--out", str(out)] + flags) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "confusion"])
def test_svm_on_rows_of_one_class_exits_config_in_one_line(tmp_path, capsys, body_small,
                                                           command):
    """An SVM ensemble trained on one class would hold no pairs and vote
    class 0, another class, for every row."""
    x, labels = body_small
    vans = [i for i, label in enumerate(labels) if label == "van"]
    path = tmp_path / "features.csv"
    write_features_csv(str(path), x[vans], [labels[i] for i in vans])
    out = tmp_path / "out"
    argv = [command, "--features", str(path), "--taxonomy", "body_style", "--model", "svm"]
    if command == "evaluate":
        argv += ["--out-results", str(out), "--out-summary", str(tmp_path / "summary.csv")]
    else:
        argv += ["--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "at least two classes" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--count", "3"],
    ["reproduce", "--count", "5"],
])
def test_corpus_smaller_than_class_count_is_config_error(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--epochs", "0"], ["--n-trees", "0"], ["--C", "0"],
                                   ["--k", "1"], ["--k", "31"]])
def test_reproduce_checks_model_flags_before_writing(tmp_path, flags):
    out = tmp_path / "out"
    assert main(["reproduce", "--count", "30", "--k", "3", "--out", str(out)] + flags) == EXIT_CONFIG
    assert not out.exists()


def test_reproduce_needs_as_many_vehicles_as_folds(tmp_path, capsys):
    """A corpus of fewer vehicles than --k is a configuration error that writes nothing."""
    cfg = tmp_path / "sys.cfg"
    # thresholds this low let no trace dip below them: the corpus has no vehicle
    cfg.write_text("theta_start = 0.3\ntheta_guard = 0.5\ntheta_end = 0.6\n")
    out = tmp_path / "out"
    assert main(["reproduce", "--count", "20", "--k", "3", "--params", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: --k 3 exceeds the 0 vehicles in 20 traces\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--threads", "2", "simulate", "--out", "x"],
    ["simulate", "--threads", "2", "--out", "x"],
])
def test_threads_flag_is_gone(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sweetspot", "--features", "f.csv", "--n-trees", "3"],
    ["train", "--features", "f.csv", "--out", "m.json", "--k", "3"],
])
def test_commands_refuse_flags_they_never_read(argv):
    """sweetspot reads only --taxonomy and --k of the model flags; train reads no --k."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_full_flow_simulate_extract_train_evaluate(tmp_path, topo, params):
    traces = tmp_path / "traces"
    assert main(["simulate", "--classes", "binary", "--count", "30", "--seed", "9",
                 "--out", str(traces)]) == EXIT_OK
    feats = tmp_path / "features.csv"
    assert main(["extract", "--traces", str(traces), "--out", str(feats)]) == EXIT_OK

    model = tmp_path / "model.json"
    assert main(["train", "--features", str(feats), "--taxonomy", "binary",
                 "--model", "svm", "--epochs", "10", "--out", str(model)]) == EXIT_OK

    results = tmp_path / "results.csv"
    summary = tmp_path / "summary.csv"
    assert main(["evaluate", "--features", str(feats), "--taxonomy", "binary",
                 "--model", "svm", "--epochs", "10", "--k", "5",
                 "--out-results", str(results), "--out-summary", str(summary)]) == EXIT_OK
    lines = results.read_text().splitlines()
    assert lines[0] == "taxonomy,model,subset,fold,accuracy"
    assert len(lines) == 6  # header + one row per fold

    confusion = tmp_path / "confusion.csv"
    assert main(["confusion", "--features", str(feats), "--taxonomy", "binary",
                 "--model", "svm", "--epochs", "10", "--k", "5",
                 "--out", str(confusion)]) == EXIT_OK
    assert confusion.read_text().splitlines()[0] == "class,car-like,truck-like"

    importance_csv = tmp_path / "importance.csv"
    assert main(["importance", "--model", str(model), "--out", str(importance_csv)]) == EXIT_OK
    assert importance_csv.read_text().splitlines()[0] == "group,class,importance"

    infer = tmp_path / "infer.c"
    assert main(["export", "--model", str(model), "--out", str(infer)]) == EXIT_OK
    assert "int predict(const double features[92])" in infer.read_text()


@pytest.mark.parametrize("flags", [["--tree-grid=0"], ["--tree-grid=0,5"],
                                   ["--depth-grid=-2"], ["--depth-grid=-1,4"]])
@pytest.mark.parametrize("command", ["sweetspot", "reproduce"])
def test_degenerate_grid_flags_exit_config(tmp_path, binary_small, command, flags):
    if command == "sweetspot":
        x, labels = binary_small
        feats = tmp_path / "features.csv"
        write_features_csv(str(feats), x, labels)
        argv = ["sweetspot", "--features", str(feats), "--k", "3", "--platform", "esp",
                "--out", str(tmp_path / "grid.csv")]
    else:
        argv = ["reproduce", "--count", "30", "--k", "3", "--epochs", "2", "--n-trees", "2",
                "--max-depth", "2", "--out", str(tmp_path / "out")]
    assert main(argv + flags) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("flags, subsets", [
    (["--subsets", "A,B"], ["A", "B"]),
    (["--subsets", " A, B"], ["A", "B"]),
    (["--subsets", "all"], list("ABCDEFGHIJKLMNOPQRST")),
    ([], ["A"]),
    (["--subsets", "A,Z"], None),
], ids=["pair", "spaced", "all", "no-flag", "unknown"])
def test_subset_evaluate_flags(tmp_path, capsys, binary_small, flags, subsets):
    x, labels = binary_small
    feats = tmp_path / "features.csv"
    write_features_csv(str(feats), x, labels)
    summary = tmp_path / "summary.csv"
    rc = main(["evaluate", "--features", str(feats), "--taxonomy", "binary",
               "--model", "svm", "--epochs", "5", "--k", "4",
               "--out-results", str(tmp_path / "r.csv"), "--out-summary", str(summary)] + flags)
    if subsets is None:
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: unknown subset id 'Z'\n"
        assert not summary.exists()
        return
    assert rc == EXIT_OK
    lines = summary.read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == subsets


def test_unmappable_label_prints_its_message_without_quotes(tmp_path, capsys, binary_small):
    x, labels = binary_small
    trucks = [i for i, label in enumerate(labels) if label == "truck-like"][:4]
    feats = tmp_path / "features.csv"
    write_features_csv(str(feats), x[trucks], [labels[i] for i in trucks])
    rc = main(["train", "--features", str(feats), "--taxonomy", "size_based",
               "--out", str(tmp_path / "m.json")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: label 'truck-like' cannot be mapped onto taxonomy 'size_based'\n")


def test_importance_rejects_forest_models(tmp_path, binary_small):
    x, labels = binary_small
    scaling = fit_scaling(x)
    y = np.array([BINARY.index(l) for l in labels])
    forest = train_random_forest(scaling.apply(x), y, BINARY.classes,
                                 n_trees=2, max_depth=2, seed=0)
    path = tmp_path / "rf.json"
    save_model(str(path), ModelBundle(BINARY, scaling, forest))
    rc = main(["importance", "--model", str(path), "--out", str(tmp_path / "imp.csv")])
    assert rc == EXIT_CONFIG


def test_export_platform_no_fit(tmp_path, body_small):
    from rftraffic.topology import BODY_STYLE

    x, labels = body_small
    scaling = fit_scaling(x)
    y = np.array([BODY_STYLE.index(l) for l in labels])
    forest = train_random_forest(scaling.apply(x), y, BODY_STYLE.classes,
                                 n_trees=150, max_depth=20, seed=0)
    path = tmp_path / "big.json"
    save_model(str(path), ModelBundle(BODY_STYLE, scaling, forest))
    out = tmp_path / "infer.c"
    rc = main(["export", "--model", str(path), "--out", str(out), "--platform", "msp"])
    assert rc == EXIT_NOFIT
    assert not out.exists()  # nothing written on refusal
    assert main(["export", "--model", str(path), "--out", str(out),
                 "--platform", "esp"]) == EXIT_OK


@pytest.mark.parametrize("node,key,value", [
    (0, "left", 0),  # a walk that never leaves the root
    (0, "left", 999),  # a child past the end of the tree
    (0, "feature", 5000),  # a feature past the 92 of the scaling
])
def test_export_rejects_malformed_forest_files(tmp_path, binary_small, node, key, value):
    x, labels = binary_small
    scaling = fit_scaling(x)
    forest = train_random_forest(scaling.apply(x), BINARY.encode(labels), BINARY.classes,
                                 n_trees=3, max_depth=4, seed=0)
    path = tmp_path / "rf.json"
    save_model(str(path), ModelBundle(BINARY, scaling, forest))
    doc = json.loads(path.read_text())
    doc["model"]["trees"][0][key][node] = value
    path.write_text(json.dumps(doc))
    out = tmp_path / "infer.c"
    assert main(["export", "--model", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_export_rejects_a_fractional_node_feature(tmp_path, capsys, binary_small):
    """A root split on feature 22.7 must not load as a split on feature 22."""
    x, labels = binary_small
    scaling = fit_scaling(x)
    forest = train_random_forest(scaling.apply(x), BINARY.encode(labels), BINARY.classes,
                                 n_trees=2, max_depth=4, seed=0)
    path = tmp_path / "rf.json"
    save_model(str(path), ModelBundle(BINARY, scaling, forest))
    doc = json.loads(path.read_text())
    doc["model"]["trees"][0]["feature"][0] = 22.7
    path.write_text(json.dumps(doc))
    out = tmp_path / "infer.c"
    assert main(["export", "--model", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not out.exists()


def _saved_svm_doc(tmp_path, binary_small):
    x, labels = binary_small
    scaling = fit_scaling(x)
    ensemble = train_svm_ensemble(scaling.apply(x), BINARY.encode(labels), BINARY.classes,
                                  epochs=2, seed=0)
    path = tmp_path / "svm.json"
    save_model(str(path), ModelBundle(BINARY, scaling, ensemble))
    return path, json.loads(path.read_text())


def test_export_rejects_boolean_class_indices(tmp_path, capsys, binary_small):
    """A pair whose class indices are false and true is no pair save_model writes."""
    path, doc = _saved_svm_doc(tmp_path, binary_small)
    doc["model"]["pairs"][0].update(neg=False, pos=True)
    path.write_text(json.dumps(doc))
    out = tmp_path / "infer.c"
    assert main(["export", "--model", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def _no_pairs(pairs):
    pairs.clear()


def _two_values_of_c(pairs):
    pairs.append(dict(pairs[0], neg=pairs[0]["pos"], pos=pairs[0]["neg"], c=2 * pairs[0]["c"]))


@pytest.mark.parametrize("corrupt,message", [(_no_pairs, "at least one pair"),
                                             (_two_values_of_c, "2 values of c")])
def test_importance_refuses_an_ensemble_no_training_writes(tmp_path, capsys, binary_small,
                                                          corrupt, message):
    """An ensemble of no pairs would vote class 0 for every row and weigh every
    group 0.5/0.5; every pair of one ensemble is trained with one ``c``."""
    path, doc = _saved_svm_doc(tmp_path, binary_small)
    corrupt(doc["model"]["pairs"])
    path.write_text(json.dumps(doc))
    out = tmp_path / "imp.csv"
    assert main(["importance", "--model", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


def test_importance_rejects_a_nan_scaling_bound(tmp_path, capsys, binary_small):
    """A NaN lower bound would silently map its column to 0.0."""
    path, doc = _saved_svm_doc(tmp_path, binary_small)
    doc["scaling"]["lo"][0] = float("nan")
    path.write_text(json.dumps(doc))  # written as the JSON extension NaN
    out = tmp_path / "imp.csv"
    assert main(["importance", "--model", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def _resize_svm_doc(doc, width):
    """The model file as if scaled and trained on ``width`` features: 92 cut or padded."""
    for key in ("lo", "hi"):
        doc["scaling"][key] = (doc["scaling"][key] * 2)[:width]
    for pair in doc["model"]["pairs"]:
        weights = pair["weights"]
        pair["weights"] = (weights[:-1] * 2)[:width] + weights[-1:]
    return doc


@pytest.mark.parametrize("command,width", [("importance", 10), ("importance", 100),
                                           ("export", 10), ("export", 100)])
def test_a_model_of_another_width_exits_config(tmp_path, capsys, binary_small, command, width):
    """A model file is for the 92 features or it is refused, before any output is written."""
    path, doc = _saved_svm_doc(tmp_path, binary_small)
    path.write_text(json.dumps(_resize_svm_doc(doc, width)))
    out = tmp_path / "out"
    assert main([command, "--model", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "92 features" in err
    assert not out.exists()


def test_custom_params_file(tmp_path):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("theta_start = 0.90\n")
    traces = tmp_path / "traces"
    rc = main(["simulate", "--classes", "binary", "--count", "2", "--seed", "1",
               "--out", str(traces), "--params", str(cfg)])
    assert rc == EXIT_OK
    bad = tmp_path / "bad.cfg"
    bad.write_text("warp_drive = 9\n")
    rc = main(["simulate", "--classes", "binary", "--count", "2", "--seed", "1",
               "--out", str(traces), "--params", str(bad)])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("key", ["longitudinal_spacing_m", "sample_period_ms"])
def test_non_finite_site_parameter_exits_config_naming_the_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text(f"{key} = {value}\n")
    rc = main(["simulate", "--count", "8", "--out", str(tmp_path / "traces"),
               "--params", str(cfg)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {key} must be finite, got {value}\n"
    assert not (tmp_path / "traces").exists()


def test_a_repeated_site_parameter_exits_config_naming_both_lines(tmp_path, capsys):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("guard_w = 3\nguard_w = 12\n")
    rc = main(["simulate", "--count", "8", "--out", str(tmp_path / "traces"),
               "--params", str(cfg)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (f"configuration error: {cfg}:2: key 'guard_w' "
                                       f"is already set on line 1\n")
    assert not (tmp_path / "traces").exists()


def _tree_bytes(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            with open(full, "rb") as fh:
                out[rel] = fh.read()
    return out


def test_scaled_down_reproduce_is_deterministic(tmp_path):
    args = ["--count", "90", "--k", "4", "--epochs", "8", "--n-trees", "10",
            "--max-depth", "6", "--tree-grid", "2,5", "--depth-grid", "2,4"]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["--seed", "7", "reproduce", "--out", str(out1)] + args) == EXIT_OK
    assert main(["--seed", "7", "reproduce", "--out", str(out2)] + args) == EXIT_OK
    tree1 = _tree_bytes(out1)
    tree2 = _tree_bytes(out2)
    assert tree1.keys() == tree2.keys()
    for rel in tree1:
        assert tree1[rel] == tree2[rel], f"{rel} differs between identical runs"
    expected = {
        "accuracy_summary.csv",
        "accuracy_per_fold.csv",
        "subset_summary.csv",
        "subset_per_fold.csv",
        "sweetspot_grid.csv",
        "sweetspot_best.csv",
        "features.csv",
        "model_svm_body_style.json",
        "infer_svm_body_style.c",
    }
    assert expected.issubset(tree1.keys())
    for taxonomy in ("binary", "size_based", "body_style"):
        assert f"importance_{taxonomy}.csv" in tree1
        for model in ("svm", "rf"):
            assert f"confusion_{taxonomy}_{model}.csv" in tree1


#: sha256 of every file of the small reproduce run below.  A change that means
#: to alter output updates these pins and says why in CHANGES.md; floating-point
#: results were pinned on x86-64 with numpy 2.x and OpenBLAS.
GOLDEN_REPRODUCE_SHA256 = {
    "accuracy_per_fold.csv": "5a331abb09a48c580265d336cc14f14ed3d72ff901024e2236b8ef27793e756e",
    "accuracy_summary.csv": "3d2e6022b71cee3df55a92c9a8156c17efcc3562a8390c3625e12c21244c9184",
    "confusion_binary_rf.csv": "8a3b1e7e96eedfa63a707ed180ed898af1f053f2b23f8e178c993bafc2771f9c",
    "confusion_binary_svm.csv": "6784e7617737cc56475620c3250bf41591c7f2f5444135d11e885936c8918b4c",
    "confusion_body_style_rf.csv": "095965a91a9d8272bb5b95a0c1aa48f8b7de61a7730083d41025bf18243c9f62",
    "confusion_body_style_svm.csv": "764cfabb665a5bd626172a2cb9dd60968e91db6e25addf6ec0d662eddbcb57e1",
    "confusion_size_based_rf.csv": "474d67fd96579e71184cca6e59af617a3995c36b66f453d3aa87f9a57307a9e0",
    "confusion_size_based_svm.csv": "39fb10f5721377a47c12338ba7b640c5ae7077dcefaffe67479d74b181d1a9c6",
    "features.csv": "60569d912c6ce426362bfee6a73870d4c9198d9a3ad4f49e78ee331972f7ffba",
    "importance_binary.csv": "1a09343840b7ca139fb6376b67ab34cf584f8154fb9adeebd3f808cce1239762",
    "importance_body_style.csv": "b36a3e105661d5068b3be4e76d91be666e3d1667545a1d8dbc573ff2d49ec1ac",
    "importance_size_based.csv": "e957a96676da5adb51b03d792ee788e69880f246a18625f2ba46bbfa39087763",
    "infer_svm_body_style.c": "1e0e94bb063124d0001d1ee9193cc3e0f3cc9d84df2431dea3232b877aded2ae",
    "model_svm_body_style.json": "5f25e5905b5ecddc046db9c570fb8912823db8f662ef10a7775dbf88fcb758c0",
    "subset_per_fold.csv": "7db3a6d47b722a0f93615917275a21600760a3a0fec25475484f8b95db048d0b",
    "subset_summary.csv": "4705b981687e53b22270220e01c606a5c8c01c137784a641b5d7fe4db0af8df5",
    "sweetspot_best.csv": "dffd352463dd7edff5fd03f6214de5588ba80d819e315407719c58144171ae44",
    "sweetspot_grid.csv": "f5e2beb57bb58cb0a568dc736c7a2aca0f4d356bbbe20c5cbd2ab551872fdd9b",
}


def test_small_reproduce_matches_golden_digests(tmp_path):
    """Catches a speed-up that silently changes what reproduce writes."""
    out = tmp_path / "golden"
    assert main(["reproduce", "--count", "40", "--seed", "93", "--k", "3", "--epochs", "10",
                 "--n-trees", "5", "--max-depth", "4", "--tree-grid", "2,5",
                 "--depth-grid", "2,6,10", "--out", str(out)]) == EXIT_OK
    digests = {rel: hashlib.sha256(data).hexdigest() for rel, data in _tree_bytes(out).items()}
    assert digests == GOLDEN_REPRODUCE_SHA256


def test_reproduce_writes_a_no_fit_row_for_a_platform_nothing_fits(tmp_path, monkeypatch, capsys):
    dust = export.PlatformProfile("dust", 0)
    monkeypatch.setattr(export, "PLATFORMS", export.PLATFORMS + (dust,))
    out = tmp_path / "golden"
    assert main(["reproduce", "--count", "40", "--seed", "93", "--k", "3", "--epochs", "10",
                 "--n-trees", "5", "--max-depth", "4", "--tree-grid", "2,5",
                 "--depth-grid", "2,6,10", "--out", str(out)]) == EXIT_OK
    assert (out / "sweetspot_best.csv").read_bytes().endswith(b"\r\ndust,0,,,,\r\n")
    assert "sweet spot dust: no fit\n" in capsys.readouterr().out


def test_a_platform_added_to_the_table_is_a_choice_and_a_grid_column(
        tmp_path, monkeypatch, capsys, binary_small):
    roomy = export.PlatformProfile("roomy", 10**9)
    monkeypatch.setattr(export, "PLATFORMS", export.PLATFORMS + (roomy,))
    x, labels = binary_small
    feats = tmp_path / "features.csv"
    write_features_csv(str(feats), x, labels)
    grid = tmp_path / "grid.csv"
    assert main(["sweetspot", "--features", str(feats), "--k", "3", "--tree-grid", "2",
                 "--depth-grid", "2", "--platform", "roomy", "--out", str(grid)]) == EXIT_OK
    header, row = grid.read_text().splitlines()
    assert header.endswith(",fits_esp,fits_roomy") and row.endswith(",1")
    assert capsys.readouterr().out.startswith("sweet spot on roomy: 2 trees, depth 2")

    scaling = fit_scaling(x)
    forest = train_random_forest(scaling.apply(x), BINARY.encode(labels), BINARY.classes,
                                 n_trees=2, max_depth=2, seed=0)
    model = tmp_path / "rf.json"
    save_model(str(model), ModelBundle(BINARY, scaling, forest))
    assert main(["export", "--model", str(model), "--out", str(tmp_path / "infer.c"),
                 "--platform", "roomy"]) == EXIT_OK
    assert "'esp': True, 'roomy': True}" in capsys.readouterr().out


#: sha256 of what the golden reproduce run prints, its --out path replaced by "<out>"
GOLDEN_REPRODUCE_STDOUT_SHA256 = "361e28bc0cdb41d3e3232ec4f2269730ff35eac244064f1f44c35dd7a5884d95"


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pool"])
def test_reproduce_bytes_do_not_depend_on_cpu_count(tmp_path, monkeypatch, capsys, cpus):
    """One usable CPU runs reproduce's analyses inline, more fan them out to workers."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    out = tmp_path / "golden"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert main(["reproduce", "--count", "40", "--seed", "93", "--k", "3", "--epochs", "10",
                 "--n-trees", "5", "--max-depth", "4", "--tree-grid", "2,5",
                 "--depth-grid", "2,6,10", "--out", str(out)]) == EXIT_OK
    digests = {rel: hashlib.sha256(data).hexdigest() for rel, data in _tree_bytes(out).items()}
    assert digests == GOLDEN_REPRODUCE_SHA256
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_REPRODUCE_STDOUT_SHA256
    assert multiprocessing.active_children() == []
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    worked_in_children = after.ru_utime + after.ru_stime > before.ru_utime + before.ru_stime
    assert worked_in_children == (cpus > 1)


def _failing_cross_validation(*args, **kwargs):
    raise ValueError("this cross-validation fails")


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pool"])
def test_reproduce_task_failure_writes_what_the_inline_path_writes(tmp_path, monkeypatch, capsys,
                                                                  cpus):
    """A cross-validation that fails in its task, after features.csv, ends the run there."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(evaluate, "cross_validate", _failing_cross_validation)
    out = tmp_path / "out"
    assert main(["reproduce", "--count", "30", "--out", str(out)]) == EXIT_CONFIG
    assert "this cross-validation fails" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["features.csv"]
    assert multiprocessing.active_children() == []


class _PoolReached(Exception):
    pass


def test_reproduce_holds_no_trace_bundle_when_its_analyses_start(tmp_path, monkeypatch):
    """Each trace is featurized as it is made, so the pool forks holding no bundle."""
    live = []

    def stop_at_the_pool(tasks, first):
        live.append(sum(isinstance(o, simulate.TraceBundle) for o in gc.get_objects()))
        raise _PoolReached

    monkeypatch.setattr(cli, "_results_in_order", stop_at_the_pool)
    before = sum(isinstance(o, simulate.TraceBundle) for o in gc.get_objects())
    with pytest.raises(_PoolReached):
        main(["reproduce", "--count", "30", "--seed", "5", "--out", str(tmp_path / "out")])
    assert live == [before]


def test_reproduce_submits_every_task_exactly_once(tmp_path, monkeypatch):
    """The hand-kept longest-first order must name each of reproduce's tasks once.

    A duplicate index would submit a task twice; a missing one would run last.
    """
    real = cli._results_in_order
    calls = []

    def recording(tasks, first):
        calls.append((len(tasks), first))
        return real(tasks, first)

    monkeypatch.setattr(cli, "_results_in_order", recording)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main(["reproduce", "--count", "30", "--k", "2", "--epochs", "2", "--n-trees", "2",
                 "--max-depth", "2", "--tree-grid", "2", "--depth-grid", "2",
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    (n_tasks, first), = calls
    assert sorted(first) == list(range(n_tasks))


def test_importing_the_cli_loads_no_process_pool():
    """The pool modules load only when reproduce fans out, not at every start-up."""
    probe = ("import sys, rftraffic.cli; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
             "if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


#: sha256 of every file of the small file-driven chain below; the trace directory
#: (31 traces and labels.csv) is folded into one digest over its sorted names and
#: contents, and "stdout" is
#: the printed text with the run directory replaced by "<tmp>".  Pinned like
#: GOLDEN_REPRODUCE_SHA256 and updated the same way.
GOLDEN_CHAIN_SHA256 = {
    "confusion.csv": "ef9a7a0ac447fcc03448a3b1e57a28dca75a897141739258558d338cf816106a",
    "features.csv": "2e9d59cf2c847a7b5abe3921b96591cfe56b2248be55d7621861b3704e53b71d",
    "grid.csv": "3e2150a68bbcc2977524d3f819fb167b81f8d78642ff3fffed99df0fc09b3643",
    "results.csv": "27387f1534e6bd483562a8d30a653b87ea8a916b2e87501f3381c36ddbfb635b",
    "stdout": "b2b4e25f7b37a03183ff72172fe91ab986ba8da29b600fc54b68f7fa7ff388bb",
    "subset_results.csv": "6775eb23c15d8eb8fde9a8ca52a5d727628e4d68ca1e358168d66369ff344428",
    "subset_summary.csv": "0b666918a03b1530c8f3516bddb9443065cb5fb4d75f0af66dd8783a5d10b524",
    "summary.csv": "60c99ed26811d2f40e9fa8328d3f7c4b2198be344055f0b29a8b17ceafba988a",
    "traces": "18cace9cac47a386a06b3b0059368752d5b17e3b1f88e4c1f05708dc3168d245",
}


def test_file_driven_chain_matches_golden_digests(tmp_path, capsys):
    """simulate -> extract -> evaluate (plain, all subsets) -> confusion -> sweetspot."""
    traces, feats = tmp_path / "traces", tmp_path / "features.csv"
    model = ["--k", "3", "--epochs", "5", "--n-trees", "3", "--max-depth", "3"]
    runs = [
        ["simulate", "--classes", "binary", "--count", "31", "--seed", "5", "--out", str(traces)],
        ["extract", "--traces", str(traces), "--out", str(feats)],
        ["evaluate", "--features", str(feats), "--out-results", str(tmp_path / "results.csv"),
         "--out-summary", str(tmp_path / "summary.csv")] + model,
        ["evaluate", "--features", str(feats), "--subsets", "all", "--model", "rf",
         "--out-results", str(tmp_path / "subset_results.csv"),
         "--out-summary", str(tmp_path / "subset_summary.csv")] + model,
        ["confusion", "--features", str(feats), "--out", str(tmp_path / "confusion.csv")] + model,
        ["sweetspot", "--features", str(feats), "--tree-grid", "2,5", "--depth-grid", "2,4",
         "--k", "3", "--out", str(tmp_path / "grid.csv")],
    ]
    for argv in runs:
        assert main(["--seed", "11"] + argv) == EXIT_OK, argv
    digests = {rel: hashlib.sha256(data).hexdigest()
               for rel, data in _tree_bytes(tmp_path).items() if not rel.startswith("traces")}
    trace_files = _tree_bytes(traces)
    digests["traces"] = hashlib.sha256(
        b"".join(rel.encode() + b"\0" + trace_files[rel] for rel in sorted(trace_files))
    ).hexdigest()
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    assert digests == GOLDEN_CHAIN_SHA256
