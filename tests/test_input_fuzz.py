"""Every input file, mutated once, gives a result or one stderr line with exit 3, 4 or 5.

One valid file of each kind (a trace, ``labels.csv``, a feature table, an SVM
model, a forest model and a params file) is mutated once and run through
``cli.main`` by the subcommand that reads it.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rftraffic.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_NOFIT, EXIT_OK, main
from rftraffic.features import N_FEATURES, fit_scaling, write_features_csv
from rftraffic.learn import ModelBundle, save_model, train_random_forest, train_svm_ensemble
from rftraffic.topology import BINARY

TRACE = os.path.join("traces", "trace_0000.csv")
LABELS = os.path.join("traces", "labels.csv")

#: the file each kind mutates, relative to the run directory
TARGETS = {
    "trace": TRACE,
    "labels": LABELS,
    "features": "features.csv",
    "svm": "svm.json",
    "forest": "forest.json",
    "params": "params.cfg",
}

#: the subcommand that reads each kind, given the run directory
COMMANDS = {
    "trace": lambda d: ["detect", "--in", os.path.join(d, TRACE),
                        "--out-events", os.path.join(d, "e.csv"),
                        "--out-observations", os.path.join(d, "o.csv")],
    "labels": lambda d: ["extract", "--traces", os.path.join(d, "traces"),
                         "--out", os.path.join(d, "x.csv")],
    "features": lambda d: ["train", "--features", os.path.join(d, "features.csv"),
                           "--epochs", "3", "--out", os.path.join(d, "m.json")],
    "svm": lambda d: ["importance", "--model", os.path.join(d, "svm.json"),
                      "--out", os.path.join(d, "imp.csv")],
    "forest": lambda d: ["export", "--model", os.path.join(d, "forest.json"),
                         "--out", os.path.join(d, "infer.c")],
    "params": lambda d: ["detect", "--in", os.path.join(d, TRACE),
                         "--params", os.path.join(d, "params.cfg"),
                         "--out-events", os.path.join(d, "e.csv"),
                         "--out-observations", os.path.join(d, "o.csv")],
}

PARAMS = ("longitudinal_spacing_m = 5.0\nsample_period_ms = 8.0\nfilter_size_n = 10\n"
          "guard_w = 10\nstart_offset_h = 5\ntheta_start = 0.92\ntheta_end = 0.975\n"
          "theta_guard = 0.95\n")


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory, binary_small):
    """Relative path -> bytes of one valid file of every kind, and the two traces."""
    root = tmp_path_factory.mktemp("valid")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--classes", "binary", "--count", "2", "--seed", "3",
                     "--out", str(root / "traces")]) == EXIT_OK
    x, labels = binary_small
    rows = [i for c in BINARY.classes for i in [j for j, lab in enumerate(labels) if lab == c][:5]]
    x, labels = x[rows], [labels[i] for i in rows]
    write_features_csv(str(root / "features.csv"), x, labels)
    scaling = fit_scaling(x)
    y = BINARY.encode(labels)
    for name, model in (
        ("svm.json", train_svm_ensemble(scaling.apply(x), y, BINARY.classes, epochs=3, seed=0)),
        ("forest.json", train_random_forest(scaling.apply(x), y, BINARY.classes,
                                            n_trees=2, max_depth=3, seed=0)),
    ):
        save_model(str(root / name), ModelBundle(BINARY, scaling, model))
    (root / "params.cfg").write_text(PARAMS)
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def _json_paths(doc, path=()):
    """Every (container path, key) of a JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)) and value:
            yield from _json_paths(value, path + (key,))


def _other_types(value):
    """Values of a different JSON type, some close to ``value``."""
    candidates = [None, True, 0, 0.5, "x", [], {"k": 1}]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        candidates += [float(value), value + 0.5, str(value), [value]]
    return [c for c in candidates if type(c) is not type(value)]


def _mutate_json(raw: bytes, op: str, data) -> bytes:
    doc = json.loads(raw)
    path, key = data.draw(st.sampled_from(list(_json_paths(doc))))
    parent = doc
    for step in path:
        parent = parent[step]
    if op == "retype":
        parent[key] = data.draw(st.sampled_from(_other_types(parent[key])))
    elif op == "drop" or isinstance(parent, dict):
        del parent[key]
    else:
        parent.insert(key, parent[key])
    return json.dumps(doc).encode()


def _resize(raw: bytes, data) -> bytes:
    """Scaling bounds and every pair's weights for a drawn width other than 92, bias kept."""
    doc = json.loads(raw)
    width = data.draw(st.integers(0, 2 * N_FEATURES).filter(lambda w: w != N_FEATURES))
    for key in ("lo", "hi"):
        doc["scaling"][key] = (doc["scaling"][key] * 2)[:width]
    for pair in doc["model"].get("pairs", []):
        weights = pair["weights"]
        pair["weights"] = (weights[:-1] * 2)[:width] + weights[-1:]
    return json.dumps(doc).encode()


def _mutate_lines(raw: bytes, op: str, data) -> bytes:
    lines = raw.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    if op == "drop_row":
        del lines[i]
    elif op == "duplicate_row":
        lines.insert(i, lines[i])
    else:
        cells = lines[i].split(b",")
        j = data.draw(st.integers(0, len(cells) - 1))
        if op == "drop_cell":
            del cells[j]
        else:
            cells.insert(j, cells[j])
        lines[i] = b",".join(cells)
    return b"\n".join(lines)


def _mutate(path: str, kind: str, data) -> None:
    """Apply one mutation to the file at ``path`` in place."""
    ops = ["truncate", "flip", "drop_row", "duplicate_row", "drop_cell", "duplicate_cell",
           "directory"]
    if kind in ("svm", "forest"):
        ops += ["retype", "drop", "duplicate", "width"]
    op = data.draw(st.sampled_from(ops))
    if op == "directory":
        os.remove(path)
        os.mkdir(path)
        return
    with open(path, "rb") as fh:
        raw = fh.read()
    if op == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif op == "flip":
        i = data.draw(st.integers(0, len(raw) - 1))
        raw = raw[:i] + bytes([raw[i] ^ data.draw(st.integers(1, 255))]) + raw[i + 1:]
    elif op in ("retype", "drop", "duplicate"):
        raw = _mutate_json(raw, op, data)
    elif op == "width":
        raw = _resize(raw, data)
    else:
        raw = _mutate_lines(raw, op, data)
    with open(path, "wb") as fh:
        fh.write(raw)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(TARGETS)), data=st.data())
def test_a_mutated_input_gives_a_result_or_one_error_line(valid_files, kind, data):
    with tempfile.TemporaryDirectory() as run_dir:
        for rel, raw in valid_files.items():
            os.makedirs(os.path.dirname(os.path.join(run_dir, rel)), exist_ok=True)
            with open(os.path.join(run_dir, rel), "wb") as fh:
                fh.write(raw)
        _mutate(os.path.join(run_dir, TARGETS[kind]), kind, data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(COMMANDS[kind](run_dir))
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_CONFIG, EXIT_NOFIT)
    if code != EXIT_OK:
        message = err.getvalue()
        assert message.endswith("\n") and message.count("\n") == 1, message
