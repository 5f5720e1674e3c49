"""Self-test of the output checks: real outputs pass, corrupted ones are rejected.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It makes small real outputs with the program (a few traces and a scaled-down
``reproduce``), confirms that every check passes on them, then corrupts one
thing at a time and confirms that the check meant to catch it fails.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
import re
import shutil
import sys

import run

SELFTEST_DIR = os.path.join(run.OUT_DIR, "selftest")


def _roadside_fixture():
    import numpy as np

    import workloads as w
    from rftraffic import features, learn, simulate

    train = simulate.generate_dataset(simulate.BODY_STYLE_TEMPLATES,
                                      simulate.proportional_counts(120), [91, 1])
    x, labels = features.dataset_features(train)
    scaling = features.fit_scaling(x)
    y = np.array([w.BODY.index(lab) for lab in labels])
    svm = learn.train_svm_ensemble(scaling.apply(x), y, w.BODY.classes, c=10.0, epochs=30,
                                   seed=[91, 2])
    rf = learn.train_random_forest(scaling.apply(x), y, w.BODY.classes, n_trees=10,
                                   max_depth=8, seed=[91, 3])
    pool = simulate.generate_dataset(simulate.BODY_STYLE_TEMPLATES, [4, 1, 1, 1, 1, 1, 1],
                                     [91, 4])
    trace_dir = os.path.join(SELFTEST_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    records = []
    for i, (bundle, label) in enumerate(pool):
        if i % 4 == 1:
            bundle = simulate.invert_direction(bundle)
        path = os.path.join(trace_dir, f"trace_{i}.csv")
        simulate.write_trace_csv(path, bundle)
        inputs = w.RoadsideInputs([path], [], scaling, svm, rf)
        records.append({"label": label, "truth_direction": bundle.truth.direction,
                        "truth_speed": bundle.truth.speed_mps,
                        "vehicles": w._classify_trace(path, inputs)})
    return [records, copy.deepcopy(records)]


def _reproduce_fixture(root: str) -> None:
    from rftraffic import cli

    shutil.rmtree(root, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["reproduce", "--out", root, "--count", "30", "--seed", "93",
                           "--k", "3", "--epochs", "10", "--n-trees", "5", "--max-depth", "4",
                           "--tree-grid", "2,4", "--depth-grid", "2,4"])
    if status != 0:
        raise RuntimeError(f"scaled-down reproduce exited with {status}")


def _edit(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    changed = edit(text)
    if changed == text:
        raise RuntimeError(f"corruption left {path} unchanged")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(changed)


def _bump_first_number(column: int):
    """Add 0.01 to a column of the first data row of a CSV text."""
    def edit(text: str) -> str:
        lines = text.split("\n")
        cells = lines[1].split(",")
        cells[column] = repr(float(cells[column]) + 0.01)
        lines[1] = ",".join(cells)
        return "\n".join(lines)
    return edit


def _retarget_votes(text: str) -> str:
    """Point every pairwise vote of the emitted C at the last class."""
    def fill(match):
        count = len(match.group(2).split(","))
        return f"{match.group(1)}{{ {', '.join(['6'] * count)} }}"
    return re.sub(r"(static const int pair_(?:neg|pos)\[\d+\] = )\{([^}]*)\}", fill, text)


def main() -> int:
    try:
        run.import_program()
    except ImportError as exc:
        print(f"selftest: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import checks

    shutil.rmtree(SELFTEST_DIR, ignore_errors=True)
    os.makedirs(SELFTEST_DIR)
    results = []

    def expect(group: str, found: dict[str, list[str]], failing: str | None) -> None:
        bad = sorted(name for name, problems in found.items() if problems)
        ok = bad == [] if failing is None else failing in bad
        results.append(ok)
        what = "clean output passes" if failing is None else f"rejected by {failing}"
        print(f"{'ok  ' if ok else 'FAIL'} {group}: {what} (failing: {', '.join(bad) or 'none'})")

    # roadside
    passes = _roadside_fixture()
    expect("roadside", checks.roadside_checks(passes), None)
    roadside_cases = [
        ("direction_matches_truth", lambda p: p[0][0]["vehicles"][0].update(
            direction="wrong_way" if p[0][0]["vehicles"][0]["direction"] == "forward"
            else "forward")),
        ("one_vehicle_per_trace", lambda p: p[0][0]["vehicles"].append(p[0][0]["vehicles"][0])),
        ("median_speed_error", lambda p: [v.update(v_mps=v["v_mps"] * 1.05)
                                          for rec in p[0] for v in rec["vehicles"]]),
        ("above_majority", lambda p: [v.update(svm="no such class")
                                      for rec in p[0] for v in rec["vehicles"]]),
        ("passes_agree", lambda p: p[1][0]["vehicles"][0].update(rf="no such class")),
    ]
    for name, corrupt in roadside_cases:
        broken = copy.deepcopy(passes)
        corrupt(broken)
        expect("roadside", checks.roadside_checks(broken), name)

    # reproduce
    clean = os.path.join(SELFTEST_DIR, "reproduce")
    build = os.path.join(SELFTEST_DIR, "cbuild")
    _reproduce_fixture(clean)
    digest = checks.tree_digest(clean)
    expect("reproduce", checks.reproduce_checks(clean, [digest, digest], build, digest), None)
    reproduce_cases = [
        ("files_present", lambda root: os.remove(os.path.join(root, "subset_summary.csv"))),
        ("summaries_recomputed", lambda root: _edit(
            os.path.join(root, "accuracy_summary.csv"), _bump_first_number(3))),
        ("summaries_recomputed", lambda root: _edit(
            os.path.join(root, "subset_summary.csv"), _bump_first_number(4))),
        ("rows_sum_to_one", lambda root: _edit(
            os.path.join(root, "confusion_body_style_svm.csv"), _bump_first_number(1))),
        ("rows_sum_to_one", lambda root: _edit(
            os.path.join(root, "importance_binary.csv"), _bump_first_number(2))),
        ("sweetspot_rule", lambda root: _edit(
            os.path.join(root, "sweetspot_best.csv"),
            lambda t: t.replace("\nesp,1,", "\nesp,1,9", 1))),
        ("c_matches_model", lambda root: _edit(
            os.path.join(root, "infer_svm_body_style.c"), _retarget_votes)),
    ]
    broken_root = os.path.join(SELFTEST_DIR, "reproduce-broken")
    for name, corrupt in reproduce_cases:
        shutil.rmtree(broken_root, ignore_errors=True)
        shutil.copytree(clean, broken_root)
        corrupt(broken_root)
        expect("reproduce", checks.reproduce_checks(broken_root, [digest], build, None), name)
    expect("reproduce", checks.reproduce_checks(clean, [digest, "0" * 64], build, None),
           "output_digest_repeats")
    expect("reproduce", checks.reproduce_checks(clean, [digest], build, "0" * 64),
           "output_digest_repeats")

    shutil.rmtree(SELFTEST_DIR, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} self-test cases passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
