"""Output checks, computed apart from the program.

Every check returns a list of problems; an empty list means it passed.  The
checks use only the standard library: they recompute summaries from the raw
rows, apply the documented selection rule themselves, and compile the emitted
C with the system compiler.  None compares against a stored copy of earlier
output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics
import subprocess

SPEED_TOLERANCE = 0.02  # median relative speed error, acceptance criterion 3
SUM_TOLERANCE = 1e-9
# the program takes the std as sqrt(mean(a^2) - mean(a)^2); near zero spread
# that difference carries a few ulp of rounding, and its root up to ~3e-8
STD_TOLERANCE = 1e-7

REPRODUCE_FILES = frozenset(
    ["features.csv", "accuracy_per_fold.csv", "accuracy_summary.csv",
     "subset_per_fold.csv", "subset_summary.csv", "sweetspot_grid.csv",
     "sweetspot_best.csv", "model_svm_body_style.json", "infer_svm_body_style.c"]
    + [f"confusion_{t}_{m}.csv" for t in ("binary", "size_based", "body_style")
       for m in ("svm", "rf")]
    + [f"importance_{t}.csv" for t in ("binary", "size_based", "body_style")]
)


def majority_share(labels) -> float:
    labels = list(labels)
    return max(labels.count(lab) for lab in set(labels)) / len(labels)


def check_above_majority(acc: dict[str, float], labels) -> list[str]:
    floor = majority_share(labels)
    return [f"{name} accuracy {value:.4f} is not above the majority share {floor:.4f}"
            for name, value in acc.items() if not value > floor]


def check_repeats_agree(results: list) -> list[str]:
    """Rounds on the same inputs must give the same outputs."""
    return [f"round {r} differs from round 0"
            for r, result in enumerate(results[1:], start=1) if result != results[0]]


# ---------------------------------------------------------------------------
# roadside


def check_one_vehicle(records) -> list[str]:
    return [f"trace {i} yielded {len(rec['vehicles'])} vehicles"
            for i, rec in enumerate(records) if len(rec["vehicles"]) != 1]


def check_directions(records) -> list[str]:
    expected = {1: "forward", -1: "wrong_way"}
    problems = []
    for i, rec in enumerate(records):
        for vehicle in rec["vehicles"]:
            if vehicle["direction"] != expected[rec["truth_direction"]]:
                problems.append(f"trace {i}: direction {vehicle['direction']!r}, "
                                f"truth {expected[rec['truth_direction']]!r}")
    return problems


def check_speed(records) -> list[str]:
    errors = []
    for rec in records:
        for vehicle in rec["vehicles"]:
            if vehicle["v_mps"] is None:
                errors.append(math.inf)
            else:
                errors.append(abs(abs(vehicle["v_mps"]) - rec["truth_speed"]) / rec["truth_speed"])
    if not errors:
        return ["no vehicle speeds to check"]
    median = statistics.median(errors)
    if not median <= SPEED_TOLERANCE:
        return [f"median relative speed error {median:.4f} exceeds {SPEED_TOLERANCE}"]
    return []


def roadside_accuracy(records, key: str) -> float:
    hits = sum(1 for rec in records
               if rec["vehicles"] and rec["vehicles"][0][key] == rec["label"])
    return hits / len(records)


def roadside_checks(passes: list[list[dict]]) -> dict[str, list[str]]:
    records = passes[0]
    acc = {"svm": roadside_accuracy(records, "svm"), "rf": roadside_accuracy(records, "rf")}
    return {
        "one_vehicle_per_trace": check_one_vehicle(records),
        "direction_matches_truth": check_directions(records),
        "median_speed_error": check_speed(records),
        "above_majority": check_above_majority(acc, [rec["label"] for rec in records]),
        "passes_agree": check_repeats_agree(passes),
    }


# ---------------------------------------------------------------------------
# reproduce


def check_summary(name: str, folds, mean: float, std: float) -> list[str]:
    folds = [float(a) for a in folds]
    want_mean = statistics.fmean(folds)
    want_std = statistics.pstdev(folds)
    problems = []
    if abs(want_mean - mean) > 1e-12:
        problems.append(f"{name}: mean {mean!r} but folds give {want_mean!r}")
    if abs(want_std - std) > STD_TOLERANCE:
        problems.append(f"{name}: std {std!r} but folds give {want_std!r}")
    return problems


def check_rows_sum_to_one(name: str, rows) -> list[str]:
    return [f"{name}: row {i} sums to {sum(row)!r}"
            for i, row in enumerate(rows) if abs(sum(row) - 1.0) > SUM_TOLERANCE]


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def tree_digest(root: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        digest.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(root, name), "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def check_files(root: str) -> list[str]:
    present = set(os.listdir(root))
    problems = [f"missing {name}" for name in sorted(REPRODUCE_FILES - present)]
    problems += [f"unexpected {name}" for name in sorted(present - REPRODUCE_FILES)]
    return problems


def check_summary_file(root: str, per_fold: str, summary: str) -> list[str]:
    folds: dict[tuple, list[float]] = {}
    for row in read_csv(os.path.join(root, per_fold)):
        folds.setdefault((row["taxonomy"], row["model"], row["subset"]), []).append(
            float(row["accuracy"]))
    problems = []
    seen = set()
    for row in read_csv(os.path.join(root, summary)):
        key = (row["taxonomy"], row["model"], row["subset"])
        seen.add(key)
        if key not in folds:
            problems.append(f"{summary}: {key} has no per-fold rows")
            continue
        problems += check_summary(f"{summary} {key}", folds[key],
                                  float(row["acc_mean"]), float(row["acc_std"]))
    problems += [f"{per_fold}: {key} has no summary row" for key in sorted(set(folds) - seen)]
    return problems


def check_distributions(root: str) -> list[str]:
    problems = []
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if name.startswith("confusion_"):
            rows = [[float(v) for k, v in row.items() if k != "class"] for row in read_csv(path)]
            problems += check_rows_sum_to_one(name, rows)
        elif name.startswith("importance_"):
            groups: dict[str, list[float]] = {}
            for row in read_csv(path):
                groups.setdefault(row["group"], []).append(float(row["importance"]))
            problems += check_rows_sum_to_one(name, list(groups.values()))
    return problems


def best_cell(grid: list[dict], platform: str) -> dict | None:
    """The documented rule: highest accuracy, then fewer bytes, then lower depth."""
    fitting = [cell for cell in grid if cell[f"fits_{platform}"] == "1"]
    if not fitting:
        return None
    return min(fitting, key=lambda c: (-float(c["acc_mean"]), int(c["code_bytes"]),
                                       int(c["max_depth"])))


def check_sweetspot(root: str) -> list[str]:
    grid = read_csv(os.path.join(root, "sweetspot_grid.csv"))
    best_rows = read_csv(os.path.join(root, "sweetspot_best.csv"))
    problems = []
    if not best_rows:
        problems.append("sweetspot_best.csv has no platform rows")
    for row in best_rows:
        cell = best_cell(grid, row["platform"])
        if cell is None:
            want = {"found": "0", "n_trees": "", "max_depth": "", "acc_mean": "", "code_bytes": ""}
        else:
            want = {"found": "1", "n_trees": cell["n_trees"], "max_depth": cell["max_depth"],
                    "acc_mean": cell["acc_mean"], "code_bytes": cell["code_bytes"]}
        for key, value in want.items():
            if row[key] != value:
                problems.append(f"sweetspot_best {row['platform']}: {key} {row[key]!r}, "
                                f"grid rule gives {value!r}")
    return problems


_HARNESS = """#include <stdio.h>
extern int predict(const double features[%d]);
int main(void)
{
    double f[%d];
    int i;
    for (;;) {
        for (i = 0; i < %d; ++i) {
            if (scanf("%%lf", &f[i]) != 1) {
                return 0;
            }
        }
        printf("%%d\\n", predict(f));
    }
}
"""


def scaled_rows(root: str, model: dict) -> list[list[float]]:
    """Feature rows mapped onto [-1, 1] with the model file's min-max ranges."""
    lo, hi = model["scaling"]["lo"], model["scaling"]["hi"]
    rows = []
    with open(os.path.join(root, "features.csv"), newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for raw in reader:
            row = []
            for value, a, b in zip((float(v) for v in raw[1:]), lo, hi):
                s = 0.0 if b - a <= 0 else 2.0 * (value - a) / (b - a) - 1.0
                row.append(min(max(s, -1.0), 1.0))
            rows.append(row)
    return rows


def json_svm_predict(model: dict, row: list[float]) -> int:
    """One-vs-one vote in the emitted C's arithmetic order; ties break low."""
    votes = [0] * len(model["model"]["classes"])
    for pair in model["model"]["pairs"]:
        w = pair["weights"]
        acc = w[-1]
        for weight, value in zip(w[:-1], row):
            acc += weight * value
        votes[pair["pos"] if acc >= 0.0 else pair["neg"]] += 1
    return max(range(len(votes)), key=lambda k: (votes[k], -k))


def check_c_predictions(root: str, build_dir: str) -> list[str]:
    with open(os.path.join(root, "model_svm_body_style.json"), encoding="utf-8") as fh:
        model = json.load(fh)
    rows = scaled_rows(root, model)
    dim = len(rows[0])
    os.makedirs(build_dir, exist_ok=True)
    harness = os.path.join(build_dir, "harness.c")
    exe = os.path.join(build_dir, "infer")
    with open(harness, "w", encoding="utf-8") as fh:
        fh.write(_HARNESS % (dim, dim, dim))
    env = dict(os.environ, TMPDIR=build_dir)
    try:
        built = subprocess.run(
            ["cc", "-std=c89", "-pedantic", "-Wall", "-Werror", "-O0", "-o", exe,
             os.path.join(root, "infer_svm_body_style.c"), harness],
            capture_output=True, text=True, env=env, timeout=60,
        )
    except FileNotFoundError:
        return ["no C compiler 'cc' on PATH"]
    if built.returncode != 0:
        return [f"emitted C failed to compile: {built.stderr.strip()[:500]}"]
    stream = "\n".join(" ".join(repr(v) for v in row) for row in rows) + "\n"
    ran = subprocess.run([exe], input=stream, capture_output=True, text=True, timeout=60)
    if ran.returncode != 0:
        return [f"compiled predictor exited with {ran.returncode}"]
    got = [int(tok) for tok in ran.stdout.split()]
    want = [json_svm_predict(model, row) for row in rows]
    if len(got) != len(want):
        return [f"C predictor answered {len(got)} of {len(want)} rows"]
    return [f"row {i}: C predicts {g}, model file gives {w}"
            for i, (g, w) in enumerate(zip(got, want)) if g != w]


def reproduce_checks(root: str, digests: list[str], build_dir: str,
                     recorded: str | None) -> dict[str, list[str]]:
    missing = check_files(root)
    if any(p.startswith("missing") for p in missing):
        return {"files_present": missing}
    digest_problems = [f"round {r} digest {d[:12]} differs from round 0 {digests[0][:12]}"
                       for r, d in enumerate(digests[1:], start=1) if d != digests[0]]
    if recorded is not None and recorded != digests[0]:
        digest_problems.append(f"digest {digests[0][:12]} differs from an earlier run's "
                               f"{recorded[:12]} of the same code and seed")
    return {
        "files_present": missing,
        "summaries_recomputed": (
            check_summary_file(root, "accuracy_per_fold.csv", "accuracy_summary.csv")
            + check_summary_file(root, "subset_per_fold.csv", "subset_summary.csv")),
        "rows_sum_to_one": check_distributions(root),
        "sweetspot_rule": check_sweetspot(root),
        "c_matches_model": check_c_predictions(root, build_dir),
        "output_digest_repeats": digest_problems,
    }
