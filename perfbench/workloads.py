"""The two benchmark workloads.

Each is a closed loop with one caller in this process: it sets up its inputs
from the seed (several times, keeping the last), then repeats whole rounds of
the same operations until the run's seconds are used, and checks the outputs.

* ``roadside`` classifies one vehicle at a time from its trace file, the
  deployed path: parsing, detection, feature extraction and single-row
  prediction carry the time and nothing is trained.
* ``reproduce`` runs ``rftraffic reproduce`` in process: many small fits, the
  subset study, the forest grid, C emission and the result-table writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks
from rftraffic import cli, detect, evaluate, features, learn, simulate
from rftraffic.topology import SystemParams, Topology, get_taxonomy

TOPOLOGY = Topology()
PARAMS = SystemParams()
BODY = get_taxonomy("body_style")

SETUP_REPEATS = 3

# model recipes of the paper's body-style experiments, as `reproduce` uses them
SVM_SPEC = evaluate.ModelSpec(kind="svm", c=10.0, epochs=120)
RF_SPEC = evaluate.ModelSpec(kind="rf", n_trees=100, max_depth=12)

ROADSIDE_TRAIN = 240  # training corpus, seeded apart from the traces it classifies
ROADSIDE_POOL = 200  # trace files classified in every pass
ROADSIDE_WRONG_WAY = 20  # pool vehicles driving the other way
MIN_VEHICLES = 1000  # at least ten vehicles lie beyond the p99
# a round's time is mostly per-fit overhead, so a smaller corpus hardly
# shortens it, while its body-style accuracies would vary more from seed to
# seed (their spread over ten seeds is ~0.06 at 90 and ~0.1 at 60); a round
# takes about half a run, and the median needs two
REPRODUCE_COUNT = 90
REPRODUCE_ROUNDS = 2

# SeedSequence tags that keep each input's stream apart under one --seed
TAG_TRAIN, TAG_POOL, TAG_WRONG_WAY, TAG_SVM, TAG_RF = 1, 2, 3, 4, 5


@dataclass
class Outcome:
    """What a workload measured and checked."""

    setup_s: list[float]
    round_s: list[float]
    vehicles_per_round: int
    acc_svm: float
    acc_rf: float
    attempted: int
    failed: int
    checks: dict[str, list[str]]
    latencies_s: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def repeat_setup(setup, tracer):
    """Run ``setup`` SETUP_REPEATS times; returns (last result, each duration)."""
    times = []
    result = None
    for _ in range(SETUP_REPEATS):
        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            result = setup()
            times.append(time.perf_counter() - t0)
    return result, times


def timed_rounds(run_round, seconds: float, tracer, min_rounds: int = 1):
    """Whole rounds until the next one would end after ``seconds``."""
    times, results = [], []
    start = time.perf_counter()
    with tracer.span("bench.timed"):
        while True:
            with tracer.span("bench.round"):
                t0 = time.perf_counter()
                results.append(run_round())
                times.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(times) >= min_rounds and elapsed + times[-1] > seconds:
                return times, results


def _report_failure(what: str, failed_before: int) -> None:
    if failed_before == 0:
        print(f"{what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def _label_indices(labels) -> np.ndarray:
    return np.array([BODY.index(lab) for lab in labels], dtype=int)


# ---------------------------------------------------------------------------
# roadside


@dataclass
class RoadsideInputs:
    paths: list[str]
    truth: list[dict]
    scaling: features.ScalingTransform
    svm: learn.SvmEnsemble
    rf: learn.RandomForest


def _roadside_setup(seed: int, trace_dir: str) -> RoadsideInputs:
    train = simulate.generate_dataset(
        simulate.BODY_STYLE_TEMPLATES, simulate.proportional_counts(ROADSIDE_TRAIN),
        [seed, TAG_TRAIN], TOPOLOGY, PARAMS)
    x, labels = features.dataset_features(train, TOPOLOGY, PARAMS)
    y = _label_indices(labels)
    scaling = features.fit_scaling(x)
    x_scaled = scaling.apply(x)
    svm = learn.train_svm_ensemble(x_scaled, y, BODY.classes, c=SVM_SPEC.c,
                                   epochs=SVM_SPEC.epochs, seed=[seed, TAG_SVM])
    rf = learn.train_random_forest(x_scaled, y, BODY.classes, n_trees=RF_SPEC.n_trees,
                                   max_depth=RF_SPEC.max_depth, seed=[seed, TAG_RF])

    pool = simulate.generate_dataset(
        simulate.BODY_STYLE_TEMPLATES, simulate.proportional_counts(ROADSIDE_POOL),
        [seed, TAG_POOL], TOPOLOGY, PARAMS)
    wrong_way = set(np.random.default_rng([seed, TAG_WRONG_WAY]).choice(
        ROADSIDE_POOL, size=ROADSIDE_WRONG_WAY, replace=False).tolist())
    os.makedirs(trace_dir, exist_ok=True)
    paths, truth = [], []
    for i, (bundle, label) in enumerate(pool):
        if i in wrong_way:
            bundle = simulate.invert_direction(bundle)
        path = os.path.join(trace_dir, f"trace_{i:04d}.csv")
        simulate.write_trace_csv(path, bundle)
        paths.append(path)
        truth.append({"label": label, "truth_direction": bundle.truth.direction,
                      "truth_speed": bundle.truth.speed_mps})
    return RoadsideInputs(paths, truth, scaling, svm, rf)


def _classify_trace(path: str, inputs: RoadsideInputs) -> list[dict]:
    """The deployed chain for one trace file: read, detect, describe, classify."""
    bundle = simulate.read_trace_csv(path)
    observations, filtered = detect.process_bundle(bundle, TOPOLOGY, PARAMS)
    vehicles = []
    for obs in observations:
        vec = features.extract_features(obs, features.segments_for_observation(obs, filtered))
        row = inputs.scaling.apply(vec.values)
        vehicles.append({
            "direction": obs.direction,
            "v_mps": obs.v_mps,
            "svm": BODY.classes[int(inputs.svm.predict(row))],
            "rf": BODY.classes[int(inputs.rf.predict(row))],
        })
    return vehicles


def roadside(seed: int, seconds: float, out_dir: str, tracer) -> Outcome:
    trace_dir = os.path.join(out_dir, f"roadside-{seed}")
    inputs, setup_s = repeat_setup(lambda: _roadside_setup(seed, trace_dir), tracer)
    latencies: list[float] = []
    failed = 0

    def one_pass():
        nonlocal failed
        records = []
        for path, truth in zip(inputs.paths, inputs.truth):
            t0 = time.perf_counter()
            try:
                vehicles = _classify_trace(path, inputs)
            except Exception:
                _report_failure(path, failed)
                failed += 1
                vehicles = []
            latencies.append(time.perf_counter() - t0)
            records.append(dict(truth, vehicles=vehicles))
        return records

    min_passes = -(-MIN_VEHICLES // ROADSIDE_POOL)
    round_s, passes = timed_rounds(one_pass, seconds, tracer, min_rounds=min_passes)
    shutil.rmtree(trace_dir)
    records = passes[0]
    return Outcome(
        setup_s=setup_s,
        round_s=round_s,
        vehicles_per_round=ROADSIDE_POOL,
        acc_svm=checks.roadside_accuracy(records, "svm"),
        acc_rf=checks.roadside_accuracy(records, "rf"),
        attempted=ROADSIDE_POOL * len(passes),
        failed=failed,
        checks=checks.roadside_checks(passes),
        latencies_s=latencies,
    )


# ---------------------------------------------------------------------------
# reproduce


def _source_digest(src_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                digest.update(name.encode("utf-8") + b"\0" + fh.read())
    return digest.hexdigest()


def _recorded_digest(record_path: str, key: str, digest: str) -> str | None:
    """Earlier output digest for the same code and seed; records this one if new."""
    records = {}
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            records = json.load(fh)
    if key in records:
        return records[key]
    records[key] = digest
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
    return None


def reproduce(seed: int, seconds: float, out_dir: str, tracer) -> Outcome:
    # `reproduce` makes its own corpus from the seed; set-up is only the output
    # directory, so setup_s on this workload is mostly the program's import
    result_dir = os.path.join(out_dir, f"reproduce-{seed}")
    argv = ["reproduce", "--out", result_dir, "--count", str(REPRODUCE_COUNT),
            "--seed", str(seed)]
    _, setup_s = repeat_setup(lambda: shutil.rmtree(result_dir, ignore_errors=True), tracer)
    failed = 0

    def one_round():
        nonlocal failed
        shutil.rmtree(result_dir, ignore_errors=True)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            if status != cli.EXIT_OK:
                raise RuntimeError(f"rftraffic {' '.join(argv)} exited with {status}")
        except Exception:
            _report_failure("reproduce", failed)
            failed += 1
            return None
        return checks.tree_digest(result_dir)

    round_s, digests = timed_rounds(one_round, seconds, tracer, min_rounds=REPRODUCE_ROUNDS)
    digests = [d for d in digests if d is not None]
    if not digests:
        return Outcome(setup_s, round_s, REPRODUCE_COUNT, 0.0, 0.0,
                       len(round_s), failed, {"reproduce_ran": ["every round failed"]})
    src_dir = os.path.dirname(os.path.abspath(cli.__file__))
    key = f"{_source_digest(src_dir)}:{seed}:{REPRODUCE_COUNT}"
    recorded = _recorded_digest(os.path.join(out_dir, "reproduce-digests.json"), key, digests[0])
    summary = {(row["taxonomy"], row["model"], row["subset"]): float(row["acc_mean"])
               for row in checks.read_csv(os.path.join(result_dir, "accuracy_summary.csv"))}
    found = checks.reproduce_checks(result_dir, digests, os.path.join(out_dir, "cbuild"),
                                    recorded)
    return Outcome(
        setup_s=setup_s,
        round_s=round_s,
        vehicles_per_round=REPRODUCE_COUNT,
        acc_svm=summary.get(("body_style", "svm", "A"), 0.0),
        acc_rf=summary.get(("body_style", "rf", "A"), 0.0),
        attempted=len(round_s),
        failed=failed,
        checks=found,
        extra={"output_sha256": digests[0]},
    )


WORKLOADS = {"roadside": roadside, "reproduce": reproduce}
