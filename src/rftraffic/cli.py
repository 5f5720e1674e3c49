"""Command-line entry point for the trace-to-deployment pipeline.

Subcommands cover every stage: ``simulate`` writes labeled trace files,
``detect`` segments one trace, ``extract`` builds the feature matrix,
``train``/``evaluate``/``confusion`` fit and score models, ``importance``
and ``sweetspot`` run the model analyses, ``export`` emits embedded inference
source, and ``reproduce`` regenerates all desk-scale result tables in one go.

Every run is fully determined by its flags plus input files.  All randomness
derives from the single ``--seed`` flag: each stage hashes its name together
with the master seed (sha256 of ``"<stage>:<seed>"``), so stages are decoupled
but reproducible.  Exit codes: 0 success, 2 usage, 3 unreadable or malformed
input file, 4 invalid configuration, 5 no model fits the requested platform.

``reproduce`` runs its thirteen analyses (six cross-validations, three
full-corpus SVM fits, three subset studies and the forest grid) in a fork pool
with one worker per usable CPU, and inline when there is only one.  The bytes
it writes cannot depend on which: every analysis draws only from its own stage
seed, the parent collects the results in a fixed order, and every print and
file write happens in the parent in that order.

``reproduce`` and ``simulate`` hold one trace bundle at a time: they consume
``simulate.stream_dataset``, featurizing or writing each trace as it is made,
so their memory does not grow with ``--count`` by the size of the traces, and
the pool forks holding only the feature matrices.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import os
import sys

import numpy as np

from . import detect, evaluate, export, features, importance, learn, simulate
from .tables import TraceFormatError, write_table
from .topology import (
    BODY_STYLE, TAXONOMIES, ConfigError, SystemParams, Topology, get_taxonomy, load_system_config,
)

EXIT_OK = 0
EXIT_INPUT = 3
EXIT_CONFIG = 4
EXIT_NOFIT = 5

DEFAULT_SEED = 7


class NoFitError(RuntimeError):
    """No configuration fits the requested platform budget."""


def derive_seed(master: int, stage: str) -> int:
    """Per-stage seed: first 8 bytes of sha256 over 'stage:master'."""
    digest = hashlib.sha256(f"{stage}:{master}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _load_params(args: argparse.Namespace) -> tuple[Topology, SystemParams]:
    if args.params_path == "default":
        return Topology(), SystemParams()
    return load_system_config(args.params_path)


def _model_spec(args: argparse.Namespace) -> evaluate.ModelSpec:
    return evaluate.ModelSpec(
        kind=args.model_kind,
        c=args.c,
        epochs=args.epochs,
        n_trees=args.n_trees,
        max_depth=args.max_depth,
    )


def _read_features(path: str) -> tuple[np.ndarray, list[str]]:
    """The feature file's matrix and labels; a file without rows is an input error."""
    x, labels = features.read_features_csv(path)
    if not labels:
        raise TraceFormatError(f"{path}: no feature rows")
    return x, labels


# ---------------------------------------------------------------------------
# stage implementations


def _run_simulate(args: argparse.Namespace) -> int:
    topology, params = _load_params(args)
    templates = simulate.TEMPLATE_SETS[args.classes]
    # a binary corpus splits evenly, the odd trace going to the first template
    shares = None if args.classes == "body_style" else {t.label: 0.5 for t in templates}
    counts = simulate.proportional_counts(args.count, shares)
    dataset = simulate.stream_dataset(
        templates, counts, derive_seed(args.seed, "simulate"), topology, params
    )
    os.makedirs(args.out, exist_ok=True)
    label_rows = []
    total = sum(counts.values())
    width = max(4, len(str(total - 1)))
    for i, (bundle, label) in enumerate(dataset):
        name = f"trace_{i:0{width}d}.csv"
        simulate.write_trace_csv(os.path.join(args.out, name), bundle)
        truth = bundle.truth
        label_rows.append((name, label, truth.speed_mps, truth.length_m, truth.direction))
    simulate.write_labels_csv(os.path.join(args.out, "labels.csv"), label_rows)
    print(f"wrote {total} traces and labels.csv to {args.out}")
    return EXIT_OK


def _run_detect(args: argparse.Namespace) -> int:
    topology, params = _load_params(args)
    bundle = simulate.read_trace_csv(args.in_path)
    observations, _ = detect.process_bundle(bundle, topology, params)
    detect.write_events_csv(args.out_events, observations)
    detect.write_observations_csv(args.out_observations, observations)
    print(f"detected {len(observations)} vehicle(s); "
          f"wrote {args.out_events} and {args.out_observations}")
    return EXIT_OK


def _run_extract(args: argparse.Namespace) -> int:
    topology, params = _load_params(args)
    rows = simulate.read_labels_csv(os.path.join(args.traces_dir, "labels.csv"))
    matrix, labels = features.dataset_features(
        ((simulate.read_trace_csv(os.path.join(args.traces_dir, trace_file)), label)
         for trace_file, label, *_ in rows),
        topology, params,
    )
    features.write_features_csv(args.out, matrix, labels)
    print(f"wrote {len(labels)} feature rows to {args.out}")
    return EXIT_OK


def _run_train(args: argparse.Namespace) -> int:
    x, labels = _read_features(args.features_path)
    taxonomy = get_taxonomy(args.taxonomy)
    y_idx = taxonomy.encode(labels)
    scaling = features.fit_scaling(x)
    x_scaled = scaling.apply(x)
    spec = _model_spec(args)
    model = evaluate.train_model(
        x_scaled, y_idx, taxonomy.classes, spec, derive_seed(args.seed, "train")
    )
    learn.save_model(args.out, learn.ModelBundle(taxonomy, scaling, model))
    print(f"trained {spec.describe()} on {len(labels)} rows; wrote {args.out}")
    return EXIT_OK


def _cross_validate_file(
    args: argparse.Namespace, subset_ids: tuple[str, ...] = ("A",)
) -> list[tuple[evaluate.SubsetSpec, evaluate.EvaluationReport]]:
    """Cross-validate the feature file's model per link subset, in subset order.

    Subset A keeps every column, so the default is the plain k-fold run.
    """
    x, labels = _read_features(args.features_path)
    taxonomy = get_taxonomy(args.taxonomy)
    spec = _model_spec(args)
    subsets = [evaluate.subset_by_id(sid) for sid in subset_ids]
    return evaluate.subset_evaluation(x, labels, taxonomy, spec, subsets,
                                      k=args.k, seed=derive_seed(args.seed, "evaluate"))


def _write_cv_tables(results_path: str, summary_path: str,
                     cells: list[tuple[str, str, evaluate.EvaluationReport]]) -> None:
    """Per-fold and summary tables of ``(model, subset, report)`` cells, in order."""
    evaluate.write_results_csv(results_path, [
        (report.taxonomy, model, subset, fold, acc)
        for model, subset, report in cells
        for fold, acc in enumerate(report.fold_accuracies.tolist())
    ])
    evaluate.write_summary_csv(summary_path, [
        (report.taxonomy, model, subset, report.acc_mean, report.acc_std)
        for model, subset, report in cells
    ])


def _run_evaluate(args: argparse.Namespace) -> int:
    cells = [(report.model, subset.id, report)
             for subset, report in _cross_validate_file(args, args.subsets)]
    _write_cv_tables(args.out_results, args.out_summary, cells)
    for model, subset, report in cells:
        print(f"{report.taxonomy} {model} subset {subset}: "
              f"ACC = {report.acc_mean:.4f} +/- {report.acc_std:.4f}")
    return EXIT_OK


def _run_confusion(args: argparse.Namespace) -> int:
    [(_, report)] = _cross_validate_file(args)
    evaluate.write_confusion_csv(args.out, report.confusion, get_taxonomy(args.taxonomy))
    print(f"wrote confusion matrix for {report.taxonomy}/{report.model} to {args.out}")
    return EXIT_OK


def _run_importance(args: argparse.Namespace) -> int:
    bundle = learn.load_model(args.model_path)
    if not isinstance(bundle.model, learn.SvmEnsemble):
        raise ConfigError("importance analysis needs an svm_ensemble model file")
    matrix = importance.importance_multiclass(bundle.model)
    importance.write_importance_csv(args.out, matrix)
    print(f"wrote importance matrix ({len(matrix.groups)} groups) to {args.out}")
    return EXIT_OK


def _run_export(args: argparse.Namespace) -> int:
    bundle = learn.load_model(args.model_path)
    code_bytes = export.estimate_memory(bundle.model)
    if args.platform is not None:
        profile = export.platform_by_name(args.platform)
        if not profile.fits(code_bytes):
            raise NoFitError(
                f"model needs {code_bytes} B, exceeding the "
                f"{profile.program_memory_bytes} B budget of {profile.name}"
            )
    source = export.emit_inference_source(bundle.model)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(source)
    ops = export.count_operations(bundle.model)
    fits = {p.name: p.fits(code_bytes) for p in export.PLATFORMS}
    print(f"wrote {args.out}: {code_bytes} B estimated, {ops} ops/prediction, fits: {fits}")
    return EXIT_OK


def _run_sweetspot(args: argparse.Namespace) -> int:
    x, labels = _read_features(args.features_path)
    profile = export.platform_by_name(args.platform)
    grid = export.grid_search(
        x, labels, get_taxonomy(args.taxonomy),
        tree_counts=args.tree_grid, depths=args.depth_grid,
        k=args.k, seed=derive_seed(args.seed, "sweetspot"),
    )
    if args.out:
        _write_grid_csv(args.out, grid)
    best = export.best_fitting(grid, profile)
    if best is None:
        raise NoFitError(f"no grid configuration fits platform {profile.name}")
    print(
        f"sweet spot on {profile.name}: {best['n_trees']} trees, depth {best['max_depth']}, "
        f"ACC {best['acc_mean']:.4f}, {best['code_bytes']} B"
    )
    return EXIT_OK


def _write_grid_csv(path: str, grid: list[dict]) -> None:
    """The grid cells' own columns, then one 0/1 fit column per platform."""
    write_table(
        path,
        list(grid[0]) + [f"fits_{p.name}" for p in export.PLATFORMS],
        (list(cell.values()) + [int(p.fits(cell["code_bytes"])) for p in export.PLATFORMS]
         for cell in grid),
    )


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def _results_in_order(tasks: list, first: tuple[int, ...]):
    """Yield an iterator over ``task()`` for every task, in list order.

    With one usable CPU each task runs inline when its result is asked for.
    Otherwise a fork pool of up to one worker per usable CPU runs them, started
    in the order ``first`` (task indices), then the rest.  Leaving the block,
    also when a task raised, cancels what has not started and waits for the
    workers, so none outlives the call.
    """
    workers = min(_usable_cpus(), len(tasks))
    if workers < 2:
        yield (task() for task in tasks)
        return
    # imported here: loading them costs every other subcommand start-up time
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {}
        for i in list(first) + [i for i in range(len(tasks)) if i not in first]:
            futures[i] = pool.submit(tasks[i])
        yield (futures[i].result() for i in range(len(tasks)))
    finally:
        pool.shutdown(cancel_futures=True)


#: reproduce's tasks by their inline time at --count 90, longest first, so that
#: no worker is left with a long one at the end: the body_style subset study,
#: forest CV body_style, forest CV size_based, SVM CV body_style, the
#: size_based subset study, the grid, forest CV binary, the binary subset
#: study, then the short SVM tasks
_REPRODUCE_LONGEST_FIRST = (11, 5, 3, 4, 10, 12, 1, 9, 2, 8, 0, 7, 6)


def _run_reproduce(args: argparse.Namespace) -> int:
    """Regenerate the desk-scale analogues of all result tables."""
    topology, params = _load_params(args)
    svm_spec = evaluate.ModelSpec(kind="svm", c=args.c, epochs=args.epochs)
    rf_spec = evaluate.ModelSpec(kind="rf", n_trees=args.n_trees, max_depth=args.max_depth)
    # a lighter training budget keeps the 60 subset cells tractable
    subset_spec = evaluate.ModelSpec(kind="svm", c=args.c, epochs=min(args.epochs, 40))
    export.check_grid(args.tree_grid, args.depth_grid)
    counts = simulate.proportional_counts(args.count)
    if args.k < 2:
        raise ConfigError(f"fold count {args.k} must be at least 2")
    taxonomies = list(TAXONOMIES.values())

    # built before --out exists: a corpus too small for the folds writes nothing
    x, labels = features.dataset_features(
        simulate.stream_dataset(simulate.BODY_STYLE_TEMPLATES, counts,
                                derive_seed(args.seed, "reproduce-corpus"), topology, params),
        topology, params,
    )
    if args.k > len(labels):
        raise ConfigError(f"--k {args.k} exceeds the {len(labels)} vehicles in {args.count} traces")
    out = args.out
    os.makedirs(out, exist_ok=True)
    features.write_features_csv(os.path.join(out, "features.csv"), x, labels)
    scaling = features.fit_scaling(x)
    x_scaled = scaling.apply(x)

    # thirteen independent tasks, each seeded by its own stage seed, so their
    # results cannot depend on where or in which order they run
    eval_seed = derive_seed(args.seed, "reproduce-evaluate")
    train_seed = derive_seed(args.seed, "reproduce-train")
    subset_seed = derive_seed(args.seed, "reproduce-subsets")
    sweet_seed = derive_seed(args.seed, "reproduce-sweetspot")
    tasks = [
        functools.partial(evaluate.cross_validate, x, labels, taxonomy, spec,
                          k=args.k, seed=eval_seed)
        for taxonomy in taxonomies for spec in (svm_spec, rf_spec)
    ] + [
        # per-taxonomy SVM ensembles on the full corpus, for the importance files
        functools.partial(learn.train_svm_ensemble, x_scaled, taxonomy.encode(labels),
                          taxonomy.classes, c=args.c, epochs=args.epochs, seed=train_seed)
        for taxonomy in taxonomies
    ] + [
        # 20-subset study, all taxonomies, shared folds per taxonomy
        functools.partial(evaluate.subset_evaluation, x, labels, taxonomy, subset_spec,
                          evaluate.BUILTIN_SUBSETS, k=args.k, seed=subset_seed)
        for taxonomy in taxonomies
    ] + [
        # forest parameter grid against all platform budgets
        functools.partial(export.grid_search, x, labels, BODY_STYLE,
                          tree_counts=args.tree_grid, depths=args.depth_grid,
                          k=min(args.k, 5), seed=sweet_seed),
    ]

    with _results_in_order(tasks, _REPRODUCE_LONGEST_FIRST) as results:
        cells = []
        for taxonomy in taxonomies:
            for spec in (svm_spec, rf_spec):
                report = next(results)
                cells.append((spec.kind, "A", report))
                evaluate.write_confusion_csv(
                    os.path.join(out, f"confusion_{taxonomy.name}_{spec.kind}.csv"),
                    report.confusion, taxonomy,
                )
                print(f"{taxonomy.name:>10} {spec.kind}: ACC {report.acc_mean:.4f} +/- {report.acc_std:.4f}")
        _write_cv_tables(os.path.join(out, "accuracy_per_fold.csv"),
                         os.path.join(out, "accuracy_summary.csv"), cells)

        for taxonomy in taxonomies:
            ensemble = next(results)
            importance.write_importance_csv(
                os.path.join(out, f"importance_{taxonomy.name}.csv"),
                importance.importance_multiclass(ensemble),
            )
            if taxonomy is BODY_STYLE:
                learn.save_model(
                    os.path.join(out, "model_svm_body_style.json"),
                    learn.ModelBundle(taxonomy, scaling, ensemble),
                )
                with open(os.path.join(out, "infer_svm_body_style.c"), "w", encoding="utf-8") as fh:
                    fh.write(export.emit_inference_source(ensemble))

        cells = [("svm", subset.id, report)
                 for _ in taxonomies for subset, report in next(results)]
        _write_cv_tables(os.path.join(out, "subset_per_fold.csv"),
                         os.path.join(out, "subset_summary.csv"), cells)
        print(f"subset study: {len(cells)} cells")

        grid = next(results)

    best_rows = []
    for profile in export.PLATFORMS:
        best = export.best_fitting(grid, profile) or {}
        best_rows.append([profile.name, int(bool(best))] + [
            best.get(key) for key in ("n_trees", "max_depth", "acc_mean", "code_bytes")])
        status = (
            f"{best['n_trees']} trees depth {best['max_depth']} ACC {best['acc_mean']:.4f}"
            if best else "no fit"
        )
        print(f"sweet spot {profile.name}: {status}")
    _write_grid_csv(os.path.join(out, "sweetspot_grid.csv"), grid)
    write_table(os.path.join(out, "sweetspot_best.csv"),
                ["platform", "found", "n_trees", "max_depth", "acc_mean", "code_bytes"],
                best_rows)
    print(f"reproduce outputs written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _subset_ids(text: str) -> tuple[str, ...]:
    """Comma-separated link subset ids; 'all' is every built-in subset, none is A."""
    if text == "all":
        return tuple(s.id for s in evaluate.BUILTIN_SUBSETS)
    return tuple(part.strip() for part in text.split(",") if part) or ("A",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rftraffic",
        description="radio-fingerprint vehicle detection and classification pipeline",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"master seed (default {DEFAULT_SEED})")
    # accepted before or after the subcommand; the subparser copy only
    # overrides when given explicitly
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, help, *flags):
        p = sub.add_parser(name, parents=[common, *flags], help=help)
        p.set_defaults(handler=handler)
        return p

    # the flag groups, each command taking those it reads
    taxonomy = argparse.ArgumentParser(add_help=False)
    taxonomy.add_argument("--taxonomy", choices=tuple(TAXONOMIES), default="binary")
    folds = argparse.ArgumentParser(add_help=False)
    folds.add_argument("--k", type=int, default=10)
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", dest="model_kind", choices=evaluate.MODEL_KINDS, default="svm")
    model.add_argument("--C", dest="c", type=float, default=1.0)
    model.add_argument("--epochs", type=int, default=50)
    model.add_argument("--n-trees", dest="n_trees", type=int, default=100)
    model.add_argument("--max-depth", dest="max_depth", type=int, default=10)
    # read when the parser is built, so a profile added to the table is a choice
    platforms = tuple(p.name for p in export.PLATFORMS)

    p = command("simulate", _run_simulate, "generate labeled synthetic traces")
    p.add_argument("--classes", choices=tuple(simulate.TEMPLATE_SETS), default="body_style")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--params", dest="params_path", default="default")

    p = command("detect", _run_detect, "segment one trace file into vehicles")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--params", dest="params_path", default="default")
    p.add_argument("--out-events", dest="out_events", default="events.csv")
    p.add_argument("--out-observations", dest="out_observations", default="observations.csv")

    p = command("extract", _run_extract, "feature matrix from a trace directory")
    p.add_argument("--traces", dest="traces_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--params", dest="params_path", default="default")

    p = command("train", _run_train, "fit a model on a feature matrix", taxonomy, model)
    p.add_argument("--features", dest="features_path", required=True)
    p.add_argument("--out", required=True)

    p = command("evaluate", _run_evaluate, "k-fold cross validation, optionally per link subset",
                taxonomy, model, folds)
    p.add_argument("--features", dest="features_path", required=True)
    p.add_argument("--subsets", type=_subset_ids, default="",
                   help="comma-separated subset ids A..T, or 'all'")
    p.add_argument("--out-results", dest="out_results", default="results.csv")
    p.add_argument("--out-summary", dest="out_summary", default="summary.csv")

    p = command("confusion", _run_confusion, "pooled row-normalized confusion matrix",
                taxonomy, model, folds)
    p.add_argument("--features", dest="features_path", required=True)
    p.add_argument("--out", required=True)

    p = command("importance", _run_importance, "per-group SVM importance matrix")
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--out", required=True)

    p = command("export", _run_export, "emit standalone C inference source")
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--platform", choices=platforms)

    p = command("sweetspot", _run_sweetspot, "forest grid search under a memory budget",
                taxonomy, folds)
    p.add_argument("--features", dest="features_path", required=True)
    p.add_argument("--platform", choices=platforms, default="msp")
    p.add_argument("--tree-grid", dest="tree_grid", type=_int_tuple, default=(10, 25, 50, 100))
    p.add_argument("--depth-grid", dest="depth_grid", type=_int_tuple, default=(4, 8, 12, 16))
    p.add_argument("--out", help="grid CSV output path")

    p = command("reproduce", _run_reproduce, "regenerate all desk-scale result tables")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=600, help="corpus size")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--C", dest="c", type=float, default=10.0)
    p.add_argument("--epochs", type=int, default=120)
    p.add_argument("--n-trees", dest="n_trees", type=int, default=100)
    p.add_argument("--max-depth", dest="max_depth", type=int, default=12)
    p.add_argument("--tree-grid", dest="tree_grid", type=_int_tuple, default=(5, 20, 50, 100))
    p.add_argument("--depth-grid", dest="depth_grid", type=_int_tuple, default=(2, 6, 10, 14))
    p.add_argument("--params", dest="params_path", default="default")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (TraceFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoFitError as exc:
        print(f"no fit: {exc}", file=sys.stderr)
        return EXIT_NOFIT
    except (ConfigError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"configuration error: {message}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
