"""Command-line entry point for the trace-to-deployment pipeline.

Subcommands cover every stage: ``simulate`` writes labeled trace files,
``detect`` segments one trace, ``extract`` builds the feature matrix,
``train``/``evaluate``/``confusion`` fit and score models, ``importance``
and ``sweetspot`` run the model analyses, ``export`` emits embedded inference
source, and ``reproduce`` regenerates all desk-scale result tables in one go.

Every run is fully determined by its flags plus input files.  All randomness
derives from the single ``--seed`` flag: each stage hashes its name together
with the master seed (sha256 of ``"<stage>:<seed>"``), so stages are decoupled
but reproducible.  Exit codes: 0 success, 2 usage, 3 malformed input file,
4 invalid configuration, 5 no model fits the requested platform.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import detect, evaluate, export, features, importance, learn, simulate
from .tables import TraceFormatError, write_table
from .topology import ConfigError, Topology, SystemParams, get_taxonomy, load_system_config

EXIT_OK = 0
EXIT_USAGE = 2
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


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    seed: int = DEFAULT_SEED
    classes: str = "body_style"
    count: int = 100
    in_path: str | None = None
    traces_dir: str | None = None
    features_path: str | None = None
    model_path: str | None = None
    out: str | None = None
    out_events: str | None = None
    out_observations: str | None = None
    out_results: str | None = None
    out_summary: str | None = None
    params_path: str | None = None
    taxonomy: str = "binary"
    model_kind: str = "svm"
    k: int = 10
    c: float = 1.0
    epochs: int = 50
    n_trees: int = 100
    max_depth: int = 10
    subset_ids: tuple[str, ...] = ()
    platform: str | None = None
    tree_grid: tuple[int, ...] = (10, 25, 50, 100)
    depth_grid: tuple[int, ...] = (4, 8, 12, 16)


def _load_params(config: RunConfig) -> tuple[Topology, SystemParams]:
    if config.params_path in (None, "default"):
        return Topology(), SystemParams()
    return load_system_config(config.params_path)


def _model_spec(config: RunConfig) -> evaluate.ModelSpec:
    return evaluate.ModelSpec(
        kind=config.model_kind,
        c=config.c,
        epochs=config.epochs,
        n_trees=config.n_trees,
        max_depth=config.max_depth,
    )


# ---------------------------------------------------------------------------
# stage implementations


def _run_simulate(config: RunConfig) -> int:
    topology, params = _load_params(config)
    templates = simulate.templates_for(config.classes)
    if config.classes == "body_style":
        counts = simulate.proportional_counts(config.count)
    else:
        base = config.count // len(templates)
        counts = {t.label: base for t in templates}
        counts[templates[0].label] += config.count - base * len(templates)
    dataset = simulate.generate_dataset(
        templates, counts, derive_seed(config.seed, "simulate"), topology, params
    )
    os.makedirs(config.out, exist_ok=True)
    label_rows = []
    width = max(4, len(str(len(dataset) - 1)))
    for i, (bundle, label) in enumerate(dataset):
        name = f"trace_{i:0{width}d}.csv"
        simulate.write_trace_csv(os.path.join(config.out, name), bundle)
        truth = bundle.truth
        label_rows.append((name, label, truth.speed_mps, truth.length_m, truth.direction))
    simulate.write_labels_csv(os.path.join(config.out, "labels.csv"), label_rows)
    print(f"wrote {len(dataset)} traces and labels.csv to {config.out}")
    return EXIT_OK


def _run_detect(config: RunConfig) -> int:
    topology, params = _load_params(config)
    bundle = simulate.read_trace_csv(config.in_path)
    observations, _ = detect.process_bundle(bundle, topology, params)
    out_events = config.out_events or "events.csv"
    out_obs = config.out_observations or "observations.csv"
    detect.write_events_csv(out_events, observations)
    detect.write_observations_csv(out_obs, observations)
    print(f"detected {len(observations)} vehicle(s); wrote {out_events} and {out_obs}")
    return EXIT_OK


def _run_extract(config: RunConfig) -> int:
    topology, params = _load_params(config)
    labels_path = os.path.join(config.traces_dir, "labels.csv")
    rows = simulate.read_labels_csv(labels_path)
    matrix_rows = []
    labels = []
    for trace_file, label, _, _, _ in rows:
        bundle = simulate.read_trace_csv(os.path.join(config.traces_dir, trace_file))
        for vec in features.featurize_bundle(bundle, topology, params):
            matrix_rows.append(vec.values)
            labels.append(label)
    matrix = np.vstack(matrix_rows) if matrix_rows else np.empty((0, features.N_FEATURES))
    features.write_features_csv(config.out, matrix, labels)
    print(f"wrote {len(labels)} feature rows to {config.out}")
    return EXIT_OK


def _run_train(config: RunConfig) -> int:
    x, labels = features.read_features_csv(config.features_path)
    taxonomy = get_taxonomy(config.taxonomy)
    y_idx = taxonomy.encode(labels)
    scaling = features.fit_scaling(x)
    x_scaled = scaling.apply(x)
    spec = _model_spec(config)
    model = evaluate.train_model(
        x_scaled, y_idx, taxonomy.classes, spec, derive_seed(config.seed, "train")
    )
    learn.save_model(config.out, learn.ModelBundle(taxonomy, scaling, model))
    print(f"trained {spec.describe()} on {len(labels)} rows; wrote {config.out}")
    return EXIT_OK


def _run_evaluate(config: RunConfig) -> int:
    x, labels = features.read_features_csv(config.features_path)
    taxonomy = get_taxonomy(config.taxonomy)
    spec = _model_spec(config)
    seed = derive_seed(config.seed, "evaluate")
    result_rows = []
    summary_rows = []
    if config.subset_ids:
        specs = [evaluate.subset_by_id(sid) for sid in config.subset_ids]
        pairs = evaluate.subset_evaluation(
            x, labels, taxonomy, spec, specs, k=config.k, seed=seed
        )
        for subset, report in pairs:
            _add_report_rows(result_rows, summary_rows, report, report.model, subset.id)
    else:
        report = evaluate.cross_validate(x, labels, taxonomy, spec, k=config.k, seed=seed)
        _add_report_rows(result_rows, summary_rows, report, report.model, "A")
    out_results = config.out_results or "results.csv"
    out_summary = config.out_summary or "summary.csv"
    evaluate.write_results_csv(out_results, result_rows)
    evaluate.write_summary_csv(out_summary, summary_rows)
    for taxonomy_name, model, subset, mean, std in summary_rows:
        print(f"{taxonomy_name} {model} subset {subset}: ACC = {mean:.4f} +/- {std:.4f}")
    return EXIT_OK


def _run_confusion(config: RunConfig) -> int:
    x, labels = features.read_features_csv(config.features_path)
    taxonomy = get_taxonomy(config.taxonomy)
    spec = _model_spec(config)
    report = evaluate.cross_validate(
        x, labels, taxonomy, spec, k=config.k, seed=derive_seed(config.seed, "evaluate")
    )
    evaluate.write_confusion_csv(config.out, report.confusion, taxonomy)
    print(f"wrote confusion matrix for {taxonomy.name}/{report.model} to {config.out}")
    return EXIT_OK


def _run_importance(config: RunConfig) -> int:
    bundle = learn.load_model(config.model_path)
    if not isinstance(bundle.model, learn.SvmEnsemble):
        raise ConfigError("importance analysis needs an svm_ensemble model file")
    matrix = importance.importance_multiclass(bundle.model)
    importance.write_importance_csv(config.out, matrix)
    print(f"wrote importance matrix ({len(matrix.groups)} groups) to {config.out}")
    return EXIT_OK


def _run_export(config: RunConfig) -> int:
    bundle = learn.load_model(config.model_path)
    estimate = export.estimate_memory(bundle.model)
    if config.platform is not None:
        profile = export.platform_by_name(config.platform)
        if not estimate.fits[profile.name]:
            raise NoFitError(
                f"model needs {estimate.code_bytes} B, exceeding the "
                f"{profile.program_memory_bytes} B budget of {profile.name}"
            )
    source = export.emit_inference_source(bundle.model)
    with open(config.out, "w", encoding="utf-8") as fh:
        fh.write(source)
    ops = export.count_operations(bundle.model)
    print(
        f"wrote {config.out}: {estimate.code_bytes} B estimated, "
        f"{ops} ops/prediction, fits: {estimate.fits}"
    )
    return EXIT_OK


def _run_sweetspot(config: RunConfig) -> int:
    x, labels = features.read_features_csv(config.features_path)
    taxonomy = get_taxonomy(config.taxonomy)
    profile = export.platform_by_name(config.platform or "msp")
    result = export.sweet_spot_search(
        x, labels, taxonomy, profile,
        tree_counts=config.tree_grid, depths=config.depth_grid,
        k=config.k, seed=derive_seed(config.seed, "sweetspot"),
    )
    if config.out:
        _write_grid_csv(config.out, result.grid)
    if not result.found:
        raise NoFitError(f"no grid configuration fits platform {profile.name}")
    print(
        f"sweet spot on {profile.name}: {result.n_trees} trees, depth {result.max_depth}, "
        f"ACC {result.acc_mean:.4f}, {result.code_bytes} B"
    )
    return EXIT_OK


def _write_grid_csv(path: str, grid: list[dict]) -> None:
    write_table(
        path,
        ["n_trees", "max_depth", "acc_mean", "acc_std", "code_bytes", "op_count"]
        + [f"fits_{p.name}" for p in export.PLATFORMS],
        (
            [cell["n_trees"], cell["max_depth"], cell["acc_mean"], cell["acc_std"],
             cell["code_bytes"], cell["op_count"]]
            + [int(cell["code_bytes"] <= p.program_memory_bytes) for p in export.PLATFORMS]
            for cell in grid
        ),
    )


def _add_report_rows(result_rows: list, summary_rows: list,
                     report: evaluate.EvaluationReport, model: str, subset: str) -> None:
    """Append a cross-validation report's per-fold rows and its summary row."""
    for fold, acc in enumerate(report.fold_accuracies.tolist()):
        result_rows.append((report.taxonomy, model, subset, fold, acc))
    summary_rows.append((report.taxonomy, model, subset, report.acc_mean, report.acc_std))


def _run_reproduce(config: RunConfig) -> int:
    """Regenerate the desk-scale analogues of all result tables."""
    topology, params = _load_params(config)
    out = config.out
    os.makedirs(out, exist_ok=True)
    taxonomies = [get_taxonomy(name) for name in ("binary", "size_based", "body_style")]

    counts = simulate.proportional_counts(config.count)
    dataset = simulate.generate_dataset(
        simulate.BODY_STYLE_TEMPLATES, counts,
        derive_seed(config.seed, "reproduce-corpus"), topology, params,
    )
    x, labels = features.dataset_features(dataset, topology, params)
    features.write_features_csv(os.path.join(out, "features.csv"), x, labels)

    eval_seed = derive_seed(config.seed, "reproduce-evaluate")
    svm_spec = evaluate.ModelSpec(kind="svm", c=config.c, epochs=config.epochs)
    rf_spec = evaluate.ModelSpec(kind="rf", n_trees=config.n_trees, max_depth=config.max_depth)

    result_rows, summary_rows = [], []
    for taxonomy in taxonomies:
        for spec in (svm_spec, rf_spec):
            report = evaluate.cross_validate(
                x, labels, taxonomy, spec, k=config.k, seed=eval_seed
            )
            _add_report_rows(result_rows, summary_rows, report, spec.kind, "A")
            evaluate.write_confusion_csv(
                os.path.join(out, f"confusion_{taxonomy.name}_{spec.kind}.csv"),
                report.confusion, taxonomy,
            )
            print(f"{taxonomy.name:>10} {spec.kind}: ACC {report.acc_mean:.4f} +/- {report.acc_std:.4f}")
    evaluate.write_results_csv(os.path.join(out, "accuracy_per_fold.csv"), result_rows)
    evaluate.write_summary_csv(os.path.join(out, "accuracy_summary.csv"), summary_rows)

    # per-taxonomy importance from ensembles trained on the full corpus
    train_seed = derive_seed(config.seed, "reproduce-train")
    scaling = features.fit_scaling(x)
    x_scaled = scaling.apply(x)
    for taxonomy in taxonomies:
        ensemble = learn.train_svm_ensemble(
            x_scaled, taxonomy.encode(labels), taxonomy.classes,
            c=config.c, epochs=config.epochs, seed=train_seed,
        )
        matrix = importance.importance_multiclass(ensemble)
        importance.write_importance_csv(
            os.path.join(out, f"importance_{taxonomy.name}.csv"), matrix
        )
        if taxonomy.name == "body_style":
            learn.save_model(
                os.path.join(out, "model_svm_body_style.json"),
                learn.ModelBundle(taxonomy, scaling, ensemble),
            )
            with open(os.path.join(out, "infer_svm_body_style.c"), "w", encoding="utf-8") as fh:
                fh.write(export.emit_inference_source(ensemble))

    # 20-subset study, all taxonomies, shared folds per taxonomy; a lighter
    # training budget keeps the 60 cells tractable
    subset_seed = derive_seed(config.seed, "reproduce-subsets")
    subset_spec = evaluate.ModelSpec(kind="svm", c=config.c,
                                     epochs=min(config.epochs, 40))
    subset_results, subset_summary = [], []
    for taxonomy in taxonomies:
        pairs = evaluate.subset_evaluation(
            x, labels, taxonomy, subset_spec, evaluate.BUILTIN_SUBSETS,
            k=config.k, seed=subset_seed,
        )
        for subset, report in pairs:
            _add_report_rows(subset_results, subset_summary, report, "svm", subset.id)
    evaluate.write_results_csv(os.path.join(out, "subset_per_fold.csv"), subset_results)
    evaluate.write_summary_csv(os.path.join(out, "subset_summary.csv"), subset_summary)
    print(f"subset study: {len(subset_summary)} cells")

    # forest parameter grid against all platform budgets
    sweet_seed = derive_seed(config.seed, "reproduce-sweetspot")
    body = get_taxonomy("body_style")
    grid = export.grid_search(
        x, labels, body,
        tree_counts=config.tree_grid, depths=config.depth_grid,
        k=min(config.k, 5), seed=sweet_seed,
    )
    best_rows = []
    for profile in export.PLATFORMS:
        result = export.best_fitting(grid, profile)
        best_rows.append([profile.name, int(result.found), result.n_trees,
                          result.max_depth, result.acc_mean, result.code_bytes])
        status = (
            f"{result.n_trees} trees depth {result.max_depth} ACC {result.acc_mean:.4f}"
            if result.found else "no fit"
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rftraffic",
        description="radio-fingerprint vehicle detection and classification pipeline",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed (default 7)")
    # accepted before or after the subcommand; the subparser copy only
    # overrides when given explicitly
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", parents=[common], help="generate labeled synthetic traces")
    p.add_argument("--classes", choices=("binary", "body_style"), default="body_style")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--params", dest="params_path", default="default")

    p = sub.add_parser("detect", parents=[common], help="segment one trace file into vehicles")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--params", dest="params_path", default="default")
    p.add_argument("--out-events", dest="out_events", default="events.csv")
    p.add_argument("--out-observations", dest="out_observations", default="observations.csv")

    p = sub.add_parser("extract", parents=[common], help="feature matrix from a trace directory")
    p.add_argument("--traces", dest="traces_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--params", dest="params_path", default="default")

    def add_model_flags(p):
        p.add_argument("--taxonomy", choices=("binary", "size_based", "body_style"),
                       default="binary")
        p.add_argument("--model", dest="model_kind", choices=("svm", "rf"), default="svm")
        p.add_argument("--k", type=int, default=10)
        p.add_argument("--C", dest="c", type=float, default=1.0)
        p.add_argument("--epochs", type=int, default=50)
        p.add_argument("--n-trees", dest="n_trees", type=int, default=100)
        p.add_argument("--max-depth", dest="max_depth", type=int, default=10)

    p = sub.add_parser("train", parents=[common], help="fit a model on a feature matrix")
    p.add_argument("--features", dest="features_path", required=True)
    p.add_argument("--out", required=True)
    add_model_flags(p)

    p = sub.add_parser("evaluate", parents=[common], help="k-fold cross validation, optionally per link subset")
    p.add_argument("--features", dest="features_path", required=True)
    p.add_argument("--subsets", default="",
                   help="comma-separated subset ids A..T, or 'all'")
    p.add_argument("--out-results", dest="out_results", default="results.csv")
    p.add_argument("--out-summary", dest="out_summary", default="summary.csv")
    add_model_flags(p)

    p = sub.add_parser("confusion", parents=[common], help="pooled row-normalized confusion matrix")
    p.add_argument("--features", dest="features_path", required=True)
    p.add_argument("--out", required=True)
    add_model_flags(p)

    p = sub.add_parser("importance", parents=[common], help="per-group SVM importance matrix")
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("export", parents=[common], help="emit standalone C inference source")
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--platform", choices=("msp", "atmega", "esp"))

    p = sub.add_parser("sweetspot", parents=[common], help="forest grid search under a memory budget")
    p.add_argument("--features", dest="features_path", required=True)
    p.add_argument("--platform", choices=("msp", "atmega", "esp"), default="msp")
    p.add_argument("--tree-grid", dest="tree_grid", type=_int_tuple, default=(10, 25, 50, 100))
    p.add_argument("--depth-grid", dest="depth_grid", type=_int_tuple, default=(4, 8, 12, 16))
    p.add_argument("--out", help="grid CSV output path")
    add_model_flags(p)

    p = sub.add_parser("reproduce", parents=[common], help="regenerate all desk-scale result tables")
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


_HANDLERS = {
    "simulate": _run_simulate,
    "detect": _run_detect,
    "extract": _run_extract,
    "train": _run_train,
    "evaluate": _run_evaluate,
    "confusion": _run_confusion,
    "importance": _run_importance,
    "export": _run_export,
    "sweetspot": _run_sweetspot,
    "reproduce": _run_reproduce,
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {}
    for key, value in vars(args).items():
        if key == "subsets":
            if value == "all":
                kwargs["subset_ids"] = tuple(s.id for s in evaluate.BUILTIN_SUBSETS)
            elif value:
                kwargs["subset_ids"] = tuple(part.strip() for part in value.split(",") if part)
        elif key in fields and value is not None:
            kwargs[key] = value
    return RunConfig(**kwargs)


def run(config: RunConfig) -> int:
    """Execute one pipeline stage; returns the process exit status."""
    handler = _HANDLERS.get(config.subcommand)
    if handler is None:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    return handler(config)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(config_from_args(args))
    except TraceFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoFitError as exc:
        print(f"no fit: {exc}", file=sys.stderr)
        return EXIT_NOFIT
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
