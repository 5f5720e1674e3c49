"""Standalone inference-source emission and microcontroller memory budgeting.

The emitter produces one freestanding C89 translation unit with exactly two
external symbols: ``int predict(const double features[92])`` and a version
string constant.  Model parameters are unrolled into static const tables; no
includes, no allocation, no library calls, so the unit compiles for bare-metal
targets.

Program-memory footprints are estimated with one declared cost model, the
module constants ``BYTES_PER_WEIGHT``, ``BYTES_PER_NODE`` and
``OVERHEAD_BYTES``, and checked against the built-in microcontroller profiles.
The sweet-spot search scores a forest parameter grid once (``grid_search``)
and picks, per profile, the most accurate configuration whose estimate fits
it (``best_fitting``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import __version__
from .evaluate import FoldPlan, build_fold_plan, fold_accuracy, fold_summary, scaled_folds
from .features import N_FEATURES, fit_scaling
from .learn import RandomForest, SvmEnsemble, train_random_forest, vote_counts
from .topology import Taxonomy


@dataclass(frozen=True)
class PlatformProfile:
    name: str
    program_memory_bytes: int
    ram_bytes: int


#: built-in microcontroller targets (program memory / RAM, decimal kB)
PLATFORMS: tuple[PlatformProfile, ...] = (
    PlatformProfile("msp", 16_320, 512),
    PlatformProfile("atmega", 32_000, 2_000),
    PlatformProfile("esp", 4_000_000, 532_000),
)


def platform_by_name(name: str) -> PlatformProfile:
    for profile in PLATFORMS:
        if profile.name == name:
            return profile
    raise KeyError(f"unknown platform {name!r} (expected msp, atmega or esp)")


#: declared byte costs of the emitted tables
BYTES_PER_WEIGHT = 4
BYTES_PER_NODE = 8
OVERHEAD_BYTES = 512


@dataclass(frozen=True)
class MemoryEstimate:
    code_bytes: int
    fits: dict[str, bool]


def estimate_memory(model: SvmEnsemble | RandomForest) -> MemoryEstimate:
    """Deterministic cost-model estimate plus a fit verdict per platform."""
    if isinstance(model, SvmEnsemble):
        tables = BYTES_PER_WEIGHT * sum(len(svm.beta) for svm in model.svms)
    else:
        tables = BYTES_PER_NODE * model.n_nodes
    code_bytes = OVERHEAD_BYTES + tables
    fits = {p.name: code_bytes <= p.program_memory_bytes for p in PLATFORMS}
    return MemoryEstimate(code_bytes=code_bytes, fits=fits)


def count_operations(model: SvmEnsemble | RandomForest) -> int:
    """Worst-case per-prediction operation count (multiply-adds or compares)."""
    if isinstance(model, SvmEnsemble):
        return sum(len(svm.beta) for svm in model.svms)
    if not model.trees:
        return 0
    packed = model.packed
    return int(np.maximum.reduceat(packed.node_depth, packed.roots).sum())


# ---------------------------------------------------------------------------
# C89 emission


def _c_float(value: float) -> str:
    text = repr(float(value))
    return text if any(ch in text for ch in ".e") else text + ".0"


def _c_int_table(name: str, values) -> str:
    body = ", ".join(str(int(v)) for v in values)
    return f"static const int {name}[{len(values)}] = {{ {body} }};"


def _c_double_table(name: str, values) -> str:
    body = ", ".join(_c_float(v) for v in values)
    return f"static const double {name}[{len(values)}] = {{ {body} }};"


def _emit_header(kind: str) -> list[str]:
    return [
        "/* generated vehicle-class inference routine; freestanding C89 */",
        f'const char predict_version[] = "rftraffic {__version__} {kind}";',
        "",
    ]


def _emit_vote_tail(n_classes: int) -> list[str]:
    return [
        "    best = 0;",
        f"    for (k = 1; k < {n_classes}; ++k) {{",
        "        if (votes[k] > votes[best]) {",
        "            best = k;",
        "        }",
        "    }",
        "    return best;",
        "}",
        "",
    ]


def _emit_svm(model: SvmEnsemble) -> str:
    n_pairs = len(model.svms)
    dim = len(model.svms[0].beta) - 1
    y = model.n_classes
    lines = _emit_header("svm_ensemble")
    rows = []
    for svm in model.svms:
        rows.append("{ " + ", ".join(_c_float(v) for v in svm.beta) + " }")
    lines.append(f"static const double pair_weights[{n_pairs}][{dim + 1}] = {{")
    for i, row in enumerate(rows):
        lines.append("    " + row + ("," if i < n_pairs - 1 else ""))
    lines.append("};")
    lines.append(_c_int_table("pair_neg", [svm.class_pair[0] for svm in model.svms]))
    lines.append(_c_int_table("pair_pos", [svm.class_pair[1] for svm in model.svms]))
    lines.extend(
        [
            "",
            f"int predict(const double features[{dim}])",
            "{",
            f"    int votes[{y}];",
            "    double acc;",
            "    int k;",
            "    int i;",
            "    int best;",
            f"    for (k = 0; k < {y}; ++k) {{",
            "        votes[k] = 0;",
            "    }",
            f"    for (k = 0; k < {n_pairs}; ++k) {{",
            f"        acc = pair_weights[k][{dim}];",
            f"        for (i = 0; i < {dim}; ++i) {{",
            "            acc += pair_weights[k][i] * features[i];",
            "        }",
            "        if (acc >= 0.0) {",
            "            votes[pair_pos[k]] += 1;",
            "        } else {",
            "            votes[pair_neg[k]] += 1;",
            "        }",
            "    }",
        ]
    )
    lines.extend(_emit_vote_tail(y))
    return "\n".join(lines)


def _emit_forest(model: RandomForest) -> str:
    y = model.n_classes
    packed = model.packed
    lines = _emit_header("random_forest")
    lines.append(_c_int_table("tree_root", packed.roots.tolist()))
    lines.append(_c_int_table("node_feature", packed.feature.tolist()))
    lines.append(_c_double_table("node_threshold", packed.threshold.tolist()))
    lines.append(_c_int_table("node_left", packed.left.tolist()))
    lines.append(_c_int_table("node_right", packed.right.tolist()))
    lines.append(_c_int_table("node_class", packed.klass.tolist()))
    lines.extend(
        [
            "",
            f"int predict(const double features[{N_FEATURES}])",
            "{",
            f"    int votes[{y}];",
            "    int t;",
            "    int n;",
            "    int k;",
            "    int best;",
            f"    for (k = 0; k < {y}; ++k) {{",
            "        votes[k] = 0;",
            "    }",
            f"    for (t = 0; t < {len(model.trees)}; ++t) {{",
            "        n = tree_root[t];",
            "        while (node_feature[n] >= 0) {",
            "            if (features[node_feature[n]] <= node_threshold[n]) {",
            "                n = node_left[n];",
            "            } else {",
            "                n = node_right[n];",
            "            }",
            "        }",
            "        votes[node_class[n]] += 1;",
            "    }",
        ]
    )
    lines.extend(_emit_vote_tail(y))
    return "\n".join(lines)


def emit_inference_source(model: SvmEnsemble | RandomForest) -> str:
    """One self-contained C89 source file mapping a feature array to a class index."""
    if isinstance(model, SvmEnsemble):
        if not model.svms:
            raise ValueError("cannot emit source for an empty ensemble")
        return _emit_svm(model)
    if not model.trees:
        raise ValueError("cannot emit source for an empty forest")
    return _emit_forest(model)


# ---------------------------------------------------------------------------
# sweet-spot search


@dataclass
class SweetSpotResult:
    found: bool
    platform: str
    n_trees: int | None = None
    max_depth: int | None = None
    acc_mean: float | None = None
    acc_std: float | None = None
    code_bytes: int | None = None


def check_grid(tree_counts: tuple[int, ...], depths: tuple[int, ...]) -> None:
    """Reject an empty grid, a tree count below 1 or a depth below 0."""
    if not tree_counts or not depths:
        raise ValueError("tree and depth grids must be nonempty")
    if min(tree_counts) < 1 or min(depths) < 0:
        raise ValueError("tree counts must be at least 1 and depths at least 0")


def grid_search(
    x: np.ndarray,
    labels: list[str],
    taxonomy: Taxonomy,
    tree_counts: tuple[int, ...],
    depths: tuple[int, ...],
    k: int = 10,
    seed: int = 0,
) -> list[dict]:
    """Evaluate every forest parameterization once, platform-independently.

    Accuracy per cell is what ``evaluate.cross_validate`` reports on a shared
    fold plan; the memory estimate comes from a forest trained on the full
    corpus, which is what would be deployed.

    Trees grow to purity before they are pruned, and tree i's seed depends on
    i alone, so a forest's first n trees pruned to depth d are the forest the
    same seed trains at (n, d).  Each fold therefore trains one forest at the
    largest tree count and depth.  Every node holds its majority class, so
    each depth cap is read by stopping that forest's walk after as many steps,
    and the votes summed over the sorted tree counts score every cell.  The
    deployed forests are cut from one forest with ``RandomForest.truncated``.
    """
    check_grid(tree_counts, depths)
    x = np.asarray(x, dtype=float)
    y_idx = taxonomy.encode(labels)
    plan: FoldPlan = build_fold_plan(y_idx, k, seed)
    counts, caps = sorted(tree_counts), sorted(depths)
    n_classes = len(taxonomy.classes)

    fold_acc = np.empty((len(counts), len(caps), plan.k))
    for fold in scaled_folds(x, y_idx, plan, seed):
        forest = train_random_forest(
            fold.x_train, fold.y_train, taxonomy.classes,
            n_trees=counts[-1], max_depth=caps[-1], seed=fold.model_seed,
        )
        for j, depth in enumerate(caps):
            voted = forest.packed.tree_classes(fold.x_test, depth)
            for i, n_trees in enumerate(counts):
                votes = vote_counts(voted[:, :n_trees], n_classes)
                fold_acc[i, j, fold.index] = fold_accuracy(votes.argmax(axis=1), fold.y_test)

    x_scaled = fit_scaling(x).apply(x)
    deploy_seed = np.random.SeedSequence([int(seed), 0xDE9107]).spawn(1)[0]
    largest = train_random_forest(
        x_scaled, y_idx, taxonomy.classes,
        n_trees=counts[-1], max_depth=caps[-1], seed=deploy_seed,
    )
    grid = []
    for i, n_trees in enumerate(counts):
        for j, depth in enumerate(caps):
            deployed = largest.truncated(n_trees, depth)
            acc_mean, acc_std = fold_summary(fold_acc[i, j])
            grid.append(
                {
                    "n_trees": n_trees,
                    "max_depth": depth,
                    "acc_mean": acc_mean,
                    "acc_std": acc_std,
                    "code_bytes": estimate_memory(deployed).code_bytes,
                    "op_count": count_operations(deployed),
                }
            )
    return grid


def best_fitting(grid: list[dict], platform: PlatformProfile) -> SweetSpotResult:
    """Pick the best grid cell under a platform budget.

    Highest accuracy wins; ties break by smaller memory, then lower depth.
    """
    fitting = [cell for cell in grid if cell["code_bytes"] <= platform.program_memory_bytes]
    if not fitting:
        return SweetSpotResult(found=False, platform=platform.name)
    best = min(fitting, key=lambda c: (-c["acc_mean"], c["code_bytes"], c["max_depth"]))
    return SweetSpotResult(
        found=True,
        platform=platform.name,
        n_trees=best["n_trees"],
        max_depth=best["max_depth"],
        acc_mean=best["acc_mean"],
        acc_std=best["acc_std"],
        code_bytes=best["code_bytes"],
    )
