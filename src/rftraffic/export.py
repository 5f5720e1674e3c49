"""Standalone inference-source emission and microcontroller memory budgeting.

The emitter produces one freestanding C89 translation unit with exactly two
external symbols: ``int predict(const double features[92])`` and a version
string constant.  Every unit has one skeleton; a model kind supplies only its
static const tables, its loop locals and its loop.  No includes, no
allocation, no library calls, so the unit compiles for bare-metal targets.

Program-memory footprints are estimated with one declared cost model, the
module constants ``BYTES_PER_WEIGHT``, ``BYTES_PER_NODE`` and
``OVERHEAD_BYTES``, and checked against the built-in microcontroller profiles
by ``PlatformProfile.fits``.
The sweet-spot search scores a forest parameter grid once (``grid_search``)
and picks, per profile, the most accurate grid cell whose estimate fits it,
or ``None`` when no cell fits (``best_fitting``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import __version__
from .evaluate import FoldPlan, accuracy, build_fold_plan, fold_summary, scaled_folds
from .features import N_FEATURES, fit_scaling
from .learn import RandomForest, SvmEnsemble, train_random_forest, vote_counts
from .topology import Taxonomy


@dataclass(frozen=True)
class PlatformProfile:
    name: str
    program_memory_bytes: int

    def fits(self, code_bytes: int) -> bool:
        """Whether code of this many bytes fits the program memory."""
        return code_bytes <= self.program_memory_bytes


#: built-in microcontroller targets and their program-memory budget in bytes
PLATFORMS: tuple[PlatformProfile, ...] = (
    PlatformProfile("msp", 16_320),
    PlatformProfile("atmega", 32_000),
    PlatformProfile("esp", 4_000_000),
)


def platform_by_name(name: str) -> PlatformProfile:
    for profile in PLATFORMS:
        if profile.name == name:
            return profile
    *rest, last = (p.name for p in PLATFORMS)
    raise KeyError(f"unknown platform {name!r} (expected {', '.join(rest)} or {last})")


#: declared byte costs of the emitted tables
BYTES_PER_WEIGHT = 4
BYTES_PER_NODE = 8
OVERHEAD_BYTES = 512


def estimate_memory(model: SvmEnsemble | RandomForest) -> int:
    """Deterministic cost-model estimate of the emitted code's bytes."""
    if isinstance(model, SvmEnsemble):
        tables = BYTES_PER_WEIGHT * model.weights.size
    else:
        tables = BYTES_PER_NODE * model.n_nodes
    return OVERHEAD_BYTES + tables


def count_operations(model: SvmEnsemble | RandomForest) -> int:
    """Worst-case per-prediction operation count (multiply-adds or compares)."""
    if isinstance(model, SvmEnsemble):
        return model.weights.size
    return int(np.maximum.reduceat(model.node_depth, model.trees).sum())


# ---------------------------------------------------------------------------
# C89 emission


def _c_float(value: float) -> str:
    text = repr(float(value))
    return text if any(ch in text for ch in ".e") else text + ".0"


def _c_row(values, ctype: str) -> str:
    fmt = _c_float if ctype == "double" else lambda v: str(int(v))
    return "{ " + ", ".join(fmt(v) for v in values) + " }"


def _c_table(ctype: str, name: str, values: np.ndarray) -> str:
    return f"static const {ctype} {name}[{len(values)}] = {_c_row(values.tolist(), ctype)};"


def _svm_parts(model: SvmEnsemble):
    """The ensemble's kind, input width, tables, loop locals and pair loop."""
    n_pairs, width = model.weights.shape
    dim = width - 1
    rows = [_c_row(row, "double") for row in model.weights.tolist()]
    tables = [
        f"static const double pair_weights[{n_pairs}][{width}] = {{",
        "    " + ",\n    ".join(rows),
        "};",
        _c_table("int", "pair_neg", model.pairs[:, 0]),
        _c_table("int", "pair_pos", model.pairs[:, 1]),
    ]
    loop = [
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
    return "svm_ensemble", dim, tables, ("double acc", "int k", "int i"), loop


def _forest_parts(model: RandomForest):
    """The forest's kind, input width, node tables, loop locals and tree loop."""
    tables = [
        _c_table("int", "tree_root", model.trees),
        _c_table("int", "node_feature", model.feature),
        _c_table("double", "node_threshold", model.threshold),
        _c_table("int", "node_left", model.left),
        _c_table("int", "node_right", model.right),
        _c_table("int", "node_class", model.klass),
    ]
    loop = [
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
    return "random_forest", N_FEATURES, tables, ("int t", "int n", "int k"), loop


def emit_inference_source(model: SvmEnsemble | RandomForest) -> str:
    """One self-contained C89 source file mapping a feature array to a class index."""
    if isinstance(model, SvmEnsemble):
        if not len(model.weights):
            raise ValueError("cannot emit source for an empty ensemble")
        kind, dim, tables, local_decls, loop = _svm_parts(model)
    else:
        if len(model.trees) == 0:
            raise ValueError("cannot emit source for an empty forest")
        kind, dim, tables, local_decls, loop = _forest_parts(model)
    y = model.n_classes
    return "\n".join([
        "/* generated vehicle-class inference routine; freestanding C89 */",
        f'const char predict_version[] = "rftraffic {__version__} {kind}";',
        "",
        *tables,
        "",
        f"int predict(const double features[{dim}])",
        "{",
        f"    int votes[{y}];",
        *(f"    {decl};" for decl in local_decls),
        "    int best;",
        f"    for (k = 0; k < {y}; ++k) {{",
        "        votes[k] = 0;",
        "    }",
        *loop,
        "    best = 0;",
        f"    for (k = 1; k < {y}; ++k) {{",
        "        if (votes[k] > votes[best]) {",
        "            best = k;",
        "        }",
        "    }",
        "    return best;",
        "}",
        "",
    ])


# ---------------------------------------------------------------------------
# sweet-spot search


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
        x_test = fold.x_test
        for j, depth in enumerate(caps):
            voted = forest.tree_classes(x_test, depth)
            for i, n_trees in enumerate(counts):
                votes = vote_counts(voted[:, :n_trees], n_classes)
                fold_acc[i, j, fold.index] = accuracy(votes.argmax(axis=1), fold.y_test)

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
                    "code_bytes": estimate_memory(deployed),
                    "op_count": count_operations(deployed),
                }
            )
    return grid


def best_fitting(grid: list[dict], platform: PlatformProfile) -> dict | None:
    """The best grid cell under a platform budget, or None when no cell fits.

    Highest accuracy wins; ties break by smaller memory, then lower depth.
    """
    fitting = [cell for cell in grid if platform.fits(cell["code_bytes"])]
    return min(fitting, key=lambda c: (-c["acc_mean"], c["code_bytes"], c["max_depth"]),
               default=None)
