"""From-scratch classifiers: l2-regularized linear SVM and a CART random forest.

The SVM minimizes ``0.5 * ||b||^2 + C * sum(max(0, 1 - y * <b, x>))`` by
stochastic subgradient descent with the step schedule ``eta_t = 1 / (lambda t)``
where ``lambda = 1 / (C * |D|)``.  A constant-one feature augments the inputs
so the bias is regularized like every other weight and the objective keeps its
plain form over the augmented space.  The trainer works on label-signed rows
``y * [x, 1]`` and runs on a stack of same-shape problems that share labels and
seed (``train_svm_stack``): every slice takes the same shuffles and batches and
comes out bit for bit as its fit alone, and one fit is the one-slice case.
Multi-class problems are composed one-vs-one: one SVM per class pair plus a
mapping from (pair, sign) to class, combined by majority vote.

The random forest grows bootstrapped CART trees with Gini-impurity splits over
a fresh random feature subset per node; prediction is the majority vote over
trees.  Ties break toward the lowest class index everywhere.

Every tree is grown to purity from a seed derived from its index alone and only
then pruned to the depth cap.  The first n trees of a forest, each pruned again
to a smaller depth d, are therefore node for node the forest that the same seed
trains with n trees at depth d (``RandomForest.truncated``); the forest grid of
``export.grid_search`` derives all of its cells from one forest this way.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .features import ScalingTransform
from .topology import Taxonomy


def spawn_seeds(seed, n: int) -> list[np.random.SeedSequence]:
    """Derive n child seeds from an int or a SeedSequence, leaving the sequence untouched.

    Spawning from a copy makes the children depend only on the seed, not on how
    many times the caller's sequence was used before.
    """
    if isinstance(seed, np.random.SeedSequence):
        ss = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                    pool_size=seed.pool_size)
    else:
        ss = np.random.SeedSequence(seed)
    return ss.spawn(max(n, 1))


def augment(x: np.ndarray) -> np.ndarray:
    """Append the constant-one bias feature along the last axis."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


@dataclass
class LinearSvm:
    """Pairwise linear decision rule; ``beta`` includes the trailing bias weight."""

    beta: np.ndarray
    c: float
    class_pair: tuple[int, int]  # (class index for sign -1, class index for sign +1)
    objective_per_epoch: list[float] = field(default_factory=list)

    def decision(self, x_aug: np.ndarray) -> np.ndarray:
        return np.asarray(x_aug, dtype=float) @ self.beta


def svm_objective(beta: np.ndarray, x_aug: np.ndarray, y: np.ndarray, c: float):
    """Regularized hinge objective evaluated on the full data set.

    ``beta`` is one weight vector (a float comes back) or an ``(E, d)`` stack of
    them (one value per row comes back, all from one matrix product).  With an
    ``(S, n, d)`` stack of data sets, ``beta`` is ``(S, E, d)`` and an ``(S, E)``
    array comes back.
    """
    betas = np.atleast_2d(beta)
    margins = y[:, None] * np.matmul(x_aug, np.swapaxes(betas, -1, -2))
    hinge = np.maximum(0.0, 1.0 - margins)
    values = 0.5 * np.einsum("...ij,...ij->...i", betas, betas) + c * hinge.sum(axis=-2)
    return float(values[0]) if np.ndim(beta) == 1 else values


def train_svm_stack(
    x: np.ndarray,
    y: np.ndarray,
    c: float = 1.0,
    epochs: int = 50,
    batch_size: int = 32,
    seed=0,
    class_pair: tuple[int, int] = (0, 1),
) -> list[LinearSvm]:
    """Fit one binary SVM per slice of an ``(S, n, d)`` stack on shared +/-1 labels.

    Mini-batches of a seeded shuffle feed the subgradient steps; every slice
    sees the same shuffles and batches.  At every epoch end the average of all
    iterates so far is kept; the objective is recorded at each of these
    averages, and the last one is the slice's weight vector.

    The steps run on label-signed rows ``y * [x, 1]``: a row's margin is its
    dot product with ``beta`` and a violator's subgradient term is the row
    itself.  With labels of exactly +/-1 this is the same arithmetic, bit for
    bit, as multiplying by the label after the product, because negation is
    exact and round-to-nearest is symmetric.  The rows are held as ``(n, S, d)``,
    so a batch is one contiguous block summed down its first axis.  Each slice
    comes out bit for bit as a fit of that slice alone: the margins and squared
    norms are one ``matmul`` per slice, the violator sum skips the rows that do
    not violate (starting from 0.0 moves at most the sign of a zero, which
    never reaches ``beta``), and the projection factor is exactly 1.0 inside
    the radius.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 3 or x.shape[1] != len(y):
        raise ValueError("x must be an (S, n, d) stack with one label per row")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError("labels must be exactly +1 or -1")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("training data must contain both classes")
    n = len(y)
    x_aug = augment(x)
    signed = np.ascontiguousarray(x_aug.transpose(1, 0, 2)) * y[:, None, None]  # (n, S, d)
    lam = 1.0 / (c * n)
    radius = 1.0 / np.sqrt(lam)
    rng = np.random.default_rng(seed)
    beta = np.zeros((len(x), x_aug.shape[2]))  # updated in place through both views
    row, column = beta[:, None, :], beta[:, :, None]
    running_sum = np.zeros_like(beta)
    averages = np.empty((len(x), max(epochs, 0), x_aug.shape[2]))
    steps = 0
    t = 0  # samples processed; keeps the schedule on the per-sample scale
    for epoch in range(epochs):
        shuffled = signed[rng.permutation(n)]
        for lo in range(0, n, batch_size):
            batch = shuffled[lo: lo + batch_size]  # (m, S, d)
            m = len(batch)
            t += m
            eta = 1.0 / (lam * t)
            margins = np.matmul(batch.transpose(1, 0, 2), column)  # (S, m, 1)
            violators = np.add.reduce(batch, axis=0, where=(margins < 1.0).transpose(1, 0, 2))
            beta -= eta * (lam * beta - violators / m)
            row *= radius / np.maximum(np.sqrt(np.matmul(row, column)), radius)
            running_sum += beta
            steps += 1
        np.divide(running_sum, steps, out=averages[:, epoch])
    objectives = svm_objective(averages, x_aug, y, c)
    return [
        LinearSvm(beta=averages[s, -1].copy() if epochs > 0 else np.zeros(x_aug.shape[2]),
                  c=c, class_pair=class_pair, objective_per_epoch=objectives[s].tolist())
        for s in range(len(x))
    ]


def train_svm_binary(
    x: np.ndarray,
    y: np.ndarray,
    c: float = 1.0,
    epochs: int = 50,
    batch_size: int = 32,
    seed=0,
    class_pair: tuple[int, int] = (0, 1),
) -> LinearSvm:
    """Fit one binary SVM on +/-1 labels: ``train_svm_stack`` of a one-slice stack."""
    return train_svm_stack(np.asarray(x, dtype=float)[None], y, c=c, epochs=epochs,
                           batch_size=batch_size, seed=seed, class_pair=class_pair)[0]


@dataclass
class SvmEnsemble:
    """One-vs-one composition of pairwise SVMs over an ordered class list."""

    svms: list[LinearSvm]
    classes: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def gamma(self, k: int, sign: int) -> int:
        """Class index voted by SVM ``k`` for a decision sign of +/-1."""
        neg, pos = self.svms[k].class_pair
        return pos if sign > 0 else neg

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Majority vote over all pairwise decisions; ties break low."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x_aug = augment(x if not single else x[None, :])
        votes = np.zeros((x_aug.shape[0], self.n_classes), dtype=int)
        rows = np.arange(x_aug.shape[0])
        for k, svm in enumerate(self.svms):
            scores = x_aug @ svm.beta
            signs = np.where(scores >= 0.0, 1, -1)
            neg, pos = svm.class_pair
            votes[rows, np.where(signs > 0, pos, neg)] += 1
        pred = votes.argmax(axis=1)
        return pred[0] if single else pred


def _pair_problems(y_idx: np.ndarray, n_classes: int, seed):
    """Each class pair present in ``y_idx``: the pair, its rows, +/-1 labels and seed."""
    present = set(np.unique(y_idx).tolist())
    pairs = [p for p in combinations(range(n_classes), 2) if p[0] in present and p[1] in present]
    for (a, b), child in zip(pairs, spawn_seeds(seed, len(pairs))):
        rows = (y_idx == a) | (y_idx == b)
        yield (a, b), rows, np.where(y_idx[rows] == b, 1.0, -1.0), child


def train_svm_ensemble(
    x: np.ndarray,
    y_idx: np.ndarray,
    classes: tuple[str, ...],
    c: float = 1.0,
    epochs: int = 50,
    batch_size: int = 32,
    seed=0,
) -> SvmEnsemble:
    """Train all pairwise SVMs; pairs missing a class in the data are skipped."""
    x = np.asarray(x, dtype=float)
    svms = [
        train_svm_binary(x[rows], labels, c=c, epochs=epochs, batch_size=batch_size,
                         seed=child, class_pair=pair)
        for pair, rows, labels, child in _pair_problems(np.asarray(y_idx, dtype=int),
                                                        len(classes), seed)
    ]
    return SvmEnsemble(svms=svms, classes=tuple(classes))


def train_svm_ensembles(
    x: np.ndarray,
    y_idx: np.ndarray,
    classes: tuple[str, ...],
    c: float = 1.0,
    epochs: int = 50,
    batch_size: int = 32,
    seed=0,
) -> list[SvmEnsemble]:
    """``train_svm_ensemble`` of every slice of an ``(S, n, d)`` stack, bit for bit.

    Each class pair is one ``train_svm_stack`` run over all slices.
    """
    x = np.asarray(x, dtype=float)
    per_pair = [
        train_svm_stack(x[:, rows], labels, c=c, epochs=epochs, batch_size=batch_size,
                        seed=child, class_pair=pair)
        for pair, rows, labels, child in _pair_problems(np.asarray(y_idx, dtype=int),
                                                        len(classes), seed)
    ]
    return [SvmEnsemble(svms=[fits[s] for fits in per_pair], classes=tuple(classes))
            for s in range(len(x))]


# ---------------------------------------------------------------------------
# random forest


@dataclass
class CartTree:
    """Array-encoded binary decision tree (feature < 0 marks a leaf).

    Children follow their parent in the arrays, so every root-to-leaf walk
    visits rising node indices and ends.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    klass: np.ndarray
    bootstrap_indices: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass(frozen=True)
class PackedForest:
    """Every tree of a forest in one node table, the layout of the emitted C file.

    Tree ``t`` starts at node ``roots[t]``; children are indices into the whole
    table (-1 at leaves), ``node_depth`` is each node's depth in its tree and
    ``depth`` the deepest of them.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    klass: np.ndarray
    node_depth: np.ndarray
    depth: int

    @classmethod
    def of(cls, trees: list[CartTree]) -> PackedForest:
        sizes = np.array([tree.n_nodes for tree in trees], dtype=int)
        roots = np.cumsum(sizes) - sizes
        offsets = np.repeat(roots, sizes)

        def table(name, dtype):
            return np.concatenate([getattr(tree, name) for tree in trees]
                                  + [np.empty(0, dtype=dtype)]).astype(dtype, copy=False)

        feature, left, right = table("feature", int), table("left", int), table("right", int)
        left = left + np.where(left >= 0, offsets, 0)
        right = right + np.where(right >= 0, offsets, 0)
        node_depth = np.zeros(len(feature), dtype=int)
        level, depth = roots, 0
        while level.size:  # children follow their parents, so the levels run out
            node_depth[level] = depth
            inner = level[feature[level] >= 0]
            level, depth = np.concatenate([left[inner], right[inner]]), depth + 1
        return cls(roots=roots, feature=feature, threshold=table("threshold", float),
                   left=left, right=right, klass=table("klass", int), node_depth=node_depth,
                   depth=int(node_depth.max(initial=0)))

    def tree_classes(self, x: np.ndarray) -> np.ndarray:
        """The class each tree votes for each row of ``x``, shape ``(n, trees)``.

        All trees step together, one level per step, for as many steps as the
        deepest node is deep; a walk that has reached its leaf stays there.
        """
        rows = np.arange(len(x))[:, None]
        node = np.repeat(self.roots[None, :], len(x), axis=0)
        for _ in range(self.depth):
            feat = self.feature[node]
            go_left = x[rows, feat] <= self.threshold[node]
            node = np.where(feat < 0, node,
                            np.where(go_left, self.left[node], self.right[node]))
        return self.klass[node]


def _gini_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini impurity of class counts along the last axis, given their totals."""
    frac = counts / totals[..., None]
    return 1.0 - (frac * frac).sum(axis=-1)


def _best_split(x, y, idx, n_classes, feature_ids):
    """Lowest weighted child Gini over candidate midpoints of the features.

    All candidate columns are scored in one pass over the ``(n, F)`` block.
    Ties go to the first split position of a feature, then to the first
    feature in ``feature_ids``; a feature without two distinct values offers
    no split.
    """
    n = len(idx)
    if n < 2:
        return None
    columns = np.arange(len(feature_ids))
    block = x[idx[:, None], feature_ids]
    order = np.argsort(block, axis=0, kind="stable")
    cs = block[order, columns]
    change = cs[1:] > cs[:-1]  # (n - 1, F): a split may follow row p
    if not change.any():
        return None
    onehot = y[idx][order][:, :, None] == np.arange(n_classes)
    prefix = np.cumsum(onehot, axis=0, dtype=float)
    left_counts = prefix[:-1]
    right_counts = prefix[-1] - left_counts
    n_left = np.arange(1.0, n)[:, None]
    n_right = n - n_left
    cost = (
        n_left * _gini_counts(left_counts, n_left)
        + n_right * _gini_counts(right_counts, n_right)
    ) / n
    cost[~change] = np.inf
    pos = cost.argmin(axis=0)
    per_feature = cost[pos, columns]
    j = int(per_feature.argmin())
    p = pos[j]
    return (float(per_feature[j]), int(feature_ids[j]), float(0.5 * (cs[p, j] + cs[p + 1, j])))


def _grow_tree(x, y, n_classes, n_feats, rng, bootstrap):
    """Grow to purity; every node records its majority class for later pruning."""
    feature, threshold, left, right, klass = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        klass.append(-1)
        return len(feature) - 1

    d = x.shape[1]
    stack = [(bootstrap, new_node())]
    while stack:
        idx, slot = stack.pop()
        counts = np.bincount(y[idx], minlength=n_classes)
        klass[slot] = int(counts.argmax())
        parent_gini = 1.0 - float(((counts / len(idx)) ** 2).sum())
        split = None
        if parent_gini > 0.0:
            feats = rng.choice(d, size=min(n_feats, d), replace=False)
            split = _best_split(x, y, idx, n_classes, feats)
            if split is not None and split[0] >= parent_gini - 1e-12:
                split = None
        if split is None:
            continue
        _, f, thr = split
        go_left = x[idx, f] <= thr
        feature[slot] = f
        threshold[slot] = thr
        left_slot = new_node()
        right_slot = new_node()
        left[slot] = left_slot
        right[slot] = right_slot
        stack.append((idx[~go_left], right_slot))
        stack.append((idx[go_left], left_slot))
    return CartTree(
        feature=np.array(feature, dtype=int),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=int),
        right=np.array(right, dtype=int),
        klass=np.array(klass, dtype=int),
        bootstrap_indices=bootstrap,
    )


def _prune_tree(tree: CartTree, max_depth: int) -> CartTree:
    """Truncate at ``max_depth``; cut nodes become majority-class leaves.

    Pruning a fully grown tree makes node counts monotone in the depth cap:
    the tree pruned at depth d is a subtree of the one pruned at depth d + 1.
    """
    feature, threshold, left, right, klass = [], [], [], [], []
    stack = [(0, 0, -1, False)]  # (source node, depth, parent slot, is right child)
    while stack:
        src, depth, parent, is_right = stack.pop()
        slot = len(feature)
        is_leaf = tree.feature[src] < 0 or depth >= max_depth
        feature.append(-1 if is_leaf else int(tree.feature[src]))
        threshold.append(0.0 if is_leaf else float(tree.threshold[src]))
        left.append(-1)
        right.append(-1)
        klass.append(int(tree.klass[src]))
        if parent >= 0:
            (right if is_right else left)[parent] = slot
        if not is_leaf:
            stack.append((int(tree.right[src]), depth + 1, slot, True))
            stack.append((int(tree.left[src]), depth + 1, slot, False))
    return CartTree(
        feature=np.array(feature, dtype=int),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=int),
        right=np.array(right, dtype=int),
        klass=np.array(klass, dtype=int),
        bootstrap_indices=tree.bootstrap_indices,
    )


def vote_counts(classes: np.ndarray, n_classes: int) -> np.ndarray:
    """Votes per class in each row of an ``(n, voters)`` array of class indices."""
    n = len(classes)
    cells = (np.arange(n)[:, None] * n_classes + classes).ravel()
    return np.bincount(cells, minlength=n * n_classes).reshape(n, n_classes)


@dataclass
class RandomForest:
    trees: list[CartTree]
    classes: tuple[str, ...]
    max_depth: int
    feature_subset: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_nodes(self) -> int:
        return sum(t.n_nodes for t in self.trees)

    @functools.cached_property
    def packed(self) -> PackedForest:
        return PackedForest.of(self.trees)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Majority vote over the trees, walked all at once; ties break low."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        pred = vote_counts(self.packed.tree_classes(x), self.n_classes).argmax(axis=1)
        return pred[0] if single else pred

    def truncated(self, n_trees: int, max_depth: int) -> RandomForest:
        """The first ``n_trees`` trees pruned to ``max_depth``.

        Equal node for node to the forest the same seed trains with
        ``n_trees`` trees at ``max_depth``.
        """
        if not 0 <= n_trees <= len(self.trees) or max_depth > self.max_depth:
            raise ValueError(
                f"cannot cut {n_trees} trees at depth {max_depth} from "
                f"{len(self.trees)} trees at depth {self.max_depth}"
            )
        return RandomForest(
            trees=[_prune_tree(tree, max_depth) for tree in self.trees[:n_trees]],
            classes=self.classes, max_depth=max_depth, feature_subset=self.feature_subset,
        )


def train_random_forest(
    x: np.ndarray,
    y_idx: np.ndarray,
    classes: tuple[str, ...],
    n_trees: int = 100,
    max_depth: int = 10,
    feature_subset: int | None = None,
    seed=0,
) -> RandomForest:
    """Bootstrapped CART trees, deterministic per seed, node for node."""
    x = np.asarray(x, dtype=float)
    y_idx = np.asarray(y_idx, dtype=int)
    if len(x) == 0:
        raise ValueError("training data must be nonempty")
    if feature_subset is None:
        feature_subset = int(np.ceil(np.sqrt(x.shape[1])))
    n = len(x)
    children = spawn_seeds(seed, n_trees)
    trees = []
    for k in range(n_trees):
        rng = np.random.default_rng(children[k])
        bootstrap = rng.integers(0, n, size=n)
        full = _grow_tree(x, y_idx, len(classes), feature_subset, rng, bootstrap)
        trees.append(_prune_tree(full, max_depth))
    return RandomForest(trees=trees, classes=tuple(classes), max_depth=max_depth,
                        feature_subset=feature_subset)


# ---------------------------------------------------------------------------
# model files

FORMAT_VERSION = 1


@dataclass
class ModelBundle:
    """A trained model together with its taxonomy and training-split scaling."""

    taxonomy: Taxonomy
    scaling: ScalingTransform
    model: SvmEnsemble | RandomForest

    @property
    def kind(self) -> str:
        return "svm_ensemble" if isinstance(self.model, SvmEnsemble) else "random_forest"

    def predict_labels(self, x_raw: np.ndarray) -> list[str]:
        scaled = self.scaling.apply(x_raw)
        idx = np.atleast_1d(self.model.predict(scaled))
        return [self.taxonomy.classes[i] for i in idx]


def save_model(path: str, bundle: ModelBundle) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "taxonomy": {"name": bundle.taxonomy.name, "classes": list(bundle.taxonomy.classes)},
        "scaling": {"lo": bundle.scaling.lo.tolist(), "hi": bundle.scaling.hi.tolist()},
        "model_kind": bundle.kind,
    }
    if isinstance(bundle.model, SvmEnsemble):
        doc["model"] = {
            "classes": list(bundle.model.classes),
            "pairs": [
                {
                    "neg": svm.class_pair[0],
                    "pos": svm.class_pair[1],
                    "c": svm.c,
                    "weights": svm.beta.tolist(),
                }
                for svm in bundle.model.svms
            ],
        }
    else:
        forest = bundle.model
        doc["model"] = {
            "classes": list(forest.classes),
            "max_depth": forest.max_depth,
            "feature_subset": forest.feature_subset,
            "trees": [
                {
                    "feature": tree.feature.tolist(),
                    "threshold": tree.threshold.tolist(),
                    "left": tree.left.tolist(),
                    "right": tree.right.tolist(),
                    "class": tree.klass.tolist(),
                }
                for tree in forest.trees
            ],
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, allow_nan=False)


def _check_model(model: SvmEnsemble | RandomForest, n_features: int, n_classes: int) -> None:
    """Reject a loaded model that would read outside its inputs or never end a walk."""
    if isinstance(model, SvmEnsemble):
        for k, svm in enumerate(model.svms):
            if svm.beta.shape != (n_features + 1,) or not np.isfinite(svm.beta).all():
                raise ValueError(f"svm pair {k}: need {n_features + 1} finite weights "
                                 f"({n_features} features and the bias)")
            if not (all(isinstance(i, int) and 0 <= i < n_classes for i in svm.class_pair)
                    and svm.class_pair[0] != svm.class_pair[1]):
                raise ValueError(f"svm pair {k}: class pair {svm.class_pair} is not two "
                                 f"of the {n_classes} classes")
        return
    for t, tree in enumerate(model.trees):
        arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.klass)
        n = tree.feature.size
        if n == 0 or any(a.shape != (n,) for a in arrays):
            raise ValueError(f"tree {t}: node arrays must be nonempty and of equal length")
        inner = tree.feature >= 0
        if not (np.all(tree.feature[~inner] == -1) and np.all(tree.feature < n_features)):
            raise ValueError(f"tree {t}: node features must be -1 at leaves and below "
                             f"{n_features} elsewhere")
        nodes = np.flatnonzero(inner)
        for child in (tree.left[inner], tree.right[inner]):
            if not np.all((child > nodes) & (child < n)):
                raise ValueError(f"tree {t}: a node's children must follow it in the tree")
        if not np.isfinite(tree.threshold).all():
            raise ValueError(f"tree {t}: thresholds must be finite")
        if not np.all((tree.klass >= 0) & (tree.klass < n_classes)):
            raise ValueError(f"tree {t}: node classes must lie in 0..{n_classes - 1}")


def load_model(path: str) -> ModelBundle:
    """Read a model file; one that ``save_model`` could not have written is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('format_version')!r}")
    taxonomy = Taxonomy(doc["taxonomy"]["name"], tuple(doc["taxonomy"]["classes"]))
    scaling = ScalingTransform(lo=np.array(doc["scaling"]["lo"], dtype=float),
                               hi=np.array(doc["scaling"]["hi"], dtype=float))
    if scaling.lo.ndim != 1 or scaling.lo.shape != scaling.hi.shape:
        raise ValueError("scaling lo and hi must be two lists of one length")
    spec = doc["model"]
    if tuple(spec["classes"]) != taxonomy.classes:
        raise ValueError("model classes differ from the taxonomy classes")
    if doc["model_kind"] == "svm_ensemble":
        svms = [
            LinearSvm(
                beta=np.array(p["weights"], dtype=float),
                c=p["c"],
                class_pair=(p["neg"], p["pos"]),
            )
            for p in spec["pairs"]
        ]
        model: SvmEnsemble | RandomForest = SvmEnsemble(svms=svms, classes=taxonomy.classes)
    elif doc["model_kind"] == "random_forest":
        trees = [
            CartTree(
                feature=np.array(t["feature"], dtype=int),
                threshold=np.array(t["threshold"], dtype=float),
                left=np.array(t["left"], dtype=int),
                right=np.array(t["right"], dtype=int),
                klass=np.array(t["class"], dtype=int),
            )
            for t in spec["trees"]
        ]
        model = RandomForest(
            trees=trees,
            classes=taxonomy.classes,
            max_depth=spec["max_depth"],
            feature_subset=spec["feature_subset"],
        )
    else:
        raise ValueError(f"unknown model kind {doc['model_kind']!r}")
    _check_model(model, len(scaling.lo), len(taxonomy.classes))
    return ModelBundle(taxonomy=taxonomy, scaling=scaling, model=model)
