"""From-scratch classifiers: l2-regularized linear SVM and a CART random forest.

The SVM minimizes ``0.5 * ||b||^2 + C * sum(max(0, 1 - y * <b, x>))`` by
stochastic subgradient descent with the step schedule ``eta_t = 1 / (lambda t)``
where ``lambda = 1 / (C * |D|)``; the fitted weights are the average of all
iterates.  A constant-one feature augments the inputs so the bias is
regularized like every other weight and the objective keeps its plain form
over the augmented space.  The trainer works on label-signed rows
``y * [x, 1]`` and runs a ragged list of problems in lockstep
(``train_svm_stack``): each problem is some rows of a stack of views with its
own labels and seed, every fit comes out bit for bit as its view fitted alone,
and one fit is the one-problem, one-view case.
Multi-class problems are composed one-vs-one: one SVM per class pair plus a
mapping from (pair, sign) to class, combined by majority vote.

The random forest grows bootstrapped CART trees with Gini-impurity splits over
a fresh random feature subset per node; prediction is the majority vote over
trees.  Ties break toward the lowest class index everywhere.

Every tree is grown to purity, in preorder, from a seed derived from its index
alone and only then pruned to the depth cap by a depth mask.  The first n trees
of a forest, each pruned again to a smaller depth d, are therefore node for
node the forest that the same seed trains with n trees at depth d
(``RandomForest.truncated``).  Every node holds its majority class, so that
forest votes what the full one votes after d steps of its walk; the forest grid
of ``export.grid_search`` scores all of its cells from one forest this way.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, NamedTuple

import numpy as np

from .features import N_FEATURES, ScalingTransform
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


@dataclass(slots=True)
class LinearSvm:
    """Pairwise linear decision rule; ``beta`` includes the trailing bias weight."""

    beta: np.ndarray
    c: float
    class_pair: tuple[int, int]  # (class index for sign -1, class index for sign +1)


#: a margin within this many rounding bounds ``d * eps * |row| * |beta|`` of 1.0
#: is recomputed in the shape a fit alone computes it (see ``train_svm_stack``)
MARGIN_GUARD = 4.0


class SvmProblem(NamedTuple):
    """One binary problem of ``train_svm_stack``: some rows of a stack of S views.

    ``views`` is an ``(S, N, d)`` array or any iterable of S ``(N, d)`` arrays,
    read once; ``rows`` picks the problem's rows out of the N and ``labels``
    gives each of them +/-1.  Every view is one fit on those rows, and all of
    them take the shuffles of ``seed``.  Problems may share a stack (the same
    object).
    """

    views: np.ndarray | Iterable[np.ndarray]
    rows: np.ndarray
    labels: np.ndarray
    seed: object = 0
    class_pair: tuple[int, int] = (0, 1)


def _checked_views(views) -> list[np.ndarray]:
    blocks = [np.asarray(v, dtype=float) for v in views]
    if not blocks or any(b.ndim != 2 or b.shape != blocks[0].shape for b in blocks):
        raise ValueError("x must be an (S, n, d) stack: S views of one (n, d) shape")
    return blocks


def _pool(problems: list[SvmProblem]):
    """Every view of every distinct stack, augmented, one after the other in one
    array, and for each stack (by ``id``) its first row there, S and N.

    The views themselves are dropped once copied, so a caller that builds them
    as they are read holds no second copy.
    """
    stacks = {}
    for p in problems:
        if id(p.views) not in stacks:
            stacks[id(p.views)] = _checked_views(p.views)
    widths = {blocks[0].shape[1] for blocks in stacks.values()}
    if len(widths) != 1:
        raise ValueError("every problem's views must have the same width")
    blocks = [b for stack in stacks.values() for b in stack]
    pool = np.ones((sum(len(b) for b in blocks), widths.pop() + 1))
    np.concatenate(blocks, out=pool[:, :-1])
    layout, first = {}, 0
    for key, stack in stacks.items():
        layout[key] = (first, len(stack), len(stack[0]))
        first += len(stack) * len(stack[0])
    return pool, layout


def _checked_problem(problem: SvmProblem, n_rows: int) -> SvmProblem:
    rows = np.asarray(problem.rows, dtype=np.intp)
    labels = np.asarray(problem.labels, dtype=float)
    if rows.ndim != 1 or rows.shape != labels.shape:
        raise ValueError("need one label per row")
    if not np.all((labels == 1.0) | (labels == -1.0)):
        raise ValueError("labels must be exactly +1 or -1")
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise ValueError("training data must contain both classes")
    if rows.min() < 0 or rows.max() >= n_rows:
        raise ValueError("rows must index the rows of the views")
    return problem._replace(rows=rows, labels=labels)


def _chunks(widths: np.ndarray, per_row: int, budget: int):
    """Split slices ``0..len(widths)`` into runs whose ``width * per_row`` blocks,
    each as wide as its first (widest) slice, hold at most ``budget`` numbers."""
    lo = 0
    while lo < len(widths):
        width = int(widths[lo])
        hi = min(len(widths), lo + max(1, budget // (width * per_row)))
        yield lo, hi, width
        lo = hi


def train_svm_stack(
    problems: list[SvmProblem],
    c: float = 1.0,
    epochs: int = 50,
    batch_size: int = 32,
) -> list[list[LinearSvm]]:
    """Fit every slice of every problem in one lockstep run; one list of fits per problem.

    A problem's slices take its seeded shuffles and mini-batches, and each
    fit's weight vector is the average of all its iterates (zero after no
    epochs).  Every fit comes out bit for bit as its slice fitted alone.

    The steps work on label-signed rows ``y * [x, 1]``: a row's margin is its
    dot product with ``beta`` and a violator's subgradient term is the row
    itself (negation is exact and round-to-nearest symmetric, so this is the
    arithmetic of applying the label after the product).  Problems run
    largest first, so in every step the slices still stepping are a prefix
    and their batch sizes fall along it.  A step gathers the active slices'
    batches, each padded to the widest batch of its chunk with rows of
    weight zero, computes their margins with one ``matmul`` per chunk, and
    updates, projects and sums all slices in one elementwise pass with
    per-slice ``lam``, ``eta``, ``m`` and radius.  Why the bits hold:

    - padding changes how a BLAS kernel blocks the rows and so how it rounds
      a margin, but any two roundings of a length-d dot product lie within
      ``d * eps * |row| * |beta|`` of each other; only ``margin < 1`` uses a
      margin, so one within ``MARGIN_GUARD`` such bounds of 1.0 (``|row|``
      the largest over the rows the problems train on) is recomputed as
      ``batch @ beta`` of its slice alone;
    - the violator sum adds the batch rows in order (the rows have at least
      two columns, the bias among them, so numpy never sums them pairwise), a
      non-violator or a padding row as zeros, which moves at most the sign of
      a zero sum and never ``beta`` (no weight is ever -0.0);
    - the squared norms are a same-shape stacked ``matmul``, one dot product
      per slice, and the projection factor is exactly 1.0 inside the radius.
    """
    if not problems:
        return []
    pool, layout = _pool(problems)
    problems = [_checked_problem(p, layout[id(p.views)][2]) for p in problems]
    d = pool.shape[1]
    ordered = sorted(problems, key=lambda p: -len(p.rows))
    n = np.array([len(p.rows) for p in ordered])
    k = -(-n // batch_size)  # steps per epoch, falling along the problems
    # slice s of problem q finds row r of its view at pool row shift[slice] + r
    owner = np.concatenate([np.full(layout[id(p.views)][1], q) for q, p in enumerate(ordered)])
    shift = np.concatenate([first + size * np.arange(views)
                            for first, views, size in (layout[id(p.views)] for p in ordered)])
    shift = shift[:, None]
    trained = np.zeros(len(pool), dtype=bool)  # the rows a batch can hold, padding included
    for q, p in enumerate(ordered):
        trained[shift[owner == q] + p.rows] = True
    gamma = MARGIN_GUARD * d * np.finfo(float).eps * np.sqrt(
        np.einsum("ij,ij->i", pool, pool)[trained].max())
    slices = len(owner)
    lam = 1.0 / (c * n[owner, None])
    radius = 1.0 / np.sqrt(lam)
    # batch j: each slice's size, the slices still stepping, and their chunks
    m = np.minimum(batch_size, n[owner, None] - batch_size * np.arange(k[0]))
    budget = max(pool.size // 2, batch_size * d)
    plan = []
    for j in range(k[0]):
        active = int(np.count_nonzero(m[:, j] > 0))
        plan.append((active, m[:, j: j + 1].astype(float), list(_chunks(m[:active, j], d, budget))))

    # an epoch's batches: table[q, j * batch_size + b] is row b of problem q's
    # batch j; padding repeats the problem's first row, with sign 0
    span = int(k[0]) * batch_size
    all_rows = np.concatenate([p.rows for p in ordered])
    all_labels = np.concatenate([p.labels for p in ordered])
    dest = np.concatenate([q * span + np.arange(size) for q, size in enumerate(n)])
    row_table = np.repeat([[p.rows[0]] for p in ordered], span, axis=1)
    sign_table = np.zeros((len(ordered), span))
    rngs = [np.random.default_rng(p.seed) for p in ordered]

    buffer = np.empty(budget)
    beta = np.zeros((slices, d))
    norm = np.zeros((slices, 1))
    violators = np.empty((slices, d))
    running_sum = np.zeros((slices, d))
    t = np.zeros((slices, 1))
    for _ in range(epochs):
        # shuffling arange(n) in place draws what permutation(n) draws
        row_table.flat[dest] = np.arange(len(all_rows))
        for rng, own, size in zip(rngs, row_table, n):
            rng.shuffle(own[:size])
        picks = row_table.flat[dest]
        row_table.flat[dest] = all_rows[picks]
        sign_table.flat[dest] = all_labels[picks]
        for j, (active, size, chunks) in enumerate(plan):
            for lo, hi, width in chunks:
                cols, own = slice(j * batch_size, j * batch_size + width), owner[lo:hi]
                batch = buffer[: (hi - lo) * width * d].reshape(hi - lo, width, d)
                np.take(pool, row_table[own, cols] + shift[lo:hi], axis=0, out=batch, mode="clip")
                sign = sign_table[own, cols]
                margin = np.matmul(batch, beta[lo:hi, :, None])[:, :, 0]
                margin *= sign
                near = np.abs(margin - 1.0) <= gamma * norm[lo:hi]
                for s in np.flatnonzero(near.any(axis=1)) if near.any() else ():
                    alone = int(size[lo + s, 0])
                    margin[s, :alone] = (batch[s, :alone] * sign[s, :alone, None]) @ beta[lo + s]
                batch *= ((margin < 1.0) * sign)[:, :, None]
                np.add.reduce(batch, axis=1, out=violators[lo:hi])
            live = beta[:active]
            t[:active] += size[:active]
            eta = 1.0 / (lam[:active] * t[:active])
            live -= eta * (lam[:active] * live - violators[:active] / size[:active])
            norm[:active] = np.sqrt(np.matmul(live[:, None, :], live[:, :, None])[:, 0])
            live *= radius[:active] / np.maximum(norm[:active], radius[:active])
            running_sum[:active] += live
    if epochs > 0:
        running_sum /= epochs * k[owner, None].astype(float)
    fits = {id(p): [] for p in ordered}  # every fit's weights are a row of one array
    for s, q in enumerate(owner):
        fits[id(ordered[q])].append(LinearSvm(beta=running_sum[s], c=c,
                                              class_pair=ordered[q].class_pair))
    return [fits[id(p)] for p in problems]


def train_svm_binary(
    x: np.ndarray,
    y: np.ndarray,
    c: float = 1.0,
    epochs: int = 50,
    batch_size: int = 32,
    seed=0,
    class_pair: tuple[int, int] = (0, 1),
) -> LinearSvm:
    """Fit one binary SVM on +/-1 labels: ``train_svm_stack`` of one one-slice problem."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be an (n, d) matrix, not a stack")
    problem = SvmProblem(x[None], np.arange(len(x)), y, seed, class_pair)
    return train_svm_stack([problem], c=c, epochs=epochs, batch_size=batch_size)[0][0]


def vote_counts(classes: np.ndarray, n_classes: int) -> np.ndarray:
    """Votes per class in each row of an ``(n, voters)`` array of class indices."""
    n = len(classes)
    cells = (np.arange(n)[:, None] * n_classes + classes).ravel()
    return np.bincount(cells, minlength=n * n_classes).reshape(n, n_classes)


@dataclass
class SvmEnsemble:
    """One-vs-one composition of pairwise SVMs over an ordered class list."""

    svms: list[LinearSvm]
    classes: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Majority vote over all pairwise decisions; ties break low."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x_aug = augment(x if not single else x[None, :])
        voted = np.empty((len(x_aug), len(self.svms)), dtype=int)
        for k, svm in enumerate(self.svms):
            neg, pos = svm.class_pair
            voted[:, k] = np.where(x_aug @ svm.beta >= 0.0, pos, neg)
        pred = vote_counts(voted, self.n_classes).argmax(axis=1)
        return pred[0] if single else pred


def _pair_problems(views: np.ndarray, y_idx: np.ndarray, n_classes: int, seed):
    """An ``SvmProblem`` on ``views`` for each class pair present in ``y_idx``."""
    present = set(np.unique(y_idx).tolist())
    pairs = [p for p in combinations(range(n_classes), 2) if p[0] in present and p[1] in present]
    for (a, b), child in zip(pairs, spawn_seeds(seed, len(pairs))):
        rows = np.flatnonzero((y_idx == a) | (y_idx == b))
        yield SvmProblem(views, rows, np.where(y_idx[rows] == b, 1.0, -1.0), child, (a, b))


def train_svm_ensembles(
    stacks: list[tuple[np.ndarray | list[np.ndarray], np.ndarray, object]],
    classes: tuple[str, ...],
    c: float = 1.0,
    epochs: int = 50,
) -> list[list[SvmEnsemble]]:
    """``train_svm_ensemble`` of every view of several stacks of views, bit for bit.

    ``stacks`` holds ``(views, y_idx, seed)`` triples, ``views`` as in
    ``SvmProblem``; every class pair of every stack is one problem of a single
    ``train_svm_stack`` run.  One list of S ensembles comes back per stack.
    """
    problems = [[*_pair_problems(views, np.asarray(y_idx, dtype=int), len(classes), seed)]
                for views, y_idx, seed in stacks]
    fits = iter(train_svm_stack([p for own in problems for p in own], c=c, epochs=epochs))
    ensembles = []
    for (views, _, _), own in zip(stacks, problems):
        per_pair = [next(fits) for _ in own]
        ensembles.append([SvmEnsemble(svms=[fit[s] for fit in per_pair], classes=tuple(classes))
                          for s in range(len(views))])
    return ensembles


def train_svm_ensemble(
    x: np.ndarray,
    y_idx: np.ndarray,
    classes: tuple[str, ...],
    c: float = 1.0,
    epochs: int = 50,
    seed=0,
) -> SvmEnsemble:
    """Train all pairwise SVMs; pairs missing a class in the data are skipped."""
    stack = np.asarray(x, dtype=float)[None]
    return train_svm_ensembles([(stack, y_idx, seed)], classes, c=c, epochs=epochs)[0][0]


# ---------------------------------------------------------------------------
# random forest


@dataclass
class CartTree:
    """Array-encoded binary decision tree (feature < 0 marks a leaf).

    Children follow their parent in the arrays, so every root-to-leaf walk
    visits rising node indices and ends.  Grown and pruned trees are in
    preorder (a node, then its left subtree, then its right), so pruning is a
    depth mask over the arrays.
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


def _node_depths(feature: np.ndarray, left: np.ndarray, right: np.ndarray,
                 roots: np.ndarray) -> np.ndarray:
    """Each node's depth below its root, walking one level of every tree at a time."""
    depth = np.zeros(len(feature), dtype=int)
    level, d = roots, 0
    while level.size:  # children follow their parents, so the levels run out
        depth[level] = d
        inner = level[feature[level] >= 0]
        level, d = np.concatenate([left[inner], right[inner]]), d + 1
    return depth


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
        node_depth = _node_depths(feature, left, right, roots)
        return cls(roots=roots, feature=feature, threshold=table("threshold", float),
                   left=left, right=right, klass=table("klass", int), node_depth=node_depth,
                   depth=int(node_depth.max(initial=0)))

    def tree_classes(self, x: np.ndarray, steps: int) -> np.ndarray:
        """The class each tree votes for each row of ``x`` after ``steps`` steps, ``(n, trees)``.

        All trees step together, one level per step; a walk that has reached
        its leaf stays there.  Every node holds its majority class, so ``steps``
        d votes as the trees pruned at depth d and ``depth`` as the full trees.
        """
        rows = np.arange(len(x))[:, None]
        node = np.repeat(self.roots[None, :], len(x), axis=0)
        for _ in range(min(steps, self.depth)):
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
    """Grow to purity in preorder; every node records its majority class for later
    pruning, and the nodes' depths come back with the tree."""
    feature, threshold, left, right, klass, depth = [], [], [], [], [], []
    d = x.shape[1]
    stack = [(bootstrap, -1, left, 0)]  # (rows, parent, the parent's child list, depth)
    while stack:  # a node takes its slot when it is popped, left child first
        idx, parent, side, level = stack.pop()
        if parent >= 0:
            side[parent] = len(feature)
        counts = np.bincount(y[idx], minlength=n_classes)
        parent_gini = 1.0 - float(((counts / len(idx)) ** 2).sum())
        split = None
        if parent_gini > 0.0:
            feats = rng.choice(d, size=min(n_feats, d), replace=False)
            split = _best_split(x, y, idx, n_classes, feats)
            if split is not None and split[0] >= parent_gini - 1e-12:
                split = None
        f, thr = split[1:] if split is not None else (-1, 0.0)
        feature.append(f)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        klass.append(int(counts.argmax()))
        depth.append(level)
        if f >= 0:
            go_left = x[idx, f] <= thr
            stack.append((idx[~go_left], len(feature) - 1, right, level + 1))
            stack.append((idx[go_left], len(feature) - 1, left, level + 1))
    tree = CartTree(
        feature=np.array(feature, dtype=int),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=int),
        right=np.array(right, dtype=int),
        klass=np.array(klass, dtype=int),
        bootstrap_indices=bootstrap,
    )
    return tree, np.array(depth, dtype=int)


def _prune_tree(tree: CartTree, depth: np.ndarray, max_depth: int) -> CartTree:
    """Truncate a preorder tree at ``max_depth``; cut nodes become majority-class leaves.

    The nodes at most ``max_depth`` deep (by ``depth``) keep their order, the
    pruned tree's preorder, renumbered by a cumsum; those at the cap lose their
    children.  So the tree pruned at depth d is a subtree of the one at d + 1.
    """
    keep = depth <= max_depth
    index = np.cumsum(keep) - 1
    inner = keep & (tree.feature >= 0) & (depth < max_depth)
    return CartTree(
        feature=np.where(inner, tree.feature, -1)[keep],
        threshold=np.where(inner, tree.threshold, 0.0)[keep],
        left=np.where(inner, index[tree.left], -1)[keep],
        right=np.where(inner, index[tree.right], -1)[keep],
        klass=tree.klass[keep],
        bootstrap_indices=tree.bootstrap_indices,
    )


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
        packed = self.packed
        pred = vote_counts(packed.tree_classes(x, packed.depth), self.n_classes).argmax(axis=1)
        return pred[0] if single else pred

    def truncated(self, n_trees: int, max_depth: int) -> RandomForest:
        """The first ``n_trees`` trees pruned to ``max_depth``.

        Equal node for node to the forest the same seed trains with
        ``n_trees`` trees at ``max_depth``.
        """
        if not (0 <= n_trees <= len(self.trees) and 0 <= max_depth <= self.max_depth):
            raise ValueError(
                f"cannot cut {n_trees} trees at depth {max_depth} from "
                f"{len(self.trees)} trees at depth {self.max_depth}"
            )
        depths = self.packed.node_depth
        return RandomForest(
            trees=[_prune_tree(tree, depths[root: root + tree.n_nodes], max_depth)
                   for tree, root in zip(self.trees[:n_trees], self.packed.roots)],
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
    if len(x) == 0 or max_depth < 0:
        raise ValueError("training data must be nonempty and the depth cap at least 0")
    if feature_subset is None:
        feature_subset = int(np.ceil(np.sqrt(x.shape[1])))
    n = len(x)
    children = spawn_seeds(seed, n_trees)
    trees = []
    for k in range(n_trees):
        rng = np.random.default_rng(children[k])
        bootstrap = rng.integers(0, n, size=n)
        full, depth = _grow_tree(x, y_idx, len(classes), feature_subset, rng, bootstrap)
        trees.append(_prune_tree(full, depth, max_depth))
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


def _check_model(model: SvmEnsemble | RandomForest, n_classes: int) -> None:
    """Reject a loaded model that would read outside its inputs or never end a walk."""
    if isinstance(model, SvmEnsemble):
        for k, svm in enumerate(model.svms):
            if svm.beta.shape != (N_FEATURES + 1,) or not np.isfinite(svm.beta).all():
                raise ValueError(f"svm pair {k}: need {N_FEATURES + 1} finite weights "
                                 f"({N_FEATURES} features and the bias)")
            # an exact type test: JSON true and false are ints to isinstance
            if not (all(type(i) is int and 0 <= i < n_classes for i in svm.class_pair)
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
        if not (np.all(tree.feature[~inner] == -1) and np.all(tree.feature < N_FEATURES)):
            raise ValueError(f"tree {t}: node features must be -1 at leaves and below "
                             f"{N_FEATURES} elsewhere")
        nodes = np.flatnonzero(inner)
        for child in (tree.left[inner], tree.right[inner]):
            if not np.all((child > nodes) & (child < n)):
                raise ValueError(f"tree {t}: a node's children must follow it in the tree")
        if not np.isfinite(tree.threshold).all():
            raise ValueError(f"tree {t}: thresholds must be finite")
        if not np.all((tree.klass >= 0) & (tree.klass < n_classes)):
            raise ValueError(f"tree {t}: node classes must lie in 0..{n_classes - 1}")


def _entry(doc, key: str, kind):
    """``doc[key]`` of a model file, which must be a ``kind`` (a type or a tuple of them)."""
    if not isinstance(doc, dict):
        raise ValueError(f"model file: {key!r} must sit in an object, not a {type(doc).__name__}")
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ValueError(f"model file: {key!r} must be {names}, not {type(value).__name__}")
    return value


def _array(doc, key: str, dtype) -> np.ndarray:
    """``doc[key]`` as an array of JSON integers (``dtype`` int) or numbers (float)."""
    values = _entry(doc, key, list)
    # np.array would truncate 22.7 to the index 22 and read true as 1
    kinds, name = ((int,), "integers") if dtype is int else ((int, float), "numbers")
    if not all(type(v) in kinds for v in values):
        raise ValueError(f"model file: {key!r} must hold only {name}")
    try:
        return np.array(values, dtype=dtype)
    except OverflowError as exc:  # an integer beyond the dtype's range
        raise ValueError(f"model file: {key!r}: {exc}") from None


def load_model(path: str) -> ModelBundle:
    """Read a model file; one that ``save_model`` could not have written is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if _entry(doc, "format_version", int) != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc['format_version']!r}")
    taxonomy_doc = _entry(doc, "taxonomy", dict)
    classes = tuple(_entry(taxonomy_doc, "classes", list))
    if not all(isinstance(name, str) for name in classes):
        raise ValueError("model file: class names must be strings")
    taxonomy = Taxonomy(_entry(taxonomy_doc, "name", str), classes)
    scaling_doc = _entry(doc, "scaling", dict)
    scaling = ScalingTransform(lo=_array(scaling_doc, "lo", float),
                               hi=_array(scaling_doc, "hi", float))
    if scaling.lo.ndim != 1 or scaling.lo.shape != scaling.hi.shape:
        raise ValueError("scaling lo and hi must be two lists of one length")
    if len(scaling.lo) != N_FEATURES:
        raise ValueError(f"scaling must cover the {N_FEATURES} features, not {len(scaling.lo)}")
    if not (np.isfinite(scaling.lo).all() and np.isfinite(scaling.hi).all()
            and np.all(scaling.lo <= scaling.hi)):
        raise ValueError("scaling lo and hi must be finite, with lo <= hi in every column")
    spec = _entry(doc, "model", dict)
    if tuple(_entry(spec, "classes", list)) != taxonomy.classes:
        raise ValueError("model classes differ from the taxonomy classes")
    kind = _entry(doc, "model_kind", str)
    if kind == "svm_ensemble":
        svms = [
            LinearSvm(
                beta=_array(p, "weights", float),
                c=_entry(p, "c", (int, float)),
                class_pair=(p.get("neg"), p.get("pos")),
            )
            for p in _entry(spec, "pairs", list)
        ]
        model: SvmEnsemble | RandomForest = SvmEnsemble(svms=svms, classes=taxonomy.classes)
    elif kind == "random_forest":
        trees = [
            CartTree(
                feature=_array(t, "feature", int),
                threshold=_array(t, "threshold", float),
                left=_array(t, "left", int),
                right=_array(t, "right", int),
                klass=_array(t, "class", int),
            )
            for t in _entry(spec, "trees", list)
        ]
        model = RandomForest(
            trees=trees,
            classes=taxonomy.classes,
            max_depth=_entry(spec, "max_depth", int),
            feature_subset=_entry(spec, "feature_subset", int),
        )
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    _check_model(model, len(taxonomy.classes))
    return ModelBundle(taxonomy=taxonomy, scaling=scaling, model=model)
