"""Growing a random forest's CART trees, all of them together.

Each step of ``_grow_trees`` takes the next preorder node of every unfinished
tree, draws each impure node's feature subset from its own tree's generator,
and searches all their splits in ragged batches (``_best_splits``).  The search
ranks split positions by an exact integer form of the weighted child Gini, kept
up one row at a time over each column's sorted order as in SPRINT (Shafer,
Agrawal & Mehta, VLDB 1996).  Only positions within a proven rounding slack of
their node's best get the float cost of a search alone, and the split is chosen
among them in the same order.  So every tree comes out node for node, bit for
bit, as it would grown alone, and its generator ends in the same state.
"""

from __future__ import annotations

import numpy as np


def _gini_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini impurity of class counts along the last axis, given their totals."""
    frac = counts / totals[..., None]
    return 1.0 - (frac * frac).sum(axis=-1)


#: rows of one ragged split-search batch; a node with more rows is searched alone
SPLIT_BATCH_ROWS = 4096


def _dense_ranks(x: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values of its column, as a ``(d, n)``
    array of the narrowest unsigned type that holds ``n - 1``."""
    order = np.argsort(x, axis=0, kind="stable")
    ordered = np.take_along_axis(x, order, axis=0)
    dense = np.zeros(x.shape, dtype=np.min_scalar_type(max(len(x) - 1, 0)))
    np.cumsum(ordered[1:] > ordered[:-1], axis=0, dtype=dense.dtype, out=dense[1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=0)
    return np.ascontiguousarray(ranks.T)


def _restarted_cumsum(steps: np.ndarray, node_sums: np.ndarray, starts: np.ndarray):
    """Cumsum along the rows of ``steps`` in place, restarted at each node, given
    each node's sum."""
    steps[:, starts[1:]] -= node_sums[:-1]
    return np.cumsum(steps, axis=1, out=steps)


def _best_splits(x, ranks, y, n_classes, idxs, feature_ids):
    """Each node's lowest weighted child Gini over a ragged batch of nodes.

    Node b holds the rows ``idxs[b]`` (at least one) and searches the columns
    ``feature_ids[b]``; ``ranks`` is ``_dense_ranks(x)``.  Returns each node's
    cost, feature and threshold; a node without a column of two distinct
    values offers no split (cost inf, feature -1).  The cost of a split is the
    float ``(n_l * gini_l + n_r * gini_r) / n`` with ``_gini_counts``, and the
    split taken has the lowest cost, ties going to the first feature of the
    node's ``feature_ids`` row and then to the first position.

    Every column of the batch is sorted stably by node and then by dense rank,
    so a node's positions are a stable argsort of its values; a split may
    follow a position whose successor has a higher rank, at the midpoint of
    their values.  Positions are first scored in exact integers.  With S the
    sum of a side's squared class counts, the cost is ``(n - K) / n`` where
    ``K = S_l / n_l + S_r / n_r``, and adding a row to the left side adds
    ``2r + 1`` to S_l, r being the number of rows of its class before it.
    Only near-best positions get a float cost.  Why that is the float argmin,
    with ``u = eps / 2`` and C classes:

    - K is computed as ``S_l * (1 / n_l) + S_r * (1 / n_r)`` from exact
      integers (S is at most n^2): three roundings of positive terms, so it
      is off by less than 3.01 u K, and K is at most n;
    - in the float cost, ``c / n_l``, its square, the sum of C squares and
      ``1 - sum`` stay within [0, 1] and put it off by at most (C + 3) u;
      the products by n_l and n_r, their sum and the division by n add a
      rounding each, so the float cost is within (C + 7) u of ``(n - K) / n``
      (second-order terms included);
    - a position whose computed K falls more than ``2 (C + 7) u n + 6.02 u n
      < (C + 11) eps n`` below the node's best computed K therefore costs
      more in float than the best position does: it can be neither the
      float argmin nor tie with it.  Every other position (twice that slack,
      for margin) has its class counts taken and its float cost computed as
      above, and the order above picks among them.
    """
    sizes = np.array([len(i) for i in idxs])
    starts = np.cumsum(sizes) - sizes
    rows = np.concatenate(idxs)
    n, n_nodes, n_x = len(rows), len(idxs), ranks.shape[1]
    node = np.repeat(np.arange(n_nodes), sizes)
    n_left = np.arange(1, n + 1) - starts[node]
    n_right = sizes[node] - n_left
    # (F, n): one row per searched column, a node's positions side by side
    rank = ranks.take(feature_ids.T[:, node] * n_x + rows)
    # a key of at most 16 bits takes numpy's radix sort
    order = np.argsort((node * n_x + rank).astype(np.min_scalar_type(n_nodes * n_x)),
                       axis=1, kind="stable")
    rank = np.take_along_axis(rank, order, axis=1)
    valid = np.zeros(rank.shape, dtype=bool)
    np.greater(rank[:, 1:], rank[:, :-1], out=valid[:, :-1])
    valid &= n_right > 0
    del rank
    label = y[rows]
    klass = label.astype(np.min_scalar_type(n_classes - 1))[order]  # widened in the keys
    totals = np.bincount(node * n_classes + label,
                         minlength=n_nodes * n_classes).reshape(-1, n_classes)
    sum_sq = (totals * totals).sum(axis=1)
    # a row's class rank is its place in the column sorted stably by (node,
    # class) less the start of its (node, class) group, the same in every column
    group = node * n_classes + klass
    by_group = np.argsort(group.astype(np.min_scalar_type(n_nodes * n_classes)),
                          axis=1, kind="stable")
    s_left = np.empty_like(by_group)
    np.put_along_axis(s_left, by_group, np.arange(n), axis=1)
    s_left -= (np.cumsum(totals) - totals.ravel())[group]
    del group, by_group
    # a row of class rank r adds 2r + 1 to S_l, and a node's rows add up to
    # its sum_sq both in S_l and in the sum over the left of each row's class total
    s_left *= 2
    s_left += 1
    _restarted_cumsum(s_left, sum_sq, starts)
    s_right = _restarted_cumsum(totals[node, klass], sum_sq, starts)
    s_right *= -2
    s_right += s_left
    s_right += sum_sq[node]
    split_key = s_left * (1.0 / n_left)
    del s_left
    split_key += s_right * (1.0 / np.maximum(n_right, 1))
    del s_right
    split_key[~valid] = -np.inf
    best = np.maximum.reduceat(split_key.max(axis=0), starts)
    slack = 2 * (n_classes + 11) * np.finfo(float).eps * sizes
    col, pos = np.nonzero(valid & (split_key >= (best - slack)[node]))
    cost = np.full(n_nodes, np.inf)
    feature = np.full(n_nodes, -1)
    threshold = np.zeros(n_nodes)
    if len(pos) == 0:
        return cost, feature, threshold
    # each candidate's class counts over its node's positions up to it
    owner = node[pos]
    width = pos - starts[owner] + 1
    cand = np.repeat(np.arange(len(pos)), width)
    cells = np.arange(len(cand)) - (np.cumsum(width) - width - starts[owner])[cand]
    left = np.bincount(cand * n_classes + klass[col[cand], cells],
                       minlength=len(pos) * n_classes).reshape(-1, n_classes).astype(float)
    nl = width.astype(float)
    nr = sizes[owner] - nl
    cand_cost = (nl * _gini_counts(left, nl)
                 + nr * _gini_counts(totals[owner] - left, nr)) / sizes[owner]
    pick = np.lexsort((pos, col, cand_cost, owner))
    pick = pick[np.r_[True, owner[pick][1:] != owner[pick][:-1]]]
    at, p, j = owner[pick], pos[pick], col[pick]
    cost[at] = cand_cost[pick]
    feature[at] = feature_ids[at, j]
    lo, hi = rows[order[j, p]], rows[order[j, p + 1]]
    threshold[at] = 0.5 * (x[lo, feature[at]] + x[hi, feature[at]])
    return cost, feature, threshold


def _grow_trees(x, y, n_classes, n_feats, rngs, bootstraps):
    """Grow one tree per generator and bootstrap, to purity and in preorder, all
    of them together, and return the forest's node table ``(trees, feature,
    threshold, left, right, klass)`` as ``learn.RandomForest`` holds it.

    Each step pops the next node of every unfinished tree, so a tree's node
    popped at step s is its node s.  It takes all their class counts and
    parent Ginis at once, draws each impure node's features from its own
    tree's generator in tree order, and searches their splits with
    ``_best_splits`` in batches of at most ``SPLIT_BATCH_ROWS`` rows.  A
    tree's generator thus makes the draws it would make grown alone, and a
    split is kept when its cost is below ``parent_gini - 1e-12``.  The table
    takes the trees one after another, each tree's nodes in step order.
    """
    n_trees, n_draw = len(rngs), min(n_feats, x.shape[1])
    ranks = _dense_ranks(x)
    # (rows, 2 * parent step + 1 for a right child); left children pop first
    stacks = [[(bootstrap, -1)] for bootstrap in bootstraps]
    steps = []  # per step: the trees it grew and their nodes' fields
    live = np.arange(n_trees)
    while live.size:
        popped = [stacks[t].pop() for t in live]
        idxs = [node[0] for node in popped]
        sizes = np.array([len(i) for i in idxs])
        owner = np.repeat(np.arange(len(live)), sizes)
        rows = np.concatenate(idxs)
        counts = np.bincount(owner * n_classes + y[rows],
                             minlength=len(live) * n_classes).reshape(-1, n_classes)
        parent_gini = 1.0 - ((counts / sizes[:, None]) ** 2).sum(axis=1)
        impure = np.flatnonzero(parent_gini > 0.0)
        feats = np.array([rngs[live[i]].choice(x.shape[1], size=n_draw, replace=False)
                          for i in impure], dtype=np.int64).reshape(len(impure), n_draw)
        feature = np.full(len(live), -1)
        threshold = np.zeros(len(live))
        lo = 0
        while lo < len(impure):  # batches of at most SPLIT_BATCH_ROWS rows, or one node
            hi, batch = lo + 1, sizes[impure[lo]]
            while hi < len(impure) and batch + sizes[impure[hi]] <= SPLIT_BATCH_ROWS:
                batch += sizes[impure[hi]]
                hi += 1
            at = impure[lo:hi]
            cost, f, thr = _best_splits(x, ranks, y, n_classes, [idxs[i] for i in at],
                                        feats[lo:hi])
            keep = (f >= 0) & (cost < parent_gini[at] - 1e-12)
            feature[at[keep]], threshold[at[keep]] = f[keep], thr[keep]
            lo = hi
        steps.append((live, feature, threshold, counts.argmax(axis=1),
                      np.array([node[1] for node in popped])))
        split = np.flatnonzero(feature >= 0)
        if split.size:
            # each split node's rows, left then right, in their order
            right = x[rows, feature[owner]] > threshold[owner]
            side = 2 * owner + right
            ordered = rows[np.argsort(side, kind="stable")]
            ends = np.cumsum(np.bincount(side, minlength=2 * len(live))).tolist()
            slot = len(steps) - 1
            for i in split.tolist():
                stack = stacks[live[i]]
                first, middle, last = ends[2 * i + 1] - sizes[i], ends[2 * i], ends[2 * i + 1]
                # a right child may wait long on its stack: a copy lets this
                # step's rows go once the left child, popped next, is done
                stack.append((ordered[middle:last].copy(), 2 * slot + 1))
                stack.append((ordered[first:middle], 2 * slot))
        live = live[[len(stacks[t]) > 0 for t in live]]
    # tree t's node s is column t of step s's fields, its children steps of tree t
    fields = np.full((4, len(steps), n_trees), -1)
    thresholds = np.zeros((len(steps), n_trees))
    n_nodes = np.zeros(n_trees, dtype=int)
    for s, (live, feature, threshold, klass, link) in enumerate(steps):
        fields[0, s, live], fields[3, s, live] = feature, klass
        thresholds[s, live] = threshold
        child = link >= 0
        fields[1 + link[child] % 2, link[child] // 2, live[child]] = s
        n_nodes[live] += 1
    trees = np.cumsum(n_nodes) - n_nodes
    grown = np.arange(len(steps)) < n_nodes[:, None]  # (tree, step): tree order, then step
    feature, left, right, klass = fields.transpose(0, 2, 1)[:, grown]
    offset = np.repeat(trees, n_nodes)
    left, right = (np.where(child >= 0, child + offset, -1) for child in (left, right))
    return trees, feature, thresholds.T[grown], left, right, klass
