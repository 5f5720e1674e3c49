"""Growing a random forest's CART trees, all of them together.

Every tree grows in preorder, node for node as it would grow alone, and the
trees of a forest advance in lockstep.  A step of ``_grow_trees`` takes every
unfinished tree's next impure node in preorder; the pure nodes in front of it
become leaves in the same step, since their class counts are known as soon as
their parent splits.  A forest thus takes as many steps as its largest tree has
impure nodes.  Each tree's distinct bootstrap rows, weighted by their copies,
lie in one buffer, every node's rows a segment of it that the node's split
partitions in place, and each tree's pending nodes sit on a stack of arrays,
so a step is a fixed number of numpy calls whatever the number of trees.

An impure node draws its features as ``rng.choice(d, k, replace=False)`` does
from its tree's generator; ``_Subsets`` makes those draws for all the trees at
once from their raw streams.  The split search (``_best_splits``) ranks split
positions by an exact integer form of the weighted child Gini, kept up one row
at a time over each column's sorted order as in SPRINT (Shafer, Agrawal &
Mehta, VLDB 1996).  Only positions within a proven rounding slack of their
node's best get the float cost of a search alone, and the split is chosen among
them in the same order.  So every tree comes out node for node, bit for bit, as
it would grown alone, and its generator ends in the same state.
"""

from __future__ import annotations

import functools

import numpy as np


def _gini_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini impurity of class counts along the last axis, given their totals."""
    frac = counts / totals[..., None]
    return 1.0 - (frac * frac).sum(axis=-1)


#: distinct rows of one ragged split-search batch; a node with more is searched alone
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


def _best_splits(x, ranks, y, n_classes, rows, weights, starts, feature_ids):
    """Each node's lowest weighted child Gini over a ragged batch of nodes.

    Node b holds the rows ``rows[starts[b]:starts[b + 1]]`` (at least one; the
    last node's run to the end), each as many times as its weight, and
    searches the columns ``feature_ids[b]``; ``ranks`` is ``_dense_ranks(x)``.
    Returns each node's cost, feature and threshold; a node without a column
    of two distinct values offers no split (cost inf, feature -1).  The cost
    of a split is the float ``(n_l * gini_l + n_r * gini_r) / n`` with
    ``_gini_counts``, n counting every row as often as its weight, and the
    split taken has the lowest cost, ties going to the first feature of the
    node's ``feature_ids`` row and then to the lowest threshold.

    Every column of the batch is sorted stably by node and then by dense rank,
    so a node's positions are a stable argsort of its values; a split may
    follow a position whose successor has a higher rank, at the midpoint of
    their values.  Positions are first scored in exact integers.  With S the
    sum of a side's squared class counts, the cost is ``(n - K) / n`` where
    ``K = S_l / n_l + S_r / n_r``, and adding a row of weight w to the left
    side adds ``w (2r + w)`` to S_l, r being the weight of the rows of its
    class before it.  Only near-best positions get a float cost.  Why that is
    the float argmin, with ``u = eps / 2`` and C classes:

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

    A row's copies share its rank, so they never have a split between them,
    and every split, with its counts and keys, is the one the same rows
    listed once per copy give.
    """
    n, n_nodes, n_x = len(rows), len(starts), ranks.shape[1]
    node = np.repeat(np.arange(n_nodes), np.diff(starts, append=n))
    # (F, n): one row per searched column, a node's positions side by side;
    # ``lane`` is each row's offset in the flattened array
    lane = np.arange(0, feature_ids.shape[1] * n, n)[:, None]
    rank = ranks.take((feature_ids.T * n_x)[:, node] + rows)
    # a key of at most 16 bits takes numpy's radix sort
    order = np.argsort((node * n_x + rank).astype(np.min_scalar_type(n_nodes * n_x)),
                       axis=1, kind="stable")
    rank = rank.take(order + lane)
    valid = np.zeros(rank.shape, dtype=bool)
    np.greater(rank[:, 1:], rank[:, :-1], out=valid[:, :-1])
    valid[:, starts[1:] - 1] = False  # a node's last position has no right side
    del rank
    label = y[rows]
    klass = label.astype(np.min_scalar_type(n_classes - 1)).take(order)  # widened in the keys
    weight = weights.take(order)
    totals = np.bincount(node * n_classes + label, weights=weights,
                         minlength=n_nodes * n_classes).astype(np.int64).reshape(-1, n_classes)
    sizes = totals.sum(axis=1)
    sum_sq = (totals * totals).sum(axis=1)
    # a row's class rank is the weight before it in the column sorted stably
    # by (node, class), less the weight before its (node, class) group, the
    # same in every column
    group = node * n_classes + klass
    by_group = np.argsort(group.astype(np.min_scalar_type(n_nodes * n_classes)),
                          axis=1, kind="stable") + lane
    grouped = weight.take(by_group)
    before = np.cumsum(grouped, axis=1)
    before -= grouped
    del grouped
    s_left = np.empty_like(by_group)
    s_left.ravel()[by_group] = before
    del by_group, before
    s_left -= (np.cumsum(totals) - totals.ravel()).take(group)
    # a row of class rank r and weight w adds w (2r + w) to S_l, and a node's
    # rows add up to its sum_sq both in S_l and in the sum over the left of
    # each row's weight times its class total
    s_left *= 2
    s_left += weight
    s_left *= weight
    _restarted_cumsum(s_left, sum_sq, starts)
    s_right = _restarted_cumsum(totals.ravel().take(group) * weight, sum_sq, starts)
    del group
    s_right *= -2
    s_right += s_left
    s_right += sum_sq[node]
    n_left = _restarted_cumsum(weight.copy(), sizes, starts)
    # S_l * (1 / n_l) + S_r * (1 / n_r), each product formed in place
    split_key = np.divide(1.0, n_left)
    split_key *= s_left
    del s_left
    right = np.subtract(sizes[node], n_left, dtype=float)  # n_r, exact
    np.maximum(right, 1.0, out=right)
    np.divide(1.0, right, out=right)
    right *= s_right
    del s_right
    split_key += right
    del right
    split_key *= valid  # 0.0 lies below every valid key, which is positive
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
    cells = (np.arange(len(cand)) - (np.cumsum(width) - width - starts[owner])[cand]
             + n * col[cand])
    left = np.bincount(cand * n_classes + klass.take(cells), weights=weight.take(cells),
                       minlength=len(pos) * n_classes).reshape(-1, n_classes)
    nl = n_left[col, pos].astype(float)
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


# ---------------------------------------------------------------------------
# feature subsets

#: the most columns for which ``rng.choice(d, k, replace=False)`` runs Floyd's
#: algorithm whatever k; past it numpy may shuffle a whole range instead
FLOYD_COLUMNS = 10_000


def _ranges(d: int, k: int) -> np.ndarray:
    """The bounds ``r + 1`` of the Lemire draws, each in ``[0, r]``, that one
    ``choice(d, k, replace=False)`` makes: Floyd's at ``r = d - k, ..., d - 1``
    (``r = 0`` draws nothing), then the shuffle's at ``r = k - 1, ..., 1``."""
    return np.r_[np.arange(max(d - k, 1), d) + 1, np.arange(k, 1, -1)].astype(np.uint64)


def _choices(numbers: np.ndarray, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The subsets that ``choice(d, k, replace=False)`` makes from 32-bit numbers,
    one subset per column of ``numbers`` (one row per draw of ``_ranges``), and
    whether a Lemire draw of the column rejects its number.

    A draw in ``[0, r]`` is the high half of the number times ``r + 1`` unless
    the low half falls below ``2^32 mod (r + 1)``, when numpy draws again.
    Floyd's algorithm takes, for ``j = d - k, ..., d - 1``, its draw in ``[0, j]``
    or ``j`` if the draw was taken before; the shuffle then swaps value ``i``
    with value ``draw`` for ``i = k - 1, ..., 1``.
    """
    bounds = _ranges(d, k)[:, None]
    scaled = numbers * bounds
    rejects = ((scaled & 0xFFFFFFFF) < np.uint64(2**32) % bounds).any(axis=0)
    draws = (scaled >> 32).astype(np.int64)
    n = numbers.shape[1]
    picked = np.zeros((k, n), dtype=np.int64)
    skip = int(d == k)  # Floyd's j = 0 draws nothing and takes 0
    for i in range(skip, k):
        j = d - k + i
        taken = (picked[:i] == draws[i - skip]).any(axis=0)
        picked[i] = np.where(taken, j, draws[i - skip])
    flat = picked.ravel()
    cells = draws[k - skip:] * n + np.arange(n)  # where each swap's other value lies
    for step, i in enumerate(range(k - 1, 0, -1)):
        other = flat.take(cells[step])
        flat[cells[step]] = picked[i]
        picked[i] = other
    return picked.T, rejects


@functools.cache
def _bulk_draws_agree() -> bool:
    """Whether ``_Subsets`` draws what per-node ``choice`` calls draw with this
    numpy: subsets and generator end states, for generators with and without a
    buffered half.  Checked once per process."""
    for d, k in ((92, 10), (6, 6), (9, 1)):
        seeds = [[d, k, buffered] for buffered in (0, 1)]
        rngs, alone = ([np.random.default_rng(s) for s in seeds] for _ in range(2))
        for rng, other, (_, _, buffered) in zip(rngs, alone, seeds):
            rng.integers(0, 9, size=buffered)  # one 32-bit number leaves the other half buffered
            other.integers(0, 9, size=buffered)
        subsets = _Subsets(rngs, d, k, [5, 5], bulk=True)
        steps = [[0, 1]] * 4 + [[1]]
        got = [subsets.take(np.array(step)) for step in steps]
        subsets.close()
        for step, rows in zip(steps, got):
            want = [alone[t].choice(d, k, replace=False) for t in step]
            if not np.array_equal(rows, np.array(want)):
                return False
        if any(a.bit_generator.state != b.bit_generator.state for a, b in zip(rngs, alone)):
            return False
    return True


class _Subsets:
    """Each tree's feature subsets, node after node, as ``rng.choice(d, k,
    replace=False)`` draws them from the tree's generator.

    numpy's ``choice`` runs Floyd's algorithm and shuffles the k values, each
    draw one Lemire bounded integer from one 32-bit number (``_choices``).
    PCG64 hands out the low half of a raw 64-bit output and then its high half,
    which it buffers; a bootstrap may leave one half buffered.  So every node
    takes the same count of 32-bit numbers unless a Lemire draw rejects one.
    Rounds that all the trees asking for a subset share read each tree's raw
    stream ahead, one call per tree, and make the subsets of its next nodes,
    every (tree, node) of the round at once.  A tree makes at most
    ``bounds[t]`` draws, and a round holds the square root of the largest
    bound, or what is left of it: few rounds for most trees, and a small,
    passing allocation for all of them together.  From a node whose numbers
    a draw rejects, its tree calls ``choice`` itself, at the exact state.
    ``close`` then puts every other generator where per-node calls leave it:
    its state before the first read, then one 32-bit number taken for each
    one its subsets used.  Where numpy draws otherwise (``_bulk_draws_agree``),
    or past ``FLOYD_COLUMNS``, every node calls ``choice``; ``bulk`` given
    overrides that choice, as the check itself does.
    """

    def __init__(self, rngs, d: int, k: int, bounds, bulk: bool | None = None):
        if bulk is None:
            bulk = 0 < d <= FLOYD_COLUMNS and _bulk_draws_agree()
        n = len(rngs)
        self.rngs, self.d, self.k = rngs, d, k
        self.bounds = np.asarray(bounds, dtype=int)
        self.width = len(_ranges(d, k))  # 32-bit numbers per subset
        self.direct = np.full(n, not bulk)  # the trees that call choice
        self.start = [None] * n  # a tree's state before its first read
        self.holds = np.zeros(n, dtype=int)  # whether a tree holds a read 32-bit number
        self.held = np.zeros(n, dtype=np.uint64)  # and which
        self.queue = np.zeros((n, 0, k), dtype=np.int64)  # each tree's subsets to come
        self.next = np.zeros(n, dtype=int)  # each tree's next queued subset
        self.ready = np.zeros(n, dtype=int)  # its queued subsets
        self.cut = np.zeros(n, dtype=bool)  # whether a rejection cut its queue short
        self.taken = np.zeros(n, dtype=int)  # the subsets it took from queues

    def take(self, trees: np.ndarray) -> np.ndarray:
        """The next subset of each of ``trees``, ``(len(trees), k)``."""
        out = np.empty((len(trees), self.k), dtype=np.int64)
        used_up = trees[~self.direct[trees] & (self.next[trees] == self.ready[trees])]
        if used_up.size:
            if np.any(~self.cut[used_up]):
                self._round(used_up[~self.cut[used_up]])
            for t in used_up[self.next[used_up] == self.ready[used_up]].tolist():
                self._settle(t)  # its next node's numbers reject a draw
                self.direct[t] = True
        queued = ~self.direct[trees]
        at = trees[queued]
        out[queued] = self.queue[at, self.next[at]]
        self.next[at] += 1
        self.taken[at] += 1
        for i in np.flatnonzero(~queued).tolist():
            out[i] = self.rngs[trees[i]].choice(self.d, self.k, replace=False)
        return out

    def _round(self, trees: np.ndarray) -> None:
        """Queue the next subsets of ``trees``, whose queues are used up."""
        m = max(min(int(np.ceil(np.sqrt(self.bounds[trees].max()))),
                    int((self.bounds[trees] - self.taken[trees]).max())), 1)
        need = m * self.width
        for t in trees.tolist():
            if self.start[t] is None:
                self.start[t] = state = self.rngs[t].bit_generator.state
                self.holds[t], self.held[t] = state["has_uint32"], state["uinteger"]
        holds = self.holds[trees]
        reads = (need - holds + 1) // 2
        raw = np.concatenate([self.rngs[t].bit_generator.random_raw(r)
                              for t, r in zip(trees.tolist(), reads.tolist())])
        halves = np.empty(2 * len(raw), dtype=np.uint64)
        halves[0::2], halves[1::2] = raw & 0xFFFFFFFF, raw >> 32
        # a tree's numbers: the one it holds, then the halves of its reads
        begin = np.cumsum(2 * reads) - 2 * reads
        col = np.arange(need)
        at = np.where(col < holds[:, None], np.arange(len(trees))[:, None],
                      len(trees) + (begin - holds)[:, None] + col)
        numbers = np.concatenate([self.held[trees], halves])[at]
        self.holds[trees] = holds + 2 * reads - need
        if len(halves):  # a tree left holding a number holds its last half
            self.held[trees] = np.where(reads > 0, halves[np.maximum(begin + 2 * reads - 1, 0)],
                                        self.held[trees])
        subsets, rejects = _choices(numbers.reshape(len(trees) * m, self.width).T, self.d, self.k)
        rejects = rejects.reshape(len(trees), m)
        if self.queue.shape[1] < m:
            self.queue = np.concatenate(
                [self.queue, np.zeros((len(self.queue), m - self.queue.shape[1], self.k),
                                      dtype=np.int64)], axis=1)
        self.queue[trees, :m] = subsets.reshape(len(trees), m, self.k)
        self.next[trees] = 0
        self.cut[trees] = rejects.any(axis=1)
        self.ready[trees] = np.where(self.cut[trees], rejects.argmax(axis=1), m)

    def _settle(self, t: int) -> None:
        """Put tree t's generator where per-node calls for its queued subsets leave it."""
        if self.start[t] is not None:
            rng = self.rngs[t]
            rng.bit_generator.state = self.start[t]
            rng.random(self.taken[t] * self.width, dtype=np.float32)  # one 32-bit number each
            self.start[t] = None

    def close(self) -> None:
        """Put every generator where per-node ``choice`` calls leave it."""
        for t in range(len(self.rngs)):
            self._settle(t)


# ---------------------------------------------------------------------------
# growing


def _classes_and_gini(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The majority class (ties low) and Gini impurity of each row of class counts."""
    return counts.argmax(axis=1), _gini_counts(counts, counts.sum(axis=1))


def _grow_trees(x, y, n_classes, n_feats, rngs, bootstraps):
    """Grow one tree per generator and bootstrap, to purity and in preorder, all
    of them together, and return the forest's node table ``(trees, feature,
    threshold, left, right, klass)`` as ``learn.RandomForest`` holds it.

    A tree holds each distinct row of its bootstrap once, weighted by its
    copies, and keeps a stack of pending nodes, each a segment of those rows
    with its parent link, majority class and Gini.  A step pops from every
    tree's stack down to its topmost impure node: the pure nodes above it are
    leaves, numbered in preorder as they pop, and the impure node draws its
    features (``_Subsets``, so each generator makes the draws it would make
    grown alone).  The step's splits are searched with ``_best_splits`` in
    batches of at most ``SPLIT_BATCH_ROWS`` distinct rows, and a split is kept
    when its cost is below ``parent_gini - 1e-12``.  A kept split partitions
    the node's segment in place, left rows first and each side in its order,
    and pushes the right child and then the left, which pops first.  A tree
    with no impure node left pops all its leaves and is done.  The table takes
    the trees one after another, each tree's nodes in preorder.
    """
    n_trees, d = len(rngs), x.shape[1]
    if not n_trees:
        none = np.zeros(0, dtype=int)
        return none, none, np.zeros(0), none, none, none
    ranks = _dense_ranks(x)
    # each tree's distinct bootstrap rows, in row order, weighted by their copies
    drawn = [np.asarray(b, dtype=int) for b in bootstraps]
    copies = np.bincount(np.concatenate([t * len(x) + b for t, b in enumerate(drawn)]),
                         minlength=n_trees * len(x))
    tree_of, rows = np.divmod(np.flatnonzero(copies), len(x))
    weights = copies[copies > 0]
    sizes = np.bincount(tree_of, minlength=n_trees)
    # an impure node holds two distinct rows and a split parts them, so a tree
    # makes at most (its distinct rows - 1) draws
    subsets = _Subsets(rngs, d, min(n_feats, d), sizes - 1)
    # the stacks: segment start and size, link (2 * parent + 1 for a right
    # child, -1 at a root), majority class and Gini
    cap = 8
    field = np.zeros((4, n_trees, cap), dtype=int)
    gini = np.zeros((n_trees, cap))
    counts = np.bincount(tree_of * n_classes + y[rows], weights=weights,
                         minlength=n_trees * n_classes).astype(int).reshape(n_trees, n_classes)
    klass, gini[:, 0] = _classes_and_gini(counts)
    field[:, :, 0] = [np.cumsum(sizes) - sizes, sizes, np.full(n_trees, -1), klass]
    top = np.ones(n_trees, dtype=int)  # nodes on each stack
    numbered = np.zeros(n_trees, dtype=int)  # nodes each tree has numbered
    nodes = []  # per pop: trees, preorder indices, feature, threshold, class, link
    while True:
        slot = np.arange(cap)
        held = slot < top[:, None]
        impure = np.where(held & (gini > 0.0), slot, -1).max(axis=1)  # -1 for none
        t, s = np.nonzero(held & (slot > impure[:, None]))
        if t.size:
            nodes.append((t, numbered[t] + top[t] - 1 - s, np.full(t.size, -1),
                          np.zeros(t.size), field[3, t, s], field[2, t, s]))
        grow = np.flatnonzero(impure >= 0)
        if not grow.size:
            break
        s = impure[grow]
        index = numbered[grow] + top[grow] - 1 - s
        numbered += top - np.maximum(impure, 0)
        top = np.maximum(impure, 0)
        first, size, link, klass = field[:, grow, s]
        feats = subsets.take(grow)
        ends = np.cumsum(size)
        offsets = ends - size
        owner = np.repeat(np.arange(len(grow)), size)
        at = np.arange(ends[-1]) + (first - offsets)[owner]
        node_rows, node_weights = rows[at], weights[at]
        node_gini = gini[grow, s]
        feature = np.full(len(grow), -1)
        threshold = np.zeros(len(grow))
        lo = 0
        while lo < len(grow):  # batches of at most SPLIT_BATCH_ROWS, or one node
            hi = max(lo + 1, int(np.searchsorted(ends, offsets[lo] + SPLIT_BATCH_ROWS,
                                                 side="right")))
            batch = slice(offsets[lo], ends[hi - 1])
            cost, f, thr = _best_splits(x, ranks, y, n_classes, node_rows[batch],
                                        node_weights[batch], offsets[lo:hi] - offsets[lo],
                                        feats[lo:hi])
            keep = (f >= 0) & (cost < node_gini[lo:hi] - 1e-12)
            feature[lo:hi] = np.where(keep, f, -1)
            threshold[lo:hi] = np.where(keep, thr, 0.0)
            lo = hi
        nodes.append((grow, index, feature, threshold, klass, link))
        split = np.flatnonzero(feature >= 0)
        if not split.size:
            continue
        right = x[node_rows, feature[owner]] > threshold[owner]
        right &= feature[owner] >= 0
        side = 2 * owner + right
        parted = np.argsort(side, kind="stable")
        rows[at], weights[at] = node_rows[parted], node_weights[parted]
        counts = np.bincount(side * n_classes + y[node_rows], weights=node_weights,
                             minlength=2 * len(grow) * n_classes).astype(int)
        counts = counts.reshape(-1, 2, n_classes)[split].reshape(-1, n_classes)
        child_class, child_gini = _classes_and_gini(counts)
        n_left = np.bincount(side, minlength=2 * len(grow))[2 * split]
        t = grow[split]
        if top[t].max() + 2 > cap:
            field = np.concatenate([field, np.zeros_like(field)], axis=2)
            gini = np.concatenate([gini, np.zeros_like(gini)], axis=1)
            cap *= 2
        for side_of, s in ((1, top[t]), (0, top[t] + 1)):  # the left child pops first
            field[:, t, s] = [first[split] + side_of * n_left,
                              np.where(side_of, size[split] - n_left, n_left),
                              2 * index[split] + side_of, child_class[side_of::2]]
            gini[t, s] = child_gini[side_of::2]
        top[t] += 2
    subsets.close()
    tree, index, feature, threshold, klass, link = (np.concatenate(f) for f in zip(*nodes))
    n_nodes = np.bincount(tree, minlength=n_trees)
    trees = np.cumsum(n_nodes) - n_nodes
    at = trees[tree] + index
    table = np.full((4, len(at)), -1)
    table[0, at], table[3, at] = feature, klass
    thresholds = np.zeros(len(at))
    thresholds[at] = threshold
    child = link >= 0
    table[1 + link[child] % 2, trees[tree[child]] + link[child] // 2] = at[child]
    return trees, table[0], thresholds, table[1], table[2], table[3]
