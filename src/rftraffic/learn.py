"""From-scratch classifiers: l2-regularized linear SVM and a CART random forest.

The SVM minimizes ``0.5 * ||b||^2 + C * sum(max(0, 1 - y * <b, x>))`` by
stochastic subgradient descent with the step schedule ``eta_t = 1 / (lambda t)``
where ``lambda = 1 / (C * |D|)``; the fitted weights are the average of all
iterates.  A constant-one feature augments the inputs so the bias is
regularized like every other weight and the objective keeps its plain form
over the augmented space.  The trainer works on label-signed rows
``y * [x, 1]`` and runs a ragged list of problems in lockstep
(``train_svm_stack``): each problem is some rows of one of the run's
matrices, with its own labels and seed, and one list of views, each a
selection of columns, serves every problem.  Every problem's batch rows are
gathered once at full width, the margin guard is derived for that width,
each fit's violators are packed in batch order and summed in blocks of fits
with like violator counts, and each fit keeps its state at its view's own
width, so every fit comes out bit for bit as its view fitted alone; one fit
is the one-problem, one-view case.
Multi-class problems are composed one-vs-one: one weight row per class pair
and the class each sign of it votes for, combined by majority vote.  An
ensemble is that weight table, the layout of the emitted C file.

The random forest grows bootstrapped CART trees with Gini-impurity splits over
a fresh random feature subset per node; prediction is the majority vote over
trees.  Ties break toward the lowest class index everywhere.  A forest is one
node table, its trees one after another, which is the layout of the emitted C
file: growing, pruning, prediction, model files and C emission all work on it.

Every tree is grown to purity, in preorder, from a seed derived from its index
alone and only then pruned to the depth cap by one depth mask over the table.
The first n trees of a forest, each pruned again to a smaller depth d, are
therefore node for node the forest that the same seed trains with n trees at
depth d (``RandomForest.truncated``).  Every node holds its majority class, so
that forest votes what the full one votes after d steps of its walk; the forest
grid of ``export.grid_search`` scores all of its cells from one forest this way.

The trees of a forest grow together in ``cart``, each node for node as it
would grow alone; that module loads when a forest is first trained.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
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


#: a margin within this many rounding bounds ``D * eps * |row| * |beta|`` of 1.0
#: is recomputed in the shape a fit alone computes it (see ``train_svm_stack``)
MARGIN_GUARD = 4.0

#: the fixed cost of summing one more block of violators (``_violator_sums``),
#: in numbers gathered and summed: a block's numpy calls cost about 31 µs and
#: a number about 5 ns on one x86-64 core, some 6,000 numbers, and the cut
#: rule counts a lower bound of the padding it sheds
BLOCK_NUMBERS = 1 << 12

#: a view column that reads 0.0 in every row (``train_svm_stack``)
ZERO_COLUMN = -1


class SvmProblem(NamedTuple):
    """One binary problem of ``train_svm_stack``: some rows of one of its matrices.

    ``matrix`` is the index of that matrix among the run's matrices, ``rows``
    picks the problem's rows out of it and ``labels`` gives each of them +/-1.
    Every view of the run is one fit on those rows, and all of them take the
    shuffles of ``seed``.  Problems may share a matrix.
    """

    matrix: int
    rows: np.ndarray
    labels: np.ndarray
    seed: object = 0


def _view_columns(columns, d: int) -> np.ndarray:
    """A view's columns as pool columns: ``ZERO_COLUMN`` becomes the zero
    column ``d + 1``, and the bias column ``d`` comes last."""
    columns = np.asarray(columns)
    if columns.ndim != 1 or not columns.size or columns.dtype.kind not in "iu":
        raise ValueError("a view must be a nonempty list of column indices")
    if columns.min() < ZERO_COLUMN or columns.max() >= d:
        raise ValueError(f"view columns must lie in {ZERO_COLUMN}..{d - 1}")
    read = columns[columns != ZERO_COLUMN]
    if len(np.unique(read)) != len(read):
        raise ValueError("a view may read each column once")
    return np.append(np.where(columns == ZERO_COLUMN, d + 1, columns), d)


def _pool(matrices) -> tuple[np.ndarray, np.ndarray]:
    """Every matrix as rows ``[x, 1, 0]`` (the bias and a zero column), one
    after the other in one array, and the first pool row of each matrix
    (and one past the last).

    The matrices themselves are dropped once copied, so a caller that builds
    them as they are read holds no second copy.
    """
    blocks = [np.asarray(x, dtype=float) for x in matrices]
    if any(b.ndim != 2 for b in blocks) or len({b.shape[1] for b in blocks}) != 1:
        raise ValueError("matrices must be one or more (n, d) arrays of one width d")
    d = blocks[0].shape[1]
    if d < 1:
        raise ValueError("matrices need at least one column")
    firsts = np.cumsum([0] + [len(b) for b in blocks])
    pool = np.zeros((firsts[-1], d + 2))
    np.concatenate(blocks, out=pool[:, :d])
    pool[:, d] = 1.0
    return pool, firsts


def _checked_problem(problem: SvmProblem, firsts: np.ndarray) -> SvmProblem:
    """``problem`` with its rows as pool rows."""
    i = problem.matrix
    if type(i) is not int or not 0 <= i < len(firsts) - 1:  # an exact type test: no bool
        raise ValueError(f"a problem's matrix must be the index of one of the "
                         f"{len(firsts) - 1} matrices, not {i!r}")
    rows = np.asarray(problem.rows, dtype=np.intp)
    labels = np.asarray(problem.labels, dtype=float)
    if rows.ndim != 1 or rows.shape != labels.shape:
        raise ValueError("need one label per row")
    if not np.all((labels == 1.0) | (labels == -1.0)):
        raise ValueError("labels must be exactly +1 or -1")
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise ValueError("training data must contain both classes")
    if rows.min() < 0 or rows.max() >= firsts[i + 1] - firsts[i]:
        raise ValueError("rows must index the rows of the problem's matrix")
    return problem._replace(rows=rows + firsts[i], labels=labels)


class _Fits:
    """The fits of the views of one width: their state is ``(problems, views,
    width)``, the problems largest first, so that those still stepping are a
    prefix.  View ``views[u]`` reads the pool columns ``columns[u]``."""

    def __init__(self, views: list[int], columns: list[np.ndarray], lam: np.ndarray,
                 m: np.ndarray):
        self.views = np.array(views)
        self.columns = np.stack(columns)
        self.lam = lam
        self.radius = 1.0 / np.sqrt(lam)
        self.size = m.astype(float)[:, :, None, None]  # batch sizes, by step
        self.beta = np.zeros((len(lam),) + self.columns.shape)
        self.running_sum = np.zeros_like(self.beta)


def train_svm_stack(
    matrices: Iterable[np.ndarray],
    problems: list[SvmProblem],
    views: list[np.ndarray] | None = None,
    c: float = 1.0,
    epochs: int = 50,
    batch_size: int = 32,
) -> list[list[np.ndarray]]:
    """Fit every view of every problem in one lockstep run; per problem, one
    weight vector per view, the bias weight last.

    ``matrices`` is an iterable of ``(N_i, D)`` arrays, read once, and each
    problem names one of them.  Each entry of ``views`` is the indices of the
    columns a view reads, in its order, where ``ZERO_COLUMN`` reads 0.0;
    ``None`` is one view of every column.  Every problem is read through
    every view.  A problem's fits take its seeded shuffles and mini-batches,
    and each fit's weight vector is the average of all its iterates (zero
    after no epochs).  Every fit comes out bit for bit as its view fitted alone.

    The steps work on label-signed rows ``y * [x, 1]``: a row's margin is its
    dot product with ``beta`` and a violator's subgradient term is the row
    itself (negation is exact and round-to-nearest symmetric, so this is the
    arithmetic of applying the label after the product).  Problems run
    largest first, so in every step the problems still stepping are a prefix
    and their batch sizes fall along it.  The views select columns of one
    pool of full-width rows ``[x, 1, 0]``.  A step gathers each problem's
    batch rows once, at full width, padded to the widest batch of its chunk
    with rows of sign zero, and takes the margins of all the views in one
    product: the rows times the views' weights, each scattered into a zero
    column of full width.  Each fit keeps its state at its view's own width:
    the fits of the views of one width share one ``(problems, views, width)``
    array.  A fit sums its violators packed in batch order at the front of a
    block whose other rows are a padding slot of sign zero
    (``_violator_sums``), and it updates, projects and sums elementwise with
    per-fit ``lam``, ``eta``, ``m`` and radius.  Each problem's shuffles are
    drawn for as many epochs at once as the run's buffer budget holds
    (``_epoch_shuffles``), the rows and generator states that one shuffle per
    epoch draws.  Why the bits hold:

    - a full-width margin is another rounding of the view's dot product (the
      other columns add exact zeros), and any two roundings of a dot product
      of length at most W, the pool's width, lie within ``W * eps * |row| *
      |beta|`` of each other, with ``|row|`` the full row's norm; only
      ``margin < 1`` uses a margin, so one within ``MARGIN_GUARD`` such
      bounds of 1.0 (``|row|`` the largest over the rows the problems train
      on) is recomputed as ``batch @ beta`` of the view's own batch alone;
    - each column of a violator sum adds the violating rows in batch order
      along a non-last axis (a view has at least two columns, the bias among
      them, so numpy never sums them pairwise), then zeros, which moves at
      most the sign of a zero sum and never ``beta`` (no weight is ever
      -0.0); which block a fit is summed in changes only how many zeros
      follow, and a step without violators subtracts none, as a fit alone;
    - the squared norms are a same-shape stacked ``matmul`` at the view's own
      width, one dot product per fit, and the projection factor is exactly
      1.0 inside the radius.
    """
    problems = list(problems)
    if not problems:
        return []
    pool, firsts = _pool(matrices)
    d = pool.shape[1]
    views = [np.arange(d - 2)] if views is None else list(views)
    if not views:
        raise ValueError("a run needs at least one view")
    columns = [_view_columns(cols, d - 2) for cols in views]
    problems = [_checked_problem(p, firsts) for p in problems]
    order = sorted(range(len(problems)), key=lambda i: -len(problems[i].rows))
    ordered = [problems[i] for i in order]
    n = np.array([len(p.rows) for p in ordered])
    k = -(-n // batch_size)  # steps per epoch, falling along the problems
    lam = 1.0 / (c * n[:, None, None])
    m = np.minimum(batch_size, n[:, None] - batch_size * np.arange(k[0]))  # batch sizes
    size = m.astype(float)[:, :, None]
    by_width: dict[int, list[int]] = {}
    for v, cols in enumerate(columns):
        by_width.setdefault(len(cols), []).append(v)
    fits = [_Fits(same, [columns[v] for v in same], lam, m) for same in by_width.values()]
    slots = [None] * len(views)  # view v is view u of fit: slots[v] == (fit, u)
    for fit in fits:
        for u, v in enumerate(fit.views.tolist()):
            slots[v] = fit, u
    # an epoch's batches: table[q, j * batch_size + b] is the pool row of row
    # b of problem q's batch j; padding repeats the problem's first row, with sign 0
    span = int(k[0]) * batch_size
    all_rows = np.concatenate([p.rows for p in ordered])
    all_labels = np.concatenate([p.labels for p in ordered])
    dest = np.concatenate([q * span + np.arange(n_q) for q, n_q in enumerate(n)])
    pad = np.array([p.rows[0] for p in ordered])
    row_table = np.repeat(pad[:, None], span, axis=1)
    sign_table = np.zeros((len(ordered), span))
    gamma = MARGIN_GUARD * d * np.finfo(float).eps * np.sqrt(
        np.einsum("ij,ij->i", pool, pool)[all_rows].max())
    budget = max(pool.size // 2, batch_size * d * len(views))
    buffer = np.empty(budget)
    # batch j: how many problems still step, their pool rows and signs (with
    # one more padding slot, which a fit's violator block reads past its
    # violators), which rows each view finds inside the margin, and the
    # chunks of the problems: each chunk's batch is as wide as its first
    # problem's, and a chunk holds its problems' rows, signs, full-width rows
    # in ``buffer`` and hits, and the bound a margin must fall below (-inf at
    # padding, which never violates)
    plan = []
    for j in range(k[0]):
        active = int(np.count_nonzero(k > j))
        rows, sign = np.zeros((active, m[0, j] + 1), dtype=int), np.zeros((active, m[0, j] + 1))
        rows[:, -1] = pad[:active]
        hit = np.zeros((active, len(views), m[0, j]), dtype=bool)
        chunks, lo = [], 0
        while lo < active:
            wide = int(m[lo, j])
            hi = min(active, lo + max(1, budget // (d * (wide + len(views)))))
            limit = np.where(np.arange(wide) < m[lo:hi, j, None], 1.0, -np.inf)
            chunks.append((lo, hi, rows[lo:hi, :wide], sign[lo:hi, :wide, None],
                           buffer[: (hi - lo) * wide * d].reshape(hi - lo, wide, d),
                           hit[lo:hi, :, :wide].transpose(0, 2, 1), limit[:, :, None]))
            lo = hi
        plan.append((active, rows, sign, hit, chunks))

    rngs = [np.random.default_rng(p.seed) for p in ordered]
    block = max(1, min(epochs, budget // len(all_rows)))  # epochs of shuffles drawn at once
    norm = np.zeros((len(ordered), 1, len(views)))  # each fit's norm after its last update
    t = np.zeros((len(ordered), 1, 1))
    for epoch in range(epochs):
        if epoch % block == 0:
            shuffles = _epoch_shuffles(rngs, n, min(block, epochs - epoch))
        picks = shuffles[epoch % block]
        row_table.flat[dest] = all_rows[picks]
        sign_table.flat[dest] = all_labels[picks]
        for j, (active, rows, sign, hit, chunks) in enumerate(plan):
            cols = slice(j * batch_size, j * batch_size + m[0, j])
            rows[:, :-1] = row_table[:active, cols]
            sign[:, :-1] = sign_table[:active, cols]
            for lo, hi, own_rows, own_sign, batch, own_hit, limit in chunks:
                pool.take(own_rows, axis=0, out=batch, mode="clip")
                weights = np.zeros((hi - lo, d, len(views)))
                for fit in fits:
                    weights[:, fit.columns, fit.views[:, None]] = fit.beta[lo:hi]
                margin = np.matmul(batch, weights)
                margin *= own_sign
                near = np.abs(margin - 1.0) <= gamma * norm[lo:hi]
                for g, v in zip(*np.nonzero(near.any(axis=1))) if near.any() else ():
                    (fit, u), q = slots[v], lo + g
                    alone = m[q, j]
                    view = pool[rows[q, :alone, None], fit.columns[u]]
                    view *= sign[q, :alone, None]
                    margin[g, :alone, v] = view @ fit.beta[q, u]
                np.less(margin, limit, out=own_hit)
            t[:active] += size[:active, j: j + 1]
            eta = 1.0 / (lam[:active] * t[:active])
            for fit in fits:
                _step(fit, j, pool, rows, sign, hit, norm, eta, buffer)
    if epochs > 0:
        for fit in fits:
            fit.running_sum /= epochs * k[:, None, None].astype(float)
    result = [None] * len(problems)
    for q, i in enumerate(order):
        result[i] = [fit.running_sum[q, u] for fit, u in slots]
    return result


def _epoch_shuffles(rngs, n: np.ndarray, epochs: int, by_block: bool | None = None) -> np.ndarray:
    """The next ``epochs`` shuffles of every problem, ``(epochs, n.sum())``: row
    e holds, problem after problem, the problem's first place plus its e-th
    shuffle of ``arange(n[q])`` (what ``permutation(n[q])`` draws).

    One ``permuted`` call per problem shuffles the rows of its block as one
    ``shuffle`` call per row would, rows and generator state alike, unless
    numpy draws otherwise (``_block_shuffles_agree``).
    """
    if by_block is None:
        by_block = _block_shuffles_agree()
    shuffles = np.tile(np.arange(n.sum()), (epochs, 1))
    for rng, first, n_q in zip(rngs, (np.cumsum(n) - n).tolist(), n.tolist()):
        own = shuffles[:, first:first + n_q]
        if by_block:
            rng.permuted(own, axis=1, out=own)
        else:
            for row in own:
                rng.shuffle(row)
    return shuffles


@functools.cache
def _block_shuffles_agree() -> bool:
    """Whether ``_epoch_shuffles`` draws the same by blocks as by rows with this
    numpy, shuffles and generator end states; checked once per process."""
    n = np.array([1, 2, 7, 40])
    by_block, by_row = ([np.random.default_rng(m) for m in n.tolist()] for _ in range(2))
    return (np.array_equal(_epoch_shuffles(by_block, n, 3, True),
                           _epoch_shuffles(by_row, n, 3, False))
            and all(a.bit_generator.state == b.bit_generator.state
                    for a, b in zip(by_block, by_row)))


def _step(fit: _Fits, j: int, pool, rows, sign, hit, norm, eta, buffer) -> None:
    """Step ``j`` of the fits of ``fit`` whose problems are still stepping,
    given those problems' batch rows in the pool, their signs, which of them
    each view finds inside the margin and each problem's ``eta``."""
    active = len(hit)
    hits = hit[:, fit.views].reshape(active * len(fit.views), -1)
    live = fit.beta[:active]
    pull = fit.lam[:active] * live
    if hits.any():  # as a fit alone, a step without violators subtracts no sum
        violators = _violator_sums(pool, rows, sign, hits, fit.columns, buffer)
        pull -= violators.reshape(live.shape) / fit.size[:active, j]
    live -= eta * pull
    new_norm = np.sqrt(np.matmul(live[:, :, None, :], live[:, :, :, None])[:, :, 0])
    live *= fit.radius[:active] / np.maximum(new_norm, fit.radius[:active])
    fit.running_sum[:active] += live
    norm[:active, 0, fit.views] = new_norm[:, :, 0]


def _violator_sums(pool, rows, sign, hits, columns, buffer) -> np.ndarray:
    """Each fit's sum of its violating rows.  Fit i is view ``i % V`` of
    problem ``i // V``: ``hits[i]`` marks its violators among the problem's
    batch positions (a row of ``rows`` and ``sign``, the batches' pool rows
    and signs), and it reads the pool columns ``columns[i % V]``.

    The fits with violators are summed in blocks, most violators first, each
    as deep as its first fit's count.  A block ends at the first fit with at
    most half that count, unless the fits left would shed fewer than
    ``BLOCK_NUMBERS`` numbers of padding by starting the next one, and it
    holds no more numbers than ``buffer``, where it is made.
    """
    views, width = columns.shape
    fewer = -hits.sum(axis=1)
    by = np.argsort(fewer, kind="stable")
    fewer = fewer[by]
    sums = np.zeros((len(by), width))
    lo, end = 0, int(np.count_nonzero(fewer))
    while lo < end:
        most = -int(fewer[lo])
        hi = int(np.searchsorted(fewer, -(most // 2)))
        if hi < end and (end - hi) * (most + int(fewer[hi])) * width < BLOCK_NUMBERS:
            hi = end
        chosen = by[lo: min(hi, lo + max(1, len(buffer) // (most * width)))]
        sums[chosen] = _block_sum(pool, rows, sign, chosen // views, hits[chosen], most,
                                  columns[chosen % views], buffer)
        lo += len(chosen)
    return sums


def _block_sum(pool, rows, sign, problem, hits, most: int, columns, buffer) -> np.ndarray:
    """The violator sums of one block of fits, as in ``_violator_sums``.

    The violators' positions are packed first, in batch order, into a block
    ``most`` deep whose other rows are the batch's last slot, padding of sign
    zero, and the block, made in ``buffer``, is summed along that depth, a
    non-last axis.
    """
    at = np.where(hits, np.arange(hits.shape[1]), hits.shape[1])
    at.sort(axis=1)
    at, problem = at[:, :most], problem[:, None]
    cells = rows[problem, at][:, :, None] * pool.shape[1] + columns[:, None, :]
    block = pool.take(cells, out=buffer[: cells.size].reshape(cells.shape), mode="clip")
    block *= sign[problem, at][:, :, None]
    return np.add.reduce(block, axis=1)


def vote_counts(classes: np.ndarray, n_classes: int) -> np.ndarray:
    """Votes per class in each row of an ``(n, voters)`` array of class indices."""
    n = len(classes)
    cells = (np.arange(n)[:, None] * n_classes + classes).ravel()
    return np.bincount(cells, minlength=n * n_classes).reshape(n, n_classes)


@dataclass
class SvmEnsemble:
    """One-vs-one linear SVMs over an ordered class list, as one weight table.

    Row k of ``weights`` is pair k's weights, the bias weight last, and
    ``pairs[k]`` holds the class its sign -1 votes for, then the class of
    sign +1.  Every pair was trained with the one regularization ``c``.
    """

    weights: np.ndarray
    pairs: np.ndarray
    c: float
    classes: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Majority vote over all pairwise decisions; ties break low."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x_aug = augment(x if not single else x[None, :])
        # one product per pair, as the C file computes it: another summation
        # order could flip the sign of a margin near zero
        scores = np.empty((len(x_aug), len(self.weights)))
        for k, row in enumerate(self.weights):
            scores[:, k] = x_aug @ row
        voted = np.where(scores >= 0.0, self.pairs[:, 1], self.pairs[:, 0])
        pred = vote_counts(voted, self.n_classes).argmax(axis=1)
        return pred[0] if single else pred


def _pair_problems(matrix: int, y_idx: np.ndarray, n_classes: int,
                   seed) -> tuple[np.ndarray, list[SvmProblem]]:
    """The class pairs present in ``y_idx``, ``(P, 2)``, and an ``SvmProblem``
    on ``matrix`` for each."""
    present = set(np.unique(y_idx).tolist())
    pairs = [p for p in combinations(range(n_classes), 2) if p[0] in present and p[1] in present]
    if not pairs:
        raise ValueError(f"an SVM needs training rows of at least two classes, not {len(present)}")
    problems = []
    for (a, b), child in zip(pairs, spawn_seeds(seed, len(pairs))):
        rows = np.flatnonzero((y_idx == a) | (y_idx == b))
        problems.append(SvmProblem(matrix, rows, np.where(y_idx[rows] == b, 1.0, -1.0), child))
    return np.array(pairs), problems


def train_svm_ensembles(
    matrices: Iterable[np.ndarray],
    labels: list[tuple[np.ndarray, object]],
    classes: tuple[str, ...],
    c: float = 1.0,
    epochs: int = 50,
    views: list[np.ndarray] | None = None,
) -> list[list[SvmEnsemble]]:
    """``train_svm_ensemble`` of every view of several matrices, bit for bit.

    ``labels`` holds one ``(y_idx, seed)`` pair per matrix; ``matrices`` and
    ``views`` are as in ``train_svm_stack``.  Every class pair of every
    matrix is one problem of a single ``train_svm_stack`` run.  One list of
    ensembles, one per view, comes back per matrix.  Labels of fewer than
    two classes are a ValueError, raised before ``matrices`` is read.
    """
    runs = [_pair_problems(i, np.asarray(y_idx, dtype=int), len(classes), seed)
            for i, (y_idx, seed) in enumerate(labels)]
    fits = iter(train_svm_stack(matrices, [p for _, own in runs for p in own], views,
                                c=c, epochs=epochs))
    return [[SvmEnsemble(np.stack(rows), pairs, c, tuple(classes))
             for rows in zip(*[next(fits) for _ in own])] for pairs, own in runs]


def train_svm_ensemble(
    x: np.ndarray,
    y_idx: np.ndarray,
    classes: tuple[str, ...],
    c: float = 1.0,
    epochs: int = 50,
    seed=0,
) -> SvmEnsemble:
    """Train all pairwise SVMs; pairs missing a class in the data are skipped."""
    return train_svm_ensembles([x], [(y_idx, seed)], classes, c=c, epochs=epochs)[0][0]


# ---------------------------------------------------------------------------
# random forest


@dataclass
class RandomForest:
    """Every tree of a forest in one node table, the layout of the emitted C file.

    Tree ``t`` starts at node ``trees[t]`` and ends where the next tree
    starts.  A node splits on ``feature`` at ``threshold`` (rows at most the
    threshold go left) or is a leaf (feature -1); children index the whole
    table (-1 at leaves) and every node holds its majority class ``klass``.
    Each tree is in preorder (a node, then its left subtree, then its right),
    so every root-to-leaf walk visits rising node indices and ends, and
    pruning is a depth mask over the table (``_pruned``).
    """

    trees: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    klass: np.ndarray
    classes: tuple[str, ...]
    max_depth: int
    feature_subset: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @functools.cached_property
    def node_depth(self) -> np.ndarray:
        """Each node's depth in its tree, walking one level of every tree at a time."""
        depth = np.zeros(self.n_nodes, dtype=int)
        level, d = self.trees, 0
        while level.size:  # children follow their parents, so the levels run out
            depth[level] = d
            inner = level[self.feature[level] >= 0]
            level, d = np.concatenate([self.left[inner], self.right[inner]]), d + 1
        return depth

    @functools.cached_property
    def depth(self) -> int:
        """The deepest node's depth; 0 for an empty forest."""
        return int(self.node_depth.max(initial=0))

    def tree_classes(self, x: np.ndarray, steps: int) -> np.ndarray:
        """The class each tree votes for each row of ``x`` after ``steps`` steps, ``(n, trees)``.

        All trees step together, one level per step; a walk that has reached
        its leaf stays there.  Every node holds its majority class, so ``steps``
        d votes as the trees pruned at depth d and ``depth`` as the full trees.
        """
        rows = np.arange(len(x))[:, None]
        node = np.repeat(self.trees[None, :], len(x), axis=0)
        for _ in range(min(steps, self.depth)):
            feat = self.feature[node]
            go_left = x[rows, feat] <= self.threshold[node]
            node = np.where(feat < 0, node,
                            np.where(go_left, self.left[node], self.right[node]))
        return self.klass[node]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Majority vote over the trees, walked all at once; ties break low."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        pred = vote_counts(self.tree_classes(x, self.depth), self.n_classes).argmax(axis=1)
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
        return _pruned(self, n_trees, max_depth)


def _pruned(forest: RandomForest, n_trees: int, cap: int) -> RandomForest:
    """The first ``n_trees`` trees of ``forest`` cut at depth ``cap``; cut nodes
    become majority-class leaves.

    The nodes at most ``cap`` deep keep their order, each pruned tree's
    preorder, and are renumbered by a cumsum over the table; those at the cap
    lose their children.  So a tree pruned at depth d is a subtree of the one
    at d + 1.
    """
    end = forest.trees[n_trees] if n_trees < len(forest.trees) else forest.n_nodes
    depth = forest.node_depth[:end]
    keep = depth <= cap
    index = np.cumsum(keep) - 1
    inner = keep & (forest.feature[:end] >= 0) & (depth < cap)
    return RandomForest(
        trees=index[forest.trees[:n_trees]],
        feature=np.where(inner, forest.feature[:end], -1)[keep],
        threshold=np.where(inner, forest.threshold[:end], 0.0)[keep],
        left=np.where(inner, index[forest.left[:end]], -1)[keep],
        right=np.where(inner, index[forest.right[:end]], -1)[keep],
        klass=forest.klass[:end][keep],
        classes=forest.classes, max_depth=cap, feature_subset=forest.feature_subset,
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
    """Bootstrapped CART trees, deterministic per seed, node for node.

    Tree k draws its bootstrap and then its nodes' features from the k-th
    child of ``seed``.  ``x`` must be finite and ``y_idx`` hold class indices.
    """
    x = np.asarray(x, dtype=float)
    y_idx = np.asarray(y_idx, dtype=int)
    if len(x) == 0 or max_depth < 0:
        raise ValueError("training data must be nonempty and the depth cap at least 0")
    if feature_subset is None:
        feature_subset = int(np.ceil(np.sqrt(x.shape[1])))
    if feature_subset < 1:
        raise ValueError(f"feature_subset must be at least 1, got {feature_subset}")
    if not np.isfinite(x).all():
        raise ValueError("training features must be finite")
    if not np.all((y_idx >= 0) & (y_idx < len(classes))):
        raise ValueError(f"class indices must lie in 0..{len(classes) - 1}")
    rngs = [np.random.default_rng(child) for child in spawn_seeds(seed, n_trees)[:n_trees]]
    bootstraps = [rng.integers(0, len(x), size=len(x)) for rng in rngs]
    # imported here: only the commands that train a forest pay to load the grower
    from .cart import _grow_trees

    # grown to purity, then cut to the cap
    grown = RandomForest(*_grow_trees(x, y_idx, len(classes), feature_subset, rngs, bootstraps),
                         classes=tuple(classes), max_depth=max_depth,
                         feature_subset=feature_subset)
    return _pruned(grown, n_trees, max_depth)


# ---------------------------------------------------------------------------
# model files

FORMAT_VERSION = 1

#: a forest's node arrays in a model file: the table field, its key in each
#: saved tree and its dtype
_NODE_KEYS = (("feature", "feature", int), ("threshold", "threshold", float),
              ("left", "left", int), ("right", "right", int), ("klass", "class", int))


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
        ensemble = bundle.model
        doc["model"] = {
            "classes": list(ensemble.classes),
            "pairs": [
                {"neg": neg, "pos": pos, "c": ensemble.c, "weights": weights}
                for (neg, pos), weights in zip(ensemble.pairs.tolist(), ensemble.weights.tolist())
            ],
        }
    else:
        forest = bundle.model
        trees = []
        ends = np.append(forest.trees[1:], forest.n_nodes).tolist()
        for root, end in zip(forest.trees.tolist(), ends):
            # a saved tree's children index its own nodes
            nodes = {key: getattr(forest, field)[root:end] for field, key, _ in _NODE_KEYS}
            for key in ("left", "right"):
                nodes[key] = np.where(nodes[key] >= 0, nodes[key] - root, -1)
            trees.append({key: values.tolist() for key, values in nodes.items()})
        doc["model"] = {
            "classes": list(forest.classes),
            "max_depth": forest.max_depth,
            "feature_subset": forest.feature_subset,
            "trees": trees,
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, allow_nan=False)


def _svm_table(pairs: list, n_classes: int) -> tuple[np.ndarray, np.ndarray, float]:
    """A model file's SVM pairs as ``(weights, pairs, c)``; pairs that would read
    outside their inputs, or that no training run writes, are a ValueError."""
    if not pairs:
        raise ValueError("model file: an svm ensemble needs at least one pair")
    rows = [(_array(p, "weights", float), _entry(p, "c", (int, float)),
             (p.get("neg"), p.get("pos"))) for p in pairs]
    for k, (beta, _, pair) in enumerate(rows):
        if beta.shape != (N_FEATURES + 1,) or not np.isfinite(beta).all():
            raise ValueError(f"svm pair {k}: need {N_FEATURES + 1} finite weights "
                             f"({N_FEATURES} features and the bias)")
        # an exact type test: JSON true and false are ints to isinstance
        if not (all(type(i) is int and 0 <= i < n_classes for i in pair) and pair[0] != pair[1]):
            raise ValueError(f"svm pair {k}: class pair {pair} is not two "
                             f"of the {n_classes} classes")
    cs = {c for _, c, _ in rows}
    if len(cs) != 1:
        raise ValueError(f"model file: the svm pairs carry {len(cs)} values of c, not one")
    return (np.stack([beta for beta, _, _ in rows]), np.array([pair for _, _, pair in rows]),
            rows[0][1])


def _check_tree(t: int, feature, threshold, left, right, klass, n_classes: int) -> None:
    """Reject loaded tree ``t``, its children indexing its own nodes, if it
    would read outside its inputs or never end a walk."""
    n = feature.size
    if n == 0 or any(a.shape != (n,) for a in (feature, threshold, left, right, klass)):
        raise ValueError(f"tree {t}: node arrays must be nonempty and of equal length")
    inner = feature >= 0
    if not (np.all(feature[~inner] == -1) and np.all(feature < N_FEATURES)):
        raise ValueError(f"tree {t}: node features must be -1 at leaves and below "
                         f"{N_FEATURES} elsewhere")
    nodes = np.flatnonzero(inner)
    for child in (left[inner], right[inner]):
        if not np.all((child > nodes) & (child < n)):
            raise ValueError(f"tree {t}: a node's children must follow it in the tree")
    if not np.isfinite(threshold).all():
        raise ValueError(f"tree {t}: thresholds must be finite")
    if not np.all((klass >= 0) & (klass < n_classes)):
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
    n_classes = len(taxonomy.classes)
    if kind == "svm_ensemble":
        model: SvmEnsemble | RandomForest = SvmEnsemble(
            *_svm_table(_entry(spec, "pairs", list), n_classes), classes=taxonomy.classes)
    elif kind == "random_forest":
        trees = [[_array(t, key, dtype) for _, key, dtype in _NODE_KEYS]
                 for t in _entry(spec, "trees", list)]
        for t, nodes in enumerate(trees):
            _check_tree(t, *nodes, n_classes)
        # the trees one after another, children indexing the whole table
        sizes = np.array([len(nodes[0]) for nodes in trees], dtype=int)
        roots = np.cumsum(sizes) - sizes
        table = {field: np.concatenate([nodes[i] for nodes in trees] + [np.empty(0, dtype)])
                 for i, (field, _, dtype) in enumerate(_NODE_KEYS)}
        for field in ("left", "right"):
            table[field] = np.where(table[field] >= 0, table[field] + np.repeat(roots, sizes), -1)
        model = RandomForest(roots, **table, classes=taxonomy.classes,
                             max_depth=_entry(spec, "max_depth", int),
                             feature_subset=_entry(spec, "feature_subset", int))
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return ModelBundle(taxonomy=taxonomy, scaling=scaling, model=model)
