import functools
import json
import math
from itertools import combinations
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rftraffic import cart, learn
from rftraffic.cart import _best_splits, _dense_ranks, _grow_trees
from rftraffic.features import ScalingTransform, fit_scaling, link_block_slice
from rftraffic.learn import (
    ZERO_COLUMN,
    _pruned,
    ModelBundle,
    RandomForest,
    SvmEnsemble,
    SvmProblem,
    augment,
    load_model,
    save_model,
    spawn_seeds,
    train_random_forest,
    train_svm_ensemble,
    train_svm_ensembles,
    train_svm_stack,
)
from rftraffic.topology import BINARY, BODY_STYLE, Taxonomy, labels_for_taxonomy


def scaled_binary(binary_small):
    x, labels = binary_small
    scaling = fit_scaling(x)
    y = np.where(np.array(labels) == "truck-like", 1.0, -1.0)
    return scaling.apply(x), y, labels


# ---------------------------------------------------------------------------
# binary SVM


def train_svm_binary(x, y, c=1.0, epochs=50, batch_size=32, seed=0):
    """Fit one binary SVM on +/-1 labels, its weights with the bias last:
    ``train_svm_stack`` of one problem and one view."""
    problem = SvmProblem(0, np.arange(len(x)), y, seed)
    return train_svm_stack([x], [problem], c=c, epochs=epochs, batch_size=batch_size)[0][0]


def test_separable_two_points():
    x = np.array([[-1.0], [1.0]])
    y = np.array([-1.0, 1.0])
    beta = train_svm_binary(x, y, c=1.0, epochs=40, seed=0)
    pred = np.sign(augment(x) @ beta)
    assert np.array_equal(pred, y)


def test_single_class_rejected():
    with pytest.raises(ValueError):
        train_svm_binary(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))


def test_identical_points_mixed_labels_hit_hinge_floor():
    x = np.zeros((2, 1))
    y = np.array([-1.0, 1.0])
    c = 1.0
    beta = train_svm_binary(x, y, c=c, epochs=60, seed=1)
    # both hinges cannot be below 1 simultaneously, so the floor is 2 C
    assert svm_objective(beta, augment(x), y, c) == pytest.approx(2.0 * c, rel=0.05)
    pred = np.where(augment(x) @ beta >= 0, 1.0, -1.0)
    assert (pred == y).mean() == 0.5  # majority fraction of a 50/50 set


def test_objective_no_worse_than_zero_vector(binary_small):
    x, y, _ = scaled_binary(binary_small)
    beta = train_svm_binary(x, y, c=1.0, epochs=30, seed=3)
    assert svm_objective(beta, augment(x), y, 1.0) <= 1.0 * len(x)


def test_epoch_objectives_non_increasing_within_tolerance(binary_small):
    # a run's shuffles and running sum up to epoch e do not depend on the
    # epochs that follow, so the fit of e epochs is the average after epoch e
    x, y, _ = scaled_binary(binary_small)
    averages = np.stack([train_svm_binary(x, y, c=1.0, epochs=e, seed=3)
                         for e in range(1, 31)])
    objectives = svm_objective(averages, augment(x), y, 1.0)
    for earlier, later in zip(objectives, objectives[1:]):
        assert later <= earlier * 1.01


def test_training_is_deterministic(binary_small):
    x, y, _ = scaled_binary(binary_small)
    a = train_svm_binary(x, y, seed=11, epochs=10)
    b = train_svm_binary(x, y, seed=11, epochs=10)
    assert np.array_equal(a, b)


def test_synthetic_binary_heldout_accuracy(binary_small):
    # miniature split (50 held-out rows): allow one boundary miss; the full
    # 2000-trace corpus is asserted at 0.99 in the acceptance suite
    x, y, _ = scaled_binary(binary_small)
    rng = np.random.default_rng(0)
    order = rng.permutation(len(x))
    train, test = order[:150], order[150:]
    beta = train_svm_binary(x[train], y[train], epochs=50, seed=2)
    pred = np.where(augment(x[test]) @ beta >= 0, 1.0, -1.0)
    assert (pred == y[test]).mean() >= 0.98


def test_labels_other_than_plus_minus_one_rejected():
    x = np.array([[0.0], [1.0], [2.0]])
    for labels in ([-1.0, 2.0, 2.0], [-1.0, 1.0, 0.5], [-1.0, 1.0, np.nan]):
        with pytest.raises(ValueError, match="labels"):
            train_svm_binary(x, np.array(labels))


def svm_objective(beta, x_aug, y, c):
    """Regularized hinge objective on the full data set: a float for one weight
    vector, one value per row for an ``(E, d)`` stack of them."""
    betas = np.atleast_2d(beta)
    hinge = np.maximum(0.0, 1.0 - y[:, None] * (x_aug @ betas.T))
    values = 0.5 * np.einsum("ij,ij->i", betas, betas) + c * hinge.sum(axis=0)
    return float(values[0]) if np.ndim(beta) == 1 else values


def _reference_train_svm_binary(x, y, c=1.0, epochs=50, batch_size=32, seed=0):
    """The trainer as one fancy-index copy per mini-batch, with the label applied
    after the product; the oracle for ``train_svm_binary``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    x_aug = augment(x)
    lam = 1.0 / (c * n)
    radius = 1.0 / np.sqrt(lam)
    rng = np.random.default_rng(seed)
    beta = np.zeros(x_aug.shape[1])
    running_sum = np.zeros_like(beta)
    steps = 0
    t = 0
    for _ in range(epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, batch_size):
            chunk = perm[lo: lo + batch_size]
            t += len(chunk)
            eta = 1.0 / (lam * t)
            xb = x_aug[chunk]
            yb = y[chunk]
            margins = yb * (xb @ beta)
            viol = margins < 1.0
            grad = lam * beta
            if np.any(viol):
                grad = grad - (yb[viol, None] * xb[viol]).sum(axis=0) / len(chunk)
            beta = beta - eta * grad
            norm = np.sqrt(beta.dot(beta))
            if norm > radius:
                beta = beta * (radius / norm)
            running_sum += beta
            steps += 1
    return running_sum / steps


def _assert_matches_reference(x, y, **kwargs):
    beta = train_svm_binary(x, y, **kwargs)
    assert beta.tobytes() == _reference_train_svm_binary(x, y, **kwargs).tobytes()


@st.composite
def svm_problems(draw):
    n = draw(st.integers(2, 80))
    d = draw(st.integers(1, 12))
    x = draw(hnp.arrays(float, (n, d), elements=st.floats(-1e3, 1e3)))
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    pos, neg = draw(st.permutations(range(n)))[:2]
    y[pos], y[neg] = 1.0, -1.0  # both classes present
    return x, y


@settings(max_examples=200, deadline=None)
@given(
    problem=svm_problems(),
    batch_size=st.sampled_from([1, 7, 32]),
    epochs=st.integers(1, 15),
    c=st.sampled_from([0.01, 1.0, 10.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_svm_trainer_matches_per_batch_reference(problem, batch_size, epochs, c, seed):
    x, y = problem
    _assert_matches_reference(x, y, c=c, epochs=epochs, batch_size=batch_size, seed=seed)


def _single_fit_train_svm_binary(x, y, c=1.0, epochs=50, batch_size=32, seed=0):
    """The trainer on one 1-d weight vector, before fits were stacked: signed
    rows, one shuffled copy per epoch, violators selected by a boolean mask and
    a Python-side projection test; the oracle for every slice of a stack."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    signed = augment(x) * y[:, None]
    lam = 1.0 / (c * n)
    radius = 1.0 / np.sqrt(lam)
    rng = np.random.default_rng(seed)
    beta = np.zeros(signed.shape[1])
    running_sum = np.zeros_like(beta)
    steps = 0
    t = 0
    for _ in range(epochs):
        shuffled = signed[rng.permutation(n)]
        for lo in range(0, n, batch_size):
            batch = shuffled[lo: lo + batch_size]
            m = len(batch)
            t += m
            eta = 1.0 / (lam * t)
            viol = batch[batch @ beta < 1.0]
            if len(viol):
                beta = beta - eta * (lam * beta - np.add.reduce(viol, axis=0) / m)
            else:
                beta = beta - eta * (lam * beta)
            norm = math.sqrt(beta.dot(beta))
            if norm > radius:
                beta = beta * (radius / norm)
            running_sum += beta
            steps += 1
    return running_sum / steps


def _fold_like_stack(s, n, d, exact_fraction, zero_columns, seed):
    """A stack shaped like scaled folds: cells in [-1, 1] with exact 0.0 and
    +/-1.0 mixed in, some columns zero in every row, both labels present."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (s, n, d))
    exact = rng.random((s, n, d)) < exact_fraction
    x[exact] = rng.choice([0.0, 1.0, -1.0], size=int(exact.sum()))
    x[:, :, list(zero_columns)] = 0.0
    y = np.where(rng.random(n) < rng.uniform(0.1, 0.9), 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    return x, y


def _side_by_side(stack):
    """A stack of S ``(N, d)`` matrices as one ``(N, S * d)`` matrix, and the
    S views that read the matrices back out of it."""
    s, _, d = stack.shape
    return np.concatenate(stack, axis=1), [np.arange(i * d, (i + 1) * d) for i in range(s)]


@st.composite
def svm_stacks(draw):
    d = draw(st.integers(1, 40))
    return _fold_like_stack(
        s=draw(st.integers(1, 9)), n=draw(st.integers(2, 80)), d=d,
        exact_fraction=draw(st.sampled_from([0.0, 0.2, 0.6])),
        zero_columns=draw(st.lists(st.integers(0, d - 1), max_size=3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _view_alone(matrix, columns):
    """The ``(N, d)`` matrix one column view reads: ``ZERO_COLUMN`` gives zeros."""
    columns = np.asarray(columns)
    view = matrix[:, columns]
    view[:, columns == ZERO_COLUMN] = 0.0
    return view


def _assert_fits_match_single_fits(matrices, problems, views=None, **kwargs):
    """Every view of every problem, fitted in one run, equals
    ``_single_fit_train_svm_binary`` of that view alone, compared by ``float.hex``."""
    fits = train_svm_stack(matrices, problems, views, **kwargs)
    assert len(fits) == len(problems)
    for problem, got in zip(problems, fits):
        matrix = matrices[problem.matrix]
        every = [np.arange(matrix.shape[1])] if views is None else views
        assert len(got) == len(every)
        for columns, fit in zip(every, got):
            alone = _single_fit_train_svm_binary(_view_alone(matrix, columns)[problem.rows],
                                                 problem.labels, seed=problem.seed, **kwargs)
            assert [float.hex(v) for v in fit] == [float.hex(v) for v in alone]


def _assert_slices_match_single_fits(x, y, seed, **kwargs):
    matrix, views = _side_by_side(x)
    problem = SvmProblem(0, np.arange(len(y)), y, seed)
    _assert_fits_match_single_fits([matrix], [problem], views, **kwargs)


@settings(max_examples=120, deadline=None)
@given(
    problem=svm_stacks(),
    batch_size=st.sampled_from([1, 7, 32]),
    epochs=st.integers(1, 15),
    c=st.sampled_from([0.01, 1.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_stack_slice_equals_its_single_fit(problem, batch_size, epochs, c, seed):
    x, y = problem
    _assert_slices_match_single_fits(x, y, c=c, epochs=epochs, batch_size=batch_size, seed=seed)


@pytest.mark.parametrize("batch_size", [1, 7, 32])
@pytest.mark.parametrize("shape", [(9, 80, 40), (9, 2, 40), (1, 80, 1), (4, 80, 13)])
def test_stack_slices_at_the_corner_shapes(shape, batch_size):
    x, y = _fold_like_stack(*shape, exact_fraction=0.3, zero_columns=(0,), seed=sum(shape))
    _assert_slices_match_single_fits(x, y, c=1.0, epochs=15, batch_size=batch_size, seed=7)


@st.composite
def ragged_problems(draw):
    """1-12 problems on matrices of one width, each with its own rows, labels
    and seed, all read through 1-9 views of side-by-side column blocks; some
    share a matrix, as the class pairs of a fold do."""
    d, s = draw(st.integers(1, 30)), draw(st.integers(1, 9))
    matrices, problems = [], []
    for q in range(draw(st.integers(1, 12))):
        if not matrices or not draw(st.booleans()):  # else more rows of the last matrix
            stack, _ = _fold_like_stack(
                s=s, n=draw(st.integers(2, 80)), d=d,
                exact_fraction=draw(st.sampled_from([0.0, 0.2, 0.6])),
                zero_columns=draw(st.lists(st.integers(0, d - 1), max_size=3)),
                seed=draw(st.integers(0, 2**32 - 1)))
            matrix, views = _side_by_side(stack)
            matrices.append(matrix)
        big = len(matrices[-1])
        n = draw(st.integers(2, big))
        rows = np.sort(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                       .choice(big, size=n, replace=False))
        labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        labels[:2] = (1.0, -1.0)
        problems.append(SvmProblem(len(matrices) - 1, rows, labels,
                                   draw(st.integers(0, 2**32 - 1))))
    return matrices, problems, views


@settings(max_examples=120, deadline=None)
@given(
    run=ragged_problems(),
    batch_size=st.sampled_from([1, 7, 32]),
    epochs=st.integers(1, 12),
    c=st.sampled_from([0.01, 1.0, 10.0]),
)
def test_every_problem_of_a_ragged_run_equals_its_single_fits(run, batch_size, epochs, c):
    _assert_fits_match_single_fits(*run, c=c, epochs=epochs, batch_size=batch_size)


def test_forced_exact_margins_give_the_same_bits(monkeypatch):
    """With the rounding guard wide open, every margin of a nonzero ``beta`` is
    recomputed alone (a zero ``beta`` gives exact zero margins in any shape).
    The views have mixed widths: three read 13-column blocks side by side and
    two read a few columns, one of them blanking a pair with ``ZERO_COLUMN``."""
    matrices, problems = [], []
    for q, (lo, n) in enumerate([(0, 80), (0, 5), (0, 33), (0, 31), (3, 70)]):
        stack, labels = _fold_like_stack(3, n, 13, exact_fraction=0.3, zero_columns=(0, 4),
                                         seed=40 + q)
        matrix, views = _side_by_side(stack)
        matrices.append(matrix)
        problems.append(SvmProblem(q, np.arange(lo, n), labels[lo:], q))
    views += [np.array([ZERO_COLUMN, ZERO_COLUMN, 7, 2]), np.array([38, 0, 5])]
    normal = train_svm_stack(matrices, problems, views, c=10.0, epochs=6, batch_size=32)
    monkeypatch.setattr(learn, "MARGIN_GUARD", 1e200)
    forced = train_svm_stack(matrices, problems, views, c=10.0, epochs=6, batch_size=32)
    for got, want in zip(forced, normal):
        assert [f.tobytes() for f in got] == [f.tobytes() for f in want]
    _assert_fits_match_single_fits(matrices, problems, views, c=10.0, epochs=6, batch_size=32)


@st.composite
def column_problems(draw):
    """1-8 problems on matrices of one width D, all read through one list of
    views of mixed widths: some blank a leading pair with ``ZERO_COLUMN`` and
    one reads every column.  A problem may share its matrix with the one
    before it, as the class pairs of a fold do, and it may be separable with
    a wide margin, so that its later steps find no violator."""
    d = draw(st.integers(2, 24))
    views = [np.arange(d)]
    for _ in range(draw(st.integers(0, 5))):
        picked = np.array(draw(st.permutations(range(d)))[:draw(st.integers(1, d))])
        if len(picked) >= 2 and draw(st.booleans()):
            picked[:2] = ZERO_COLUMN
        views.append(picked)
    views = draw(st.permutations(views))
    matrices, problems = [], []
    for q in range(draw(st.integers(1, 8))):
        if not matrices or not draw(st.booleans()):  # else more rows of the last matrix
            stack, _ = _fold_like_stack(
                s=1, n=draw(st.integers(2, 70)), d=d,
                exact_fraction=draw(st.sampled_from([0.0, 0.2, 0.6])),
                zero_columns=draw(st.lists(st.integers(0, d - 1), max_size=2)),
                seed=draw(st.integers(0, 2**32 - 1)))
            matrices.append(stack[0])
        big = len(matrices[-1])
        n = draw(st.integers(2, big))
        rows = np.sort(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                       .choice(big, size=n, replace=False))
        labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        labels[:2] = (1.0, -1.0)
        if draw(st.booleans()):  # separable: the first column carries the label, far out
            matrices.append(matrices[-1].copy())
            matrices[-1][rows, 0] = 50.0 * labels
        problems.append(SvmProblem(len(matrices) - 1, rows, labels,
                                   draw(st.integers(0, 2**32 - 1))))
    return matrices, problems, views


@settings(max_examples=120, deadline=None)
@given(
    run=column_problems(),
    batch_size=st.sampled_from([1, 7, 32]),
    epochs=st.integers(1, 10),
    c=st.sampled_from([0.01, 1.0, 10.0]),
)
def test_every_column_view_equals_its_view_fitted_alone(run, batch_size, epochs, c):
    _assert_fits_match_single_fits(*run, c=c, epochs=epochs, batch_size=batch_size)


def _violator_case_problems():
    """Three problems on a 300-row matrix and a separable copy of it, read
    through views of widths 10, 3, 2 and 4: ``(matrices, problems, views)``."""
    rng = np.random.default_rng(5)
    matrix = rng.uniform(-1.0, 1.0, (300, 9))
    labels = np.where(rng.random(300) < 0.5, 1.0, -1.0)
    labels[:2] = (1.0, -1.0)
    separable = matrix.copy()
    separable[:, 0] = 50.0 * labels
    views = [np.arange(9), np.array([ZERO_COLUMN, ZERO_COLUMN, 3]), np.array([8, 1]),
             np.array([2, 5, 4, 6])]
    return [matrix, separable], [SvmProblem(0, np.arange(0, 300), labels, 1),
                                 SvmProblem(0, np.arange(0, 45), labels[:45], 2),
                                 SvmProblem(1, np.arange(10, 61), labels[10:61], 3)], views


def test_column_views_cover_every_violator_case(monkeypatch):
    """One run meets a first step where every row violates, steps where a
    fit finds no violator, padded batches and blocks shallower than the
    batch, and still equals every view fitted alone; ``batch_size`` 1 too."""
    steps, blocks = [], []
    step, block_sum = learn._step, learn._block_sum

    def recording_step(fit, j, pool, rows, sign, hit, *rest):
        steps.append(hit[:, fit.views].sum(axis=-1).ravel())
        return step(fit, j, pool, rows, sign, hit, *rest)

    def recording_block_sum(pool, rows, sign, problem, hits, most, *rest):
        blocks.append((most, hits.shape[1]))
        return block_sum(pool, rows, sign, problem, hits, most, *rest)

    monkeypatch.setattr(learn, "_step", recording_step)
    monkeypatch.setattr(learn, "_block_sum", recording_block_sum)
    matrices, problems, views = _violator_case_problems()
    _assert_fits_match_single_fits(matrices, problems, views, c=10.0, epochs=8, batch_size=32)
    assert np.all(steps[0] == 32)  # every row of the first batch violates
    assert any(not counts.all() for counts in steps)  # a fit without a violator
    assert any(most == width for most, width in blocks)
    assert any(0 < most < width for most, width in blocks)  # a packed, shallower block
    blocks.clear()
    _assert_fits_match_single_fits(matrices, problems[1:], views, c=1.0, epochs=3, batch_size=1)
    assert blocks


@pytest.mark.parametrize("block_numbers", [0, 10**9])
def test_column_fits_do_not_depend_on_the_violator_blocks(monkeypatch, block_numbers):
    """A step's fits summed in as many blocks as halving their violator
    counts gives, or all in one, come out the same bits."""
    matrices, problems, views = _violator_case_problems()
    expected = train_svm_stack(matrices, problems, views, c=10.0, epochs=8)
    blocks = []  # blocks per call of _violator_sums
    violator_sums, block_sum = learn._violator_sums, learn._block_sum

    def counting_violator_sums(*args):
        blocks.append(0)
        return violator_sums(*args)

    def counting_block_sum(*args):
        blocks[-1] += 1
        return block_sum(*args)

    monkeypatch.setattr(learn, "BLOCK_NUMBERS", block_numbers)
    monkeypatch.setattr(learn, "_violator_sums", counting_violator_sums)
    monkeypatch.setattr(learn, "_block_sum", counting_block_sum)
    got = train_svm_stack(matrices, problems, views, c=10.0, epochs=8)
    assert [[f.tobytes() for f in fits] for fits in got] == \
        [[f.tobytes() for f in fits] for fits in expected]
    assert max(blocks) > 1 if block_numbers == 0 else set(blocks) == {1}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=5), st.integers(1, 40),
       st.integers(0, 2**32 - 1))
def test_epoch_shuffles_equal_one_shuffle_per_epoch(n, epochs, seed):
    n = np.array(n)
    rngs, alone = ([np.random.default_rng([seed, q]) for q in range(len(n))] for _ in range(2))
    got = learn._epoch_shuffles(rngs, n, epochs)
    firsts = np.cumsum(n) - n
    for e in range(epochs):
        for rng, first, n_q in zip(alone, firsts, n):
            own = np.arange(n_q)
            rng.shuffle(own)
            assert np.array_equal(got[e, first:first + n_q], first + own)
    for rng, other in zip(rngs, alone):
        assert rng.bit_generator.state == other.bit_generator.state


@pytest.mark.parametrize("epochs", [1, 13])
def test_svm_fits_do_not_depend_on_the_shuffle_blocks(monkeypatch, epochs):
    """Fits that draw their shuffles by blocks of epochs, with a shorter last
    block at 13 epochs, equal those that draw one shuffle per epoch."""
    matrices, problems, views = _violator_case_problems()
    blocks = []
    epoch_shuffles = learn._epoch_shuffles
    monkeypatch.setattr(learn, "_epoch_shuffles",
                        lambda *args: blocks.append(args[2]) or epoch_shuffles(*args))
    expected = train_svm_stack(matrices, problems, views, c=10.0, epochs=epochs)
    assert blocks == ([1] if epochs == 1 else [8, 5])  # the budget holds 8 epochs' shuffles
    monkeypatch.setattr(learn, "_block_shuffles_agree", lambda: False)
    got = train_svm_stack(matrices, problems, views, c=10.0, epochs=epochs)
    assert [[f.tobytes() for f in fits] for fits in got] == \
        [[f.tobytes() for f in fits] for fits in expected]


def test_column_views_are_checked():
    problem = SvmProblem(0, np.arange(4), np.array([1.0, -1.0, 1.0, -1.0]))
    for views, message in (([np.array([0, 3])], "lie in"), ([np.array([1, 1])], "once"),
                           ([np.array([ZERO_COLUMN - 1, 0])], "lie in"),
                           ([np.array([], dtype=int)], "nonempty"), ([], "one view"),
                           ([np.array([0.0, 1.0])], "column indices")):
        with pytest.raises(ValueError, match=message):
            train_svm_stack([np.zeros((4, 3))], [problem], views)


def test_matrices_are_checked():
    """A problem names one of the matrices by an integer index, and the
    matrices are 2-d arrays of one width."""
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    for index in (1, -1, 0.0, np.int64(0), True, False, "0", None):
        with pytest.raises(ValueError, match="index of one of the 1 matrices"):
            train_svm_stack([np.zeros((4, 2))], [SvmProblem(index, np.arange(4), labels)])
    problem = SvmProblem(0, np.arange(4), labels)
    for matrices in ([np.zeros((4, 2)), np.zeros((4, 3))], [np.zeros((1, 4, 2))],
                     [np.zeros(4)], [], [np.zeros((4, 0))]):
        with pytest.raises(ValueError, match="matri"):
            train_svm_stack(matrices, [problem])
    with pytest.raises(ValueError, match="rows of the problem's matrix"):
        train_svm_stack([np.zeros((4, 2)), np.zeros((3, 2))],
                        [SvmProblem(1, np.arange(4), labels)])


def test_matrices_may_be_a_one_shot_generator():
    """Each matrix is read once, as the run's pool is made."""
    stack, labels = _fold_like_stack(3, 40, 5, exact_fraction=0.2, zero_columns=(), seed=9)
    problems = [SvmProblem(i, np.arange(i, 40), labels[i:], i) for i in (2, 0, 1)]
    read = []

    def matrices():
        for i, matrix in enumerate(stack):
            read.append(i)
            yield matrix

    got = train_svm_stack(matrices(), problems, c=10.0, epochs=4)
    assert read == [0, 1, 2]
    want = train_svm_stack(list(stack), problems, c=10.0, epochs=4)
    assert [[f.tobytes() for f in fits] for fits in got] == \
        [[f.tobytes() for f in fits] for fits in want]
    _assert_fits_match_single_fits(list(stack), problems, c=10.0, epochs=4)


def test_zero_epochs_give_zero_weights():
    stack, labels = _fold_like_stack(2, 9, 4, exact_fraction=0.0, zero_columns=(), seed=3)
    matrix, views = _side_by_side(stack)
    fits = train_svm_stack([matrix], [SvmProblem(0, np.arange(9), labels, 1)], views,
                           epochs=0)
    assert len(fits[0]) == 2
    for fit in fits[0]:
        assert fit.tobytes() == np.zeros(5).tobytes()
    alone = train_svm_binary(stack[0], labels, epochs=0)
    assert alone.tobytes() == np.zeros(5).tobytes()


def test_stacked_ensembles_equal_one_ensemble_per_slice(body_small):
    x, labels = body_small
    y = BODY_STYLE.encode(labels)
    scaled = fit_scaling(x).apply(x)
    views = [np.arange(scaled.shape[1])[link_block_slice(link)] for link in (1, 5, 9)]
    half = np.flatnonzero(y != 3)[::2]  # a second matrix that lacks class 3
    runs = [(scaled, y, 17), (scaled[half], y[half], 18)]
    stacked = train_svm_ensembles((matrix for matrix, _, _ in runs),
                                  [(y_idx, seed) for _, y_idx, seed in runs],
                                  BODY_STYLE.classes, epochs=4, views=views)
    assert [len(ensembles) for ensembles in stacked] == [3, 3]
    for ensembles, (matrix, y_idx, seed) in zip(stacked, runs):
        for columns, ensemble in zip(views, ensembles):
            alone = train_svm_ensemble(matrix[:, columns], y_idx, BODY_STYLE.classes, epochs=4,
                                       seed=seed)
            assert np.array_equal(ensemble.pairs, alone.pairs)
            assert ensemble.weights.tobytes() == alone.weights.tobytes()
    present = len(np.unique(y[half]))
    assert len(stacked[1][0].pairs) == present * (present - 1) // 2 < 21  # fewer pairs


def test_ensembles_need_two_classes_in_every_matrix():
    """A matrix whose labels hold one class would give an ensemble of no
    pairs, which votes class 0 for every row; it is refused before any
    matrix is read."""
    def unread():
        raise AssertionError("the matrices were read")
        yield

    two, one = (np.array([0, 2, 2, 0]), 1), (np.array([3, 3, 3, 3]), 2)
    with pytest.raises(ValueError, match="at least two classes, not 1"):
        train_svm_ensembles(unread(), [two, one], BODY_STYLE.classes)
    with pytest.raises(ValueError, match="at least two classes, not 1"):
        train_svm_ensemble(np.zeros((4, 3)), one[0], BODY_STYLE.classes)


def test_svm_trainer_matches_reference_on_every_corpus_pair(body_small):
    x, labels = body_small
    scaled = fit_scaling(x).apply(x)
    y_idx = BODY_STYLE.encode(labels)
    for k, (a, b) in enumerate(combinations(range(len(BODY_STYLE.classes)), 2)):
        mask = (y_idx == a) | (y_idx == b)
        y = np.where(y_idx[mask] == b, 1.0, -1.0)
        _assert_matches_reference(scaled[mask], y, c=10.0, epochs=12, seed=k)


# ---------------------------------------------------------------------------
# one-vs-one composition


def test_pair_count_formula(binary_small, body_small):
    x, labels = binary_small
    scaled = fit_scaling(x).apply(x)
    y = np.array([BINARY.index(l) for l in labels])
    ens = train_svm_ensemble(scaled, y, BINARY.classes, epochs=5, seed=1)
    assert ens.weights.shape == (1, 93) and ens.pairs.tolist() == [[0, 1]]  # Y=2 -> one

    x7, labels7 = body_small
    scaled7 = fit_scaling(x7).apply(x7)
    y7 = np.array([BODY_STYLE.index(l) for l in labels7])
    ens7 = train_svm_ensemble(scaled7, y7, BODY_STYLE.classes, epochs=3, seed=1)
    assert ens7.weights.shape == (21, 93)  # Y=7 -> Y(Y-1)/2 pairwise comparisons
    assert ens7.pairs.tolist() == [list(p) for p in combinations(range(7), 2)]


def test_ensemble_prediction_equals_independent_vote_tally(body_small):
    x, labels = body_small
    scaled = fit_scaling(x).apply(x)
    y = np.array([BODY_STYLE.index(l) for l in labels])
    ens = train_svm_ensemble(scaled, y, BODY_STYLE.classes, epochs=10, seed=4)
    sample = scaled[:40]
    pred = ens.predict(sample)
    # brute-force recount, one decision at a time
    for row, p in zip(sample, pred):
        tally = [0] * 7
        for beta, (neg, pos) in zip(ens.weights, ens.pairs):
            score = float(np.dot(row, beta[:-1]) + beta[-1])
            tally[pos if score >= 0 else neg] += 1
        best = max(range(7), key=lambda i: (tally[i], -i))
        assert p == best


def test_prediction_invariant_under_positive_rescaling(body_small):
    x, labels = body_small
    scaled = fit_scaling(x).apply(x)
    y = np.array([BODY_STYLE.index(l) for l in labels])
    ens = train_svm_ensemble(scaled, y, BODY_STYLE.classes, epochs=5, seed=4)
    boosted = SvmEnsemble(ens.weights * 37.5, ens.pairs, ens.c, ens.classes)
    assert np.array_equal(ens.predict(scaled), boosted.predict(scaled))


def _reference_svm_predict(ensemble, x):
    """The vote loop that tallies one pair at a time; the oracle for ``SvmEnsemble.predict``."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x_aug = augment(x if not single else x[None, :])
    votes = np.zeros((x_aug.shape[0], ensemble.n_classes), dtype=int)
    rows = np.arange(x_aug.shape[0])
    for beta, (neg, pos) in zip(ensemble.weights, ensemble.pairs):
        scores = x_aug @ beta
        signs = np.where(scores >= 0.0, 1, -1)
        votes[rows, np.where(signs > 0, pos, neg)] += 1
    pred = votes.argmax(axis=1)
    return pred[0] if single else pred


@st.composite
def ensembles_and_rows(draw):
    """Small ensembles, empty ones included, whose few weight values make exact zero
    scores and tied votes common; -0.0 weights too."""
    n_classes = draw(st.integers(2, 5))
    d = draw(st.integers(1, 4))
    values = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
    pairs = draw(st.lists(st.permutations(range(n_classes)).map(lambda p: (p[0], p[1])),
                          max_size=8))
    weights = np.array([draw(st.lists(values, min_size=d + 1, max_size=d + 1)) for _ in pairs])
    x = np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d), max_size=12)))
    ensemble = SvmEnsemble(weights.reshape(-1, d + 1), np.array(pairs, dtype=int).reshape(-1, 2),
                           1.0, tuple(f"c{i}" for i in range(n_classes)))
    return ensemble, x.reshape(-1, d)


@settings(max_examples=300, deadline=None)
@given(ensembles_and_rows())
def test_vote_counts_predict_matches_per_pair_tally(problem):
    ensemble, x = problem
    pred, expected = ensemble.predict(x), _reference_svm_predict(ensemble, x)
    assert pred.dtype == expected.dtype and np.array_equal(pred, expected)
    for row in x[:3]:
        single = ensemble.predict(row)
        assert np.ndim(single) == 0 and single == _reference_svm_predict(ensemble, row)


def test_vote_tie_breaks_to_lowest_class_index():
    # two artificial one-weight SVMs voting for classes 1 and 0 respectively
    ens = SvmEnsemble(
        weights=np.array([[0.0, 1.0],    # bias +1 -> votes class 1
                          [0.0, 1.0]]),  # bias +1 -> votes class 0
        pairs=np.array([[0, 1], [2, 0]]),
        c=1.0,
        classes=("a", "b", "c"),
    )
    assert ens.predict(np.zeros(1)) == 0


# ---------------------------------------------------------------------------
# random forest


class _Tree(NamedTuple):
    """One tree's node arrays, its children indexing its own nodes."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    klass: np.ndarray


def _trees_of(forest):
    """Each tree sliced out of the forest's node table, in tree order."""
    ends = forest.trees[1:].tolist() + [forest.n_nodes]
    trees = []
    for root, end in zip(forest.trees.tolist(), ends):
        left, right = (np.where(a[root:end] >= 0, a[root:end] - root, -1)
                       for a in (forest.left, forest.right))
        trees.append(_Tree(forest.feature[root:end], forest.threshold[root:end], left, right,
                           forest.klass[root:end]))
    return trees


def _bootstraps(seed, n_trees, n_rows):
    """The bootstrap rows each tree of a forest trained with ``seed`` draws."""
    return [np.random.default_rng(child).integers(0, n_rows, size=n_rows)
            for child in spawn_seeds(seed, n_trees)[:n_trees]]


def test_pure_data_gives_single_leaf_trees():
    x = np.random.default_rng(0).normal(size=(30, 4))
    y = np.zeros(30, dtype=int)
    forest = train_random_forest(x, y, ("only", "other"), n_trees=5, max_depth=4, seed=0)
    assert forest.trees.tolist() == list(range(5))
    assert np.all(forest.feature == -1)
    assert np.all(forest.predict(x) == 0)


def test_stump_splits_separable_line():
    x = np.concatenate([np.linspace(0, 1, 20), np.linspace(2, 3, 20)])[:, None]
    y = np.array([0] * 20 + [1] * 20)
    forest = train_random_forest(x, y, ("lo", "hi"), n_trees=1, max_depth=1,
                                 feature_subset=1, seed=0)
    assert forest.trees.tolist() == [0] and forest.n_nodes == 3
    assert forest.feature[0] == 0
    assert 1.0 < forest.threshold[0] < 2.0
    [boot] = _bootstraps(0, 1, len(x))
    assert (forest.predict(x[boot]) == y[boot]).mean() == 1.0


def _assert_same_tree(ta, tb):
    for key in ("feature", "threshold", "left", "right", "klass"):
        a, b = getattr(ta, key), getattr(tb, key)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key


def _assert_same_trees(a, b):
    """Two forests' node tables, array for array, in dtype and bytes."""
    for key in ("trees", "feature", "threshold", "left", "right", "klass"):
        x, y = getattr(a, key), getattr(b, key)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), key


def test_forest_determinism_node_for_node(binary_small):
    x, labels = binary_small
    y = np.array([BINARY.index(l) for l in labels])
    a = train_random_forest(x, y, BINARY.classes, n_trees=10, max_depth=6, seed=9)
    b = train_random_forest(x, y, BINARY.classes, n_trees=10, max_depth=6, seed=9)
    _assert_same_trees(a, b)


def _reference_gini_counts(counts, totals):
    frac = counts / totals[:, None]
    return 1.0 - (frac * frac).sum(axis=1)


def _reference_best_split(x, y, idx, n_classes, feature_ids):
    """The split search as one loop per feature; the oracle for ``_best_splits``."""
    n = len(idx)
    ys = y[idx]
    best = None  # (cost, feature, threshold)
    for f in feature_ids:
        col = x[idx, f]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        change = np.flatnonzero(cs[1:] > cs[:-1])
        if len(change) == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys[order]] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        left_counts = prefix[change]
        total = prefix[-1]
        right_counts = total - left_counts
        n_left = (change + 1).astype(float)
        n_right = n - n_left
        cost = (
            n_left * _reference_gini_counts(left_counts, n_left)
            + n_right * _reference_gini_counts(right_counts, n_right)
        ) / n
        j = int(np.argmin(cost))
        if best is None or cost[j] < best[0]:
            best = (float(cost[j]), int(f), float(0.5 * (cs[change[j]] + cs[change[j] + 1])))
    return best


def _reference_grow_tree(x, y, n_classes, n_feats, rng, bootstrap):
    """One tree grown alone, node by node in preorder, with ``_reference_best_split``;
    the oracle for ``_grow_trees``.  The nodes' depths come back with the tree's
    node arrays."""
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
            split = _reference_best_split(x, y, idx, n_classes, feats)
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
    tree = _Tree(np.array(feature, dtype=int), np.array(threshold, dtype=float),
                 np.array(left, dtype=int), np.array(right, dtype=int),
                 np.array(klass, dtype=int))
    return tree, np.array(depth, dtype=int)


def _assert_batch_matches_reference(x, y, n_classes, idxs, feature_ids):
    """``_best_splits`` of a batch gives each node the oracle's split, bit for bit."""
    # every other node lists each of its rows once, weighted by its copies
    held = [np.unique(idx, return_counts=True) if b % 2 else (idx, np.ones(len(idx), dtype=int))
            for b, idx in enumerate(idxs)]
    sizes = np.array([len(rows) for rows, _ in held])
    cost, feature, threshold = _best_splits(
        x, _dense_ranks(x), y, n_classes, np.concatenate([rows for rows, _ in held]),
        np.concatenate([weights for _, weights in held]), np.cumsum(sizes) - sizes,
        np.asarray(feature_ids))
    for b, idx in enumerate(idxs):
        expected = _reference_best_split(x, y, idx, n_classes, feature_ids[b])
        if expected is None:
            assert (feature[b], cost[b]) == (-1, np.inf)
        else:
            want_cost, want_feature, want_threshold = expected
            assert (float(cost[b]).hex(), int(feature[b]), float(threshold[b]).hex()) == \
                (want_cost.hex(), want_feature, want_threshold.hex())


# few values (signed zeros among them) make tied costs, tied keys and constant columns common
_FEW_VALUES = st.sampled_from([-3.0, -1.5, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])


@st.composite
def split_batches(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 6))
    n_classes = draw(st.integers(1, 9))
    values = st.one_of(_FEW_VALUES, st.floats(-100, 100, allow_nan=False))
    x = np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=float)
    if draw(st.booleans()):
        x[:, draw(st.integers(0, d - 1))] = draw(_FEW_VALUES)
    single = draw(st.booleans())  # one class in every node
    y = np.array(draw(st.lists(st.integers(0, 0 if single else n_classes - 1),
                               min_size=n, max_size=n)))
    n_feats = draw(st.integers(1, d))
    size = st.one_of(st.integers(1, 2), st.integers(1, 2 * n))
    idxs = [np.array(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
            for k in draw(st.lists(size, min_size=1, max_size=8))]
    feature_ids = np.array([draw(st.permutations(range(d)))[:n_feats] for _ in idxs])
    return x, y, n_classes, idxs, feature_ids


@settings(max_examples=300, deadline=None)
@given(split_batches())
def test_split_search_matches_per_feature_loop(batch):
    _assert_batch_matches_reference(*batch)


def test_split_search_on_corpus_matches_per_feature_loop(body_small):
    x, labels = body_small
    y = BODY_STYLE.encode(labels)
    rng = np.random.default_rng(4)
    idxs = [rng.integers(0, len(x), size=int(rng.integers(1, len(x)))) for _ in range(20)]
    feats = np.array([rng.choice(x.shape[1], size=10, replace=False) for _ in idxs])
    _assert_batch_matches_reference(x, y, len(BODY_STYLE.classes), idxs, feats)


@st.composite
def forest_problems(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    n_classes = draw(st.integers(2, 5))
    x = np.array(draw(st.lists(st.lists(_FEW_VALUES, min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    return (x, y, n_classes, draw(st.integers(1, d)), draw(st.integers(0, 6)),
            draw(st.integers(0, 2**32 - 1)))


def _grown(x, y, n_classes, n_feats, rngs, bootstraps):
    """``_grow_trees``' node table as a forest, its trees grown to purity."""
    return RandomForest(*_grow_trees(x, y, n_classes, n_feats, rngs, bootstraps),
                        classes=tuple(map(str, range(n_classes))), max_depth=len(x),
                        feature_subset=n_feats)


def _assert_lockstep_matches_trees_grown_alone(x, y, n_classes, n_feats, n_trees, seed):
    """``_grow_trees`` gives each tree the oracle grows alone, the forest's node
    depths are the oracle's, and every generator ends where the oracle leaves it."""
    def generators():
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_trees)]
        return rngs, [rng.integers(0, len(x), size=len(x)) for rng in rngs]

    rngs, bootstraps = generators()
    forest = _grown(x, y, n_classes, n_feats, rngs, bootstraps)
    alone, alone_bootstraps = generators()
    assert len(forest.trees) == n_trees
    depths = [np.empty(0, dtype=int)]
    for tree, rng, other, bootstrap in zip(_trees_of(forest), rngs, alone, alone_bootstraps):
        expected, expected_depth = _reference_grow_tree(x, y, n_classes, n_feats, other, bootstrap)
        _assert_same_tree(tree, expected)
        depths.append(expected_depth)
        assert rng.bit_generator.state == other.bit_generator.state
    assert np.array_equal(forest.node_depth, np.concatenate(depths))


@settings(max_examples=100, deadline=None)
@given(forest_problems())
def test_lockstep_growth_matches_trees_grown_alone(problem):
    _assert_lockstep_matches_trees_grown_alone(*problem)


def test_lockstep_growth_on_corpus_matches_trees_grown_alone(body_small):
    x, labels = body_small
    _assert_lockstep_matches_trees_grown_alone(x, BODY_STYLE.encode(labels),
                                               len(BODY_STYLE.classes), 10, 3, 21)


@pytest.mark.parametrize("budget", [1, 10**9])
def test_forest_does_not_depend_on_the_batch_budget(body_small, monkeypatch, budget):
    x, labels = body_small
    y = BODY_STYLE.encode(labels)
    expected = train_random_forest(x, y, BODY_STYLE.classes, n_trees=8, max_depth=20, seed=3)
    monkeypatch.setattr(cart, "SPLIT_BATCH_ROWS", budget)
    _assert_same_trees(train_random_forest(x, y, BODY_STYLE.classes, n_trees=8,
                                           max_depth=20, seed=3), expected)


class _Counting:
    """A generator that counts its ``choice`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def choice(self, *args, **kwargs):
        self.calls += 1
        return self.rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _assert_subsets_match_choice(rngs, alone, d, k, nodes, bounds):
    """``_Subsets`` hands tree t ``nodes[t]`` subsets in lockstep, each the one
    per-node ``choice`` draws, and leaves every generator where those calls do."""
    subsets = cart._Subsets(rngs, d, k, bounds, bulk=True)
    for step in range(max(nodes, default=0)):
        trees = np.array([t for t, n_t in enumerate(nodes) if n_t > step])
        got = subsets.take(trees)
        want = np.array([alone[t].choice(d, k, replace=False) for t in trees])
        assert got.dtype == np.int64 and np.array_equal(got, want)
    subsets.close()
    for rng, other in zip(rngs, alone):
        assert rng.bit_generator.state == other.bit_generator.state


@st.composite
def subset_draws(draw):
    d = draw(st.integers(1, 100))
    k = draw(st.integers(1, d))
    n_trees = draw(st.integers(1, 4))
    trees = st.lists(st.integers(0, 8), min_size=n_trees, max_size=n_trees)
    nodes, extra = draw(trees), draw(trees)
    buffered = draw(st.lists(st.booleans(), min_size=n_trees, max_size=n_trees))
    return d, k, nodes, np.array(nodes) + extra, buffered, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(subset_draws())
def test_bulk_subsets_equal_per_node_choice(case):
    d, k, nodes, bounds, buffered, seed = case

    def generators():
        rngs = [np.random.default_rng([seed, t]) for t in range(len(nodes))]
        for rng, half in zip(rngs, buffered):
            rng.integers(0, 9, size=int(half))  # one 32-bit number buffers the other half
        return rngs

    _assert_subsets_match_choice(generators(), generators(), d, k, nodes, bounds)


def _rejecting_generators():
    """Three generators; the second holds the buffered number 0, which the first
    draw of ``choice(92, 10)``, in [0, 82], rejects (2^32 mod 83 is not 0)."""
    rngs = [np.random.default_rng(s) for s in range(3)]
    state = rngs[1].bit_generator.state
    rngs[1].bit_generator.state = {**state, "has_uint32": 1, "uinteger": 0}
    return rngs


def test_a_rejected_draw_sends_only_its_tree_to_choice():
    counted = [_Counting(rng) for rng in _rejecting_generators()]
    _assert_subsets_match_choice(counted, _rejecting_generators(), 92, 10, [6, 6, 6], [6, 6, 6])
    assert [rng.calls for rng in counted] == [0, 6, 0]


def test_a_rejection_inside_a_queue_takes_choice_from_the_exact_state(monkeypatch):
    real = cart._choices

    def rejecting(numbers, d, k):
        subsets, rejects = real(numbers, d, k)
        return subsets, rejects | (np.arange(len(rejects)) == 2)  # each round's third row

    monkeypatch.setattr(cart, "_choices", rejecting)
    generators = lambda: [np.random.default_rng(s) for s in (5, 6)]  # noqa: E731
    counted = [_Counting(rng) for rng in generators()]
    # bounds of 16 make rounds of 4 (the square root); the first round's third
    # row is the first tree's third node, the second round's the other tree's seventh
    _assert_subsets_match_choice(counted, generators(), 92, 10, [7, 7], [16, 16])
    assert [rng.calls for rng in counted] == [5, 1]


def test_a_broken_canary_sends_every_draw_to_choice(monkeypatch, body_small):
    monkeypatch.setattr(cart, "_choices", lambda numbers, d, k: (
        np.zeros((numbers.shape[1], k), dtype=np.int64), np.zeros(numbers.shape[1], dtype=bool)))
    monkeypatch.setattr(cart, "_bulk_draws_agree",
                        functools.cache(cart._bulk_draws_agree.__wrapped__))
    assert not cart._bulk_draws_agree()
    x, labels = body_small
    _assert_lockstep_matches_trees_grown_alone(x, BODY_STYLE.encode(labels),
                                               len(BODY_STYLE.classes), 10, 3, 21)


@pytest.mark.parametrize("pure", [False, True])
def test_a_forest_steps_as_often_as_its_largest_tree_has_impure_nodes(body_small, monkeypatch,
                                                                      pure):
    x, labels = body_small
    y = np.zeros(len(x), dtype=int) if pure else BODY_STYLE.encode(labels)
    n_classes = len(BODY_STYLE.classes)
    cart._bulk_draws_agree()  # its own draws are not the forest's steps
    steps = []
    take = cart._Subsets.take
    monkeypatch.setattr(cart._Subsets, "take",
                        lambda self, trees: steps.append(len(trees)) or take(self, trees))
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(12)]
    bootstraps = [rng.integers(0, len(x), size=len(x)) for rng in rngs]
    counted = [_Counting(np.random.default_rng(s)) for s in np.random.SeedSequence(5).spawn(12)]
    for rng, bootstrap in zip(counted, bootstraps):
        rng.integers(0, len(x), size=len(x))
        _reference_grow_tree(x, y, n_classes, 10, rng, bootstrap)
    _grow_trees(x, y, n_classes, 10, rngs, bootstraps)
    assert len(steps) == max(rng.calls for rng in counted)
    assert steps == sorted(steps, reverse=True)  # a tree steps until it is done


@pytest.mark.parametrize("x_cell, y_cell, feature_subset", [
    (0.0, 1, 0), (0.0, 1, -1), (np.nan, 1, None), (np.inf, 1, None), (0.0, 2, None),
    (0.0, -1, None),
])
def test_forest_rejects_bad_inputs(x_cell, y_cell, feature_subset):
    x = np.random.default_rng(0).normal(size=(12, 3))
    y = np.arange(12) % 2
    x[5, 1], y[3] = x_cell, y_cell
    with pytest.raises(ValueError):
        train_random_forest(x, y, BINARY.classes, n_trees=2, feature_subset=feature_subset)


def _reference_prune_tree(tree, max_depth):
    """Truncation of one tree as a node-by-node rebuild in preorder; the oracle
    for ``_pruned``."""
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
    return _Tree(np.array(feature, dtype=int), np.array(threshold, dtype=float),
                 np.array(left, dtype=int), np.array(right, dtype=int),
                 np.array(klass, dtype=int))


def _assert_prunes_match_rebuild(forest, n_trees):
    """At every cap, and again below it, the depth mask over the table gives
    each of the first ``n_trees`` trees the rebuild's tree."""
    trees = _trees_of(forest)
    for tree in trees:  # grown in preorder
        _assert_same_tree(tree, _reference_prune_tree(tree, forest.depth + 1))
    for cap in range(forest.depth + 2):
        pruned = _pruned(forest, n_trees, cap)
        assert pruned.max_depth == cap and len(pruned.trees) == n_trees
        cut = _trees_of(pruned)
        for tree, got in zip(trees, cut):
            _assert_same_tree(got, _reference_prune_tree(tree, cap))
        for lower in range(cap + 1):  # a pruned forest prunes again, as truncated does
            for tree, got in zip(cut, _trees_of(_pruned(pruned, n_trees, lower))):
                _assert_same_tree(got, _reference_prune_tree(tree, lower))


@st.composite
def grown_forests(draw):
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 6))
    n_classes = draw(st.integers(2, 5))
    x = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    rngs = [np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            for _ in range(draw(st.integers(1, 3)))]
    forest = _grown(x, y, n_classes, draw(st.integers(1, d)), rngs,
                    [rng.integers(0, n, size=n) for rng in rngs])
    return forest, draw(st.integers(0, len(rngs)))


@settings(max_examples=150, deadline=None)
@given(grown_forests())
def test_depth_mask_prune_matches_node_by_node_rebuild(grown):
    _assert_prunes_match_rebuild(*grown)


def test_depth_mask_prune_on_corpus_trees(body_small):
    x, labels = body_small
    y = BODY_STYLE.encode(labels)
    rngs = [np.random.default_rng(seed) for seed in range(4)]
    forest = _grown(x, y, len(BODY_STYLE.classes), 10, rngs,
                    [rng.integers(0, len(x), size=len(x)) for rng in rngs])
    assert np.maximum.reduceat(forest.node_depth, forest.trees).min() >= 5
    _assert_prunes_match_rebuild(forest, 4)


def test_truncated_forest_equals_trained_forest(body_small):
    x, labels = body_small
    y = BODY_STYLE.encode(labels)
    seed = np.random.SeedSequence([11, 12]).spawn(1)[0]
    largest = train_random_forest(x, y, BODY_STYLE.classes, n_trees=12, max_depth=14, seed=seed)
    for n_trees, depth in [(12, 14), (5, 14), (12, 3), (1, 1), (7, 0), (0, 6)]:
        cut = largest.truncated(n_trees, depth)
        trained = train_random_forest(x, y, BODY_STYLE.classes, n_trees=n_trees,
                                      max_depth=depth, seed=seed)
        _assert_same_trees(cut, trained)
        assert (cut.max_depth, cut.feature_subset) == (trained.max_depth, trained.feature_subset)
    with pytest.raises(ValueError):
        largest.truncated(13, 14)
    with pytest.raises(ValueError):
        largest.truncated(5, 15)
    with pytest.raises(ValueError):  # a depth mask below 0 would keep no node
        largest.truncated(5, -1)
    with pytest.raises(ValueError):
        train_random_forest(x, y, BODY_STYLE.classes, n_trees=2, max_depth=-1, seed=seed)


def test_bootstrap_unique_fraction(binary_small):
    x, labels = binary_small
    y = np.array([BINARY.index(l) for l in labels])
    forest = train_random_forest(x, y, BINARY.classes, n_trees=100, max_depth=2, seed=5)
    assert len(forest.trees) == 100
    fractions = [len(np.unique(boot)) / len(x) for boot in _bootstraps(5, 100, len(x))]
    assert abs(np.mean(fractions) - (1 - 1 / np.e)) < 0.02


def reference_forest_vote(forest, row):
    """Walk one row down each tree in turn and count the leaves' votes; ties go low."""
    votes = [0] * forest.n_classes
    for tree in _trees_of(forest):
        node = 0
        while tree.feature[node] >= 0:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        votes[tree.klass[node]] += 1
    return votes.index(max(votes))


def test_forest_vote_recount(binary_small):
    x, labels = binary_small
    y = np.array([BINARY.index(l) for l in labels])
    forest = train_random_forest(x, y, BINARY.classes, n_trees=15, max_depth=8, seed=2)
    pred = forest.predict(x[:25])
    assert pred.tolist() == [reference_forest_vote(forest, row) for row in x[:25]]


@pytest.fixture(scope="module")
def oracle_corpus(tmp_path_factory, body_small):
    x, labels = body_small
    return fit_scaling(x).apply(x), BODY_STYLE.encode(labels), tmp_path_factory.mktemp("oracle")


@settings(max_examples=40, deadline=None)
@given(
    n_train=st.integers(8, 80),
    n_trees=st.integers(1, 6),
    max_depth=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
    cut=st.tuples(st.integers(0, 6), st.integers(0, 9)),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=20),
    noise=st.floats(0.0, 3.0),
    snap=st.booleans(),
)
def test_packed_walk_matches_per_tree_vote(oracle_corpus, n_train, n_trees, max_depth, seed,
                                           cut, picks, noise, snap):
    x, y, tmp = oracle_corpus
    forest = train_random_forest(x[:n_train], y[:n_train], BODY_STYLE.classes,
                                 n_trees=n_trees, max_depth=max_depth, seed=seed)
    rng = np.random.default_rng(seed)
    rows = x[[p % len(x) for p in picks]] + rng.normal(0.0, noise, (len(picks), x.shape[1]))
    inner = np.flatnonzero(forest.feature >= 0)
    if snap and inner.size:  # land rows exactly on split thresholds, where ``<=`` decides
        for row in rows:
            i = inner[rng.integers(len(inner))]
            row[forest.feature[i]] = forest.threshold[i]
    path = str(tmp / "forest.json")
    save_model(path, ModelBundle(BODY_STYLE, ScalingTransform(lo=np.zeros(92), hi=np.ones(92)),
                                 forest))
    models = [forest, forest.truncated(min(cut[0], n_trees), min(cut[1], max_depth)),
              load_model(path).model]
    for model in models:
        expected = [reference_forest_vote(model, row) for row in rows]
        assert model.predict(rows).tolist() == expected
        single = model.predict(rows[0])
        assert np.ndim(single) == 0 and single == expected[0]
        empty = model.predict(np.empty((0, x.shape[1])))
        assert empty.shape == (0,) and empty.dtype.kind == "i"


def test_depth_cap_respected(binary_small):
    x, labels = binary_small
    y = np.array([BINARY.index(l) for l in labels])
    forest = train_random_forest(x, y, BINARY.classes, n_trees=5, max_depth=3, seed=2)
    for tree in _trees_of(forest):
        depth = np.zeros(len(tree.feature), dtype=int)
        for node in range(len(tree.feature)):
            if tree.feature[node] >= 0:
                depth[tree.left[node]] = depth[node] + 1
                depth[tree.right[node]] = depth[node] + 1
        assert depth.max() <= 3


def test_forest_parity_with_svm_on_binary(binary_small):
    x, labels = binary_small
    scaled = fit_scaling(x).apply(x)
    y = np.array([BINARY.index(l) for l in labels])
    rng = np.random.default_rng(1)
    order = rng.permutation(len(x))
    train, test = order[:150], order[150:]
    ens = train_svm_ensemble(scaled[train], y[train], BINARY.classes, epochs=40, seed=0)
    forest = train_random_forest(scaled[train], y[train], BINARY.classes,
                                 n_trees=100, max_depth=10, seed=0)
    acc_svm = (ens.predict(scaled[test]) == y[test]).mean()
    acc_rf = (forest.predict(scaled[test]) == y[test]).mean()
    assert abs(acc_svm - acc_rf) <= 0.01 + 1e-9


# ---------------------------------------------------------------------------
# model files


def test_model_json_roundtrip_svm(tmp_path, binary_small):
    x, labels = binary_small
    scaling = fit_scaling(x)
    y = np.array([BINARY.index(l) for l in labels])
    ens = train_svm_ensemble(scaling.apply(x), y, BINARY.classes, epochs=5, seed=0)
    path = tmp_path / "svm.json"
    save_model(str(path), ModelBundle(BINARY, scaling, ens))
    back = load_model(str(path))
    assert back.kind == "svm_ensemble"
    assert back.taxonomy == BINARY
    assert np.array_equal(back.scaling.lo, scaling.lo)
    assert np.array_equal(back.scaling.hi, scaling.hi)
    assert back.model.weights.tobytes() == ens.weights.tobytes()  # bit-exact weights
    assert np.array_equal(back.model.pairs, ens.pairs) and back.model.c == ens.c
    rows = x[:5]
    assert np.array_equal(back.model.predict(back.scaling.apply(rows)),
                          ens.predict(scaling.apply(rows)))


def test_model_json_roundtrip_forest(tmp_path, binary_small):
    x, labels = binary_small
    scaling = fit_scaling(x)
    y = np.array([BINARY.index(l) for l in labels])
    forest = train_random_forest(scaling.apply(x), y, BINARY.classes,
                                 n_trees=7, max_depth=5, seed=3)
    path = tmp_path / "rf.json"
    save_model(str(path), ModelBundle(BINARY, scaling, forest))
    back = load_model(str(path))
    assert back.kind == "random_forest"
    _assert_same_trees(back.model, forest)
    assert np.array_equal(back.model.predict(scaling.apply(x)), forest.predict(scaling.apply(x)))


@pytest.fixture(scope="module")
def saved_and_loaded(tmp_path_factory, body_small):
    """An SVM ensemble and a forest, each beside its reloaded model file."""
    x, labels = body_small
    scaling = fit_scaling(x)
    y = BODY_STYLE.encode(labels)
    models = [train_svm_ensemble(scaling.apply(x), y, BODY_STYLE.classes, epochs=5, seed=1),
              train_random_forest(scaling.apply(x), y, BODY_STYLE.classes,
                                  n_trees=9, max_depth=6, seed=1)]
    pairs = []
    for i, model in enumerate(models):
        bundle = ModelBundle(BODY_STYLE, scaling, model)
        path = str(tmp_path_factory.mktemp("models") / f"model{i}.json")
        save_model(path, bundle)
        pairs.append((bundle, load_model(path)))
    return pairs, x


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
    noise=hnp.arrays(float, 92, elements=st.floats(-50.0, 50.0)),
    far=st.booleans(),
)
def test_reloaded_models_predict_identically(saved_and_loaded, picks, noise, far):
    pairs, x = saved_and_loaded
    rows = x[[p % len(x) for p in picks]] + noise * (10.0 if far else 0.01)
    for bundle, back in pairs:
        assert back.kind == bundle.kind
        for batch in (rows, rows[0]):
            assert np.array_equal(back.model.predict(back.scaling.apply(batch)),
                                  bundle.model.predict(bundle.scaling.apply(batch)))


def test_model_json_refuses_non_finite_values(tmp_path):
    scaling = ScalingTransform(lo=np.array([np.nan, 0.0]), hi=np.array([1.0, 1.0]))
    ens = SvmEnsemble(np.zeros((1, 3)), np.array([[0, 1]]), 1.0, BINARY.classes)
    with pytest.raises(ValueError):
        save_model(str(tmp_path / "nan.json"), ModelBundle(BINARY, scaling, ens))


def test_model_json_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ValueError, match="version"):
        load_model(str(path))


@pytest.fixture(scope="module")
def model_docs(tmp_path_factory, binary_small):
    """The JSON documents of a saved 3-tree forest and a saved SVM ensemble."""
    x, labels = binary_small
    scaling = fit_scaling(x)
    y = BINARY.encode(labels)
    models = {
        "forest": train_random_forest(scaling.apply(x), y, BINARY.classes,
                                      n_trees=3, max_depth=4, seed=1),
        "svm": train_svm_ensemble(scaling.apply(x), y, BINARY.classes, epochs=3, seed=1),
    }
    docs = {}
    for name, model in models.items():
        path = tmp_path_factory.mktemp("docs") / f"{name}.json"
        save_model(str(path), ModelBundle(BINARY, scaling, model))
        docs[name] = json.loads(path.read_text())
    return docs


def _loop_to_self(tree):
    tree["left"][0] = 0


def _child_past_end(tree):
    tree["left"][0] = 999


def _child_before_parent(tree):
    i = max(i for i, f in enumerate(tree["feature"]) if f >= 0)
    tree["right"][i] = i - 1 if i else 0


def _feature_past_width(tree):
    tree["feature"][0] = 5000


def _leaf_feature_below_minus_one(tree):
    tree["feature"][tree["feature"].index(-1)] = -2


def _short_threshold(tree):
    tree["threshold"].pop()


def _class_past_taxonomy(tree):
    tree["class"][-1] = 2


def _negative_class(tree):
    tree["class"][0] = -1


def _empty_tree(tree):
    for key in ("feature", "threshold", "left", "right", "class"):
        tree[key] = []


def _nan_threshold(tree):
    tree["threshold"][0] = float("nan")


@pytest.mark.parametrize("corrupt", [
    _loop_to_self, _child_past_end, _child_before_parent, _feature_past_width,
    _leaf_feature_below_minus_one, _short_threshold, _class_past_taxonomy, _negative_class,
    _empty_tree, _nan_threshold,
])
def test_load_model_rejects_malformed_forests(tmp_path, model_docs, corrupt):
    doc = json.loads(json.dumps(model_docs["forest"]))
    corrupt(doc["model"]["trees"][1])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="tree 1"):
        load_model(str(path))


@pytest.mark.parametrize("field,value,match", [
    ("weights", [0.5] * 92, "93 finite weights"),
    ("weights", [0.5] * 94, "93 finite weights"),
    ("weights", [float("nan")] * 93, "93 finite weights"),
    ("neg", 2, "class pair"),
    ("pos", -1, "class pair"),
    ("pos", 0, "class pair"),
    ("neg", 0.0, "class pair"),
    ("neg", False, "class pair"),  # JSON false and true are no class indices
    ("pos", True, "class pair"),
])
def test_load_model_rejects_malformed_svms(tmp_path, model_docs, field, value, match):
    doc = json.loads(json.dumps(model_docs["svm"]))
    doc["model"]["pairs"][0][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        load_model(str(path))


def test_load_model_stacks_pairs_of_one_c_only(tmp_path, model_docs):
    doc = json.loads(json.dumps(model_docs["svm"]))
    first = doc["model"]["pairs"][0]
    doc["model"]["pairs"].append(dict(first, neg=first["pos"], pos=first["neg"]))
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    ensemble = load_model(str(path)).model
    assert ensemble.pairs.tolist() == [[0, 1], [1, 0]] and ensemble.c == first["c"]
    assert np.array_equal(ensemble.weights, [first["weights"]] * 2)
    doc["model"]["pairs"][1]["c"] = first["c"] / 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="2 values of c"):
        load_model(str(path))


@pytest.mark.parametrize("kind", ["forest", "svm"])
def test_load_model_rejects_mismatched_scaling_and_classes(tmp_path, model_docs, kind):
    path = tmp_path / "bad.json"
    doc = json.loads(json.dumps(model_docs[kind]))
    doc["scaling"]["hi"].pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="scaling"):
        load_model(str(path))
    doc = json.loads(json.dumps(model_docs[kind]))
    doc["model"]["classes"].reverse()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="taxonomy"):
        load_model(str(path))
    path.write_text(json.dumps(model_docs[kind]))
    assert load_model(str(path)).kind == {"forest": "random_forest", "svm": "svm_ensemble"}[kind]


def _top_level_list(doc):
    return [doc]


def _pairs_a_number(doc):
    doc["model"]["pairs"] = 5
    return doc


def _taxonomy_null(doc):
    doc["taxonomy"] = None
    return doc


def _c_a_string(doc):
    doc["model"]["pairs"][0]["c"] = "10"
    return doc


def _max_depth_a_float(doc):
    doc["model"]["max_depth"] = 4.5
    return doc


def _feature_past_int64(doc):
    doc["model"]["trees"][0]["feature"][0] = 10**30
    return doc


@pytest.mark.parametrize("kind,corrupt", [
    ("svm", _top_level_list), ("svm", _pairs_a_number), ("forest", _taxonomy_null),
    ("svm", _c_a_string), ("forest", _max_depth_a_float), ("forest", _feature_past_int64),
])
def test_load_model_rejects_wrong_types(tmp_path, model_docs, kind, corrupt):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(corrupt(json.loads(json.dumps(model_docs[kind])))))
    with pytest.raises(ValueError, match="model file"):
        load_model(str(path))


@pytest.mark.parametrize("key", ["feature", "left", "right", "class"])
@pytest.mark.parametrize("retype", [lambda v: v + 0.7, float, lambda v: True, lambda v: False],
                         ids=["fraction", "integral_float", "true", "false"])
def test_load_model_takes_only_integers_in_node_arrays(tmp_path, model_docs, key, retype):
    doc = json.loads(json.dumps(model_docs["forest"]))
    nodes = doc["model"]["trees"][0][key]
    nodes[0] = retype(nodes[0])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"'{key}' must hold only integers"):
        load_model(str(path))


@pytest.mark.parametrize("kind,where,key", [
    ("forest", ("model", "trees", 0), "threshold"),
    ("svm", ("model", "pairs", 0), "weights"),
    ("svm", ("scaling",), "lo"),
])
@pytest.mark.parametrize("value", [True, None, "0.5", [0.5]])
def test_load_model_takes_only_numbers_in_float_arrays(tmp_path, model_docs, kind, where, key,
                                                       value):
    doc = json.loads(json.dumps(model_docs[kind]))
    node = doc
    for step in where:
        node = node[step]
    node[key][0] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"'{key}' must hold only numbers"):
        load_model(str(path))


@pytest.mark.parametrize("kind", ["forest", "svm"])
@pytest.mark.parametrize("key,value", [("lo", float("nan")), ("hi", float("nan")),
                                       ("lo", float("-inf")), ("hi", float("inf")),
                                       ("lo", 1e300)])
def test_load_model_rejects_bad_scaling_bounds(tmp_path, model_docs, kind, key, value):
    """Bounds save_model could not have written: not finite, or lo above hi."""
    doc = json.loads(json.dumps(model_docs[kind]))
    doc["scaling"][key][3] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="scaling lo and hi must be finite"):
        load_model(str(path))


def test_load_model_keeps_constant_scaling_columns(tmp_path, model_docs):
    """fit_scaling writes lo == hi for a constant column; such a file loads."""
    doc = json.loads(json.dumps(model_docs["svm"]))
    doc["scaling"]["hi"][3] = doc["scaling"]["lo"][3]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    bundle = load_model(str(path))
    assert bundle.scaling.lo[3] == bundle.scaling.hi[3]
    assert np.all(bundle.scaling.apply(np.ones((2, 92)))[:, 3] == 0.0)


def test_rows_outside_a_problem_never_reach_its_fits():
    """Padding slots of a short batch must not read a row the problem lacks."""
    stack, labels = _fold_like_stack(1, 200, 6, exact_fraction=0.2, zero_columns=(), seed=8)
    matrix = stack[0]
    matrix[0] = np.inf  # row 0 belongs to no problem
    labels[1:3] = (1.0, -1.0)
    labels[50:52] = (1.0, -1.0)
    # sizes 60, 45, 20 and 12 share chunks, so the shorter batches are padded
    problems = [SvmProblem(0, np.arange(lo, lo + n), labels[lo: lo + n], seed)
                for lo, n, seed in ((1, 60, 5), (1, 45, 6), (1, 20, 7), (50, 12, 8))]
    _assert_fits_match_single_fits([matrix], problems, c=1.0, epochs=3, batch_size=32)
