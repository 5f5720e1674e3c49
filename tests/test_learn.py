import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rftraffic import learn
from rftraffic.features import ScalingTransform, fit_scaling, link_block_slice
from rftraffic.learn import (
    _best_split,
    _grow_tree,
    _node_depths,
    _prune_tree,
    LinearSvm,
    ModelBundle,
    RandomForest,
    SvmEnsemble,
    SvmProblem,
    augment,
    load_model,
    save_model,
    train_random_forest,
    train_svm_binary,
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


def test_separable_two_points():
    x = np.array([[-1.0], [1.0]])
    y = np.array([-1.0, 1.0])
    svm = train_svm_binary(x, y, c=1.0, epochs=40, seed=0)
    pred = np.sign(augment(x) @ svm.beta)
    assert np.array_equal(pred, y)


def test_single_class_rejected():
    with pytest.raises(ValueError):
        train_svm_binary(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))


def test_identical_points_mixed_labels_hit_hinge_floor():
    x = np.zeros((2, 1))
    y = np.array([-1.0, 1.0])
    c = 1.0
    svm = train_svm_binary(x, y, c=c, epochs=60, seed=1)
    # both hinges cannot be below 1 simultaneously, so the floor is 2 C
    assert svm_objective(svm.beta, augment(x), y, c) == pytest.approx(2.0 * c, rel=0.05)
    pred = np.where(augment(x) @ svm.beta >= 0, 1.0, -1.0)
    assert (pred == y).mean() == 0.5  # majority fraction of a 50/50 set


def test_objective_no_worse_than_zero_vector(binary_small):
    x, y, _ = scaled_binary(binary_small)
    svm = train_svm_binary(x, y, c=1.0, epochs=30, seed=3)
    assert svm_objective(svm.beta, augment(x), y, 1.0) <= 1.0 * len(x)


def test_epoch_objectives_non_increasing_within_tolerance(binary_small):
    # a run's shuffles and running sum up to epoch e do not depend on the
    # epochs that follow, so the fit of e epochs is the average after epoch e
    x, y, _ = scaled_binary(binary_small)
    averages = np.stack([train_svm_binary(x, y, c=1.0, epochs=e, seed=3).beta
                         for e in range(1, 31)])
    objectives = svm_objective(averages, augment(x), y, 1.0)
    for earlier, later in zip(objectives, objectives[1:]):
        assert later <= earlier * 1.01


def test_training_is_deterministic(binary_small):
    x, y, _ = scaled_binary(binary_small)
    a = train_svm_binary(x, y, seed=11, epochs=10)
    b = train_svm_binary(x, y, seed=11, epochs=10)
    assert np.array_equal(a.beta, b.beta)


def test_synthetic_binary_heldout_accuracy(binary_small):
    # miniature split (50 held-out rows): allow one boundary miss; the full
    # 2000-trace corpus is asserted at 0.99 in the acceptance suite
    x, y, _ = scaled_binary(binary_small)
    rng = np.random.default_rng(0)
    order = rng.permutation(len(x))
    train, test = order[:150], order[150:]
    svm = train_svm_binary(x[train], y[train], epochs=50, seed=2)
    pred = np.where(augment(x[test]) @ svm.beta >= 0, 1.0, -1.0)
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
    svm = train_svm_binary(x, y, **kwargs)
    beta = _reference_train_svm_binary(x, y, **kwargs)
    assert svm.beta.tobytes() == beta.tobytes()


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


@st.composite
def svm_stacks(draw):
    d = draw(st.integers(1, 40))
    return _fold_like_stack(
        s=draw(st.integers(1, 9)), n=draw(st.integers(2, 80)), d=d,
        exact_fraction=draw(st.sampled_from([0.0, 0.2, 0.6])),
        zero_columns=draw(st.lists(st.integers(0, d - 1), max_size=3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _assert_fits_match_single_fits(problems, **kwargs):
    """Every slice of every problem equals ``_single_fit_train_svm_binary`` of it alone."""
    fits = train_svm_stack(problems, **kwargs)
    assert len(fits) == len(problems)
    for problem, slices in zip(problems, fits):
        assert len(slices) == len(problem.views)
        for views, fit in zip(problem.views, slices):
            beta = _single_fit_train_svm_binary(
                views[problem.rows], problem.labels, seed=problem.seed, **kwargs)
            assert fit.beta.tobytes() == beta.tobytes()
            assert fit.class_pair == problem.class_pair


def _assert_slices_match_single_fits(x, y, seed, **kwargs):
    problem = SvmProblem(x, np.arange(len(y)), y, seed, (2, 5))
    _assert_fits_match_single_fits([problem], **kwargs)


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
    """1-12 problems of one width, each with its own rows, labels, seed and
    slice count; some share a view stack, as the class pairs of a fold do."""
    d = draw(st.integers(1, 30))
    problems = []
    for q in range(draw(st.integers(1, 12))):
        if problems and draw(st.booleans()):  # another row subset of an earlier stack
            views = problems[-1].views
        else:
            views, _ = _fold_like_stack(
                s=draw(st.integers(1, 9)), n=draw(st.integers(2, 80)), d=d,
                exact_fraction=draw(st.sampled_from([0.0, 0.2, 0.6])),
                zero_columns=draw(st.lists(st.integers(0, d - 1), max_size=3)),
                seed=draw(st.integers(0, 2**32 - 1)))
        big = views.shape[1]
        n = draw(st.integers(2, big))
        rows = np.sort(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                       .choice(big, size=n, replace=False))
        labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        labels[:2] = (1.0, -1.0)
        problems.append(SvmProblem(views, rows, labels, draw(st.integers(0, 2**32 - 1)),
                                   (q % 3, q % 3 + 1)))
    return problems


@settings(max_examples=120, deadline=None)
@given(
    problems=ragged_problems(),
    batch_size=st.sampled_from([1, 7, 32]),
    epochs=st.integers(1, 12),
    c=st.sampled_from([0.01, 1.0, 10.0]),
)
def test_every_problem_of_a_ragged_run_equals_its_single_fits(problems, batch_size, epochs, c):
    _assert_fits_match_single_fits(problems, c=c, epochs=epochs, batch_size=batch_size)


def test_forced_exact_margins_give_the_same_bits(monkeypatch):
    """With the rounding guard wide open, every margin of a nonzero ``beta`` is
    recomputed alone (a zero ``beta`` gives exact zero margins in any shape)."""
    problems = []
    for q, (s, n) in enumerate([(3, 80), (1, 5), (2, 33), (3, 31)]):
        views, labels = _fold_like_stack(s, n, 13, exact_fraction=0.3, zero_columns=(0,),
                                         seed=40 + q)
        problems.append(SvmProblem(views, np.arange(n), labels, q, (0, 1)))
    normal = train_svm_stack(problems, c=10.0, epochs=6, batch_size=32)
    monkeypatch.setattr(learn, "MARGIN_GUARD", 1e200)
    forced = train_svm_stack(problems, c=10.0, epochs=6, batch_size=32)
    for got, want in zip(forced, normal):
        assert [f.beta.tobytes() for f in got] == [f.beta.tobytes() for f in want]
    _assert_fits_match_single_fits(problems, c=10.0, epochs=6, batch_size=32)


def test_zero_epochs_give_zero_weights():
    views, labels = _fold_like_stack(2, 9, 4, exact_fraction=0.0, zero_columns=(), seed=3)
    fits = train_svm_stack([SvmProblem(views, np.arange(9), labels, 1, (0, 1))], epochs=0)
    for fit in fits[0]:
        assert fit.beta.tobytes() == np.zeros(5).tobytes()
    alone = train_svm_binary(views[0], labels, epochs=0)
    assert alone.beta.tobytes() == np.zeros(5).tobytes()


def test_stack_rejects_non_stacks():
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="stack"):
        train_svm_stack([SvmProblem(np.zeros((4, 2)), np.arange(4), labels)])
    with pytest.raises(ValueError, match="stack"):
        train_svm_binary(np.zeros((1, 4, 2)), labels)
    with pytest.raises(ValueError, match="width"):
        train_svm_stack([SvmProblem(np.zeros((1, 4, 2)), np.arange(4), labels),
                         SvmProblem(np.zeros((1, 4, 3)), np.arange(4), labels)])


def test_stacked_ensembles_equal_one_ensemble_per_slice(body_small):
    x, labels = body_small
    y = BODY_STYLE.encode(labels)
    scaled = fit_scaling(x).apply(x)
    views = np.stack([scaled[:, link_block_slice(link)] for link in (1, 5, 9)])
    half = np.flatnonzero(y != 3)[::2]  # a second stack that lacks class 3
    stacked = train_svm_ensembles([(views, y, 17), (views[:2, half], y[half], 18)],
                                  BODY_STYLE.classes, epochs=4)
    assert [len(ensembles) for ensembles in stacked] == [3, 2]
    for ensembles, (stack, y_idx, seed) in zip(stacked, [(views, y, 17),
                                                        (views[:2, half], y[half], 18)]):
        for view, ensemble in zip(stack, ensembles):
            alone = train_svm_ensemble(view, y_idx, BODY_STYLE.classes, epochs=4, seed=seed)
            assert [s.class_pair for s in ensemble.svms] == [s.class_pair for s in alone.svms]
            for got, want in zip(ensemble.svms, alone.svms):
                assert got.beta.tobytes() == want.beta.tobytes()
    present = len(np.unique(y[half]))
    assert len(stacked[1][0].svms) == present * (present - 1) // 2 < 21  # fewer pairs


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
    assert len(ens.svms) == 1  # Y=2 -> a single comparison

    x7, labels7 = body_small
    scaled7 = fit_scaling(x7).apply(x7)
    y7 = np.array([BODY_STYLE.index(l) for l in labels7])
    ens7 = train_svm_ensemble(scaled7, y7, BODY_STYLE.classes, epochs=3, seed=1)
    assert len(ens7.svms) == 21  # Y=7 -> Y(Y-1)/2 pairwise comparisons


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
        for svm in ens.svms:
            score = float(np.dot(row, svm.beta[:-1]) + svm.beta[-1])
            tally[svm.class_pair[1] if score >= 0 else svm.class_pair[0]] += 1
        best = max(range(7), key=lambda i: (tally[i], -i))
        assert p == best


def test_prediction_invariant_under_positive_rescaling(body_small):
    x, labels = body_small
    scaled = fit_scaling(x).apply(x)
    y = np.array([BODY_STYLE.index(l) for l in labels])
    ens = train_svm_ensemble(scaled, y, BODY_STYLE.classes, epochs=5, seed=4)
    boosted = SvmEnsemble(
        svms=[LinearSvm(svm.beta * 37.5, svm.c, svm.class_pair) for svm in ens.svms],
        classes=ens.classes,
    )
    assert np.array_equal(ens.predict(scaled), boosted.predict(scaled))


def _reference_svm_predict(ensemble, x):
    """The vote loop that tallies one pair at a time; the oracle for ``SvmEnsemble.predict``."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x_aug = augment(x if not single else x[None, :])
    votes = np.zeros((x_aug.shape[0], ensemble.n_classes), dtype=int)
    rows = np.arange(x_aug.shape[0])
    for svm in ensemble.svms:
        scores = x_aug @ svm.beta
        signs = np.where(scores >= 0.0, 1, -1)
        neg, pos = svm.class_pair
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
    svms = [LinearSvm(np.array(draw(st.lists(values, min_size=d + 1, max_size=d + 1))), 1.0,
                      pair) for pair in pairs]
    x = np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d), max_size=12)))
    return SvmEnsemble(svms, tuple(f"c{i}" for i in range(n_classes))), x.reshape(-1, d)


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
        svms=[
            LinearSvm(np.array([0.0, 1.0]), 1.0, (0, 1)),   # bias +1 -> votes class 1
            LinearSvm(np.array([0.0, 1.0]), 1.0, (2, 0)),   # bias +1 -> votes class 0
        ],
        classes=("a", "b", "c"),
    )
    assert ens.predict(np.zeros(1)) == 0


# ---------------------------------------------------------------------------
# random forest


def test_pure_data_gives_single_leaf_trees():
    x = np.random.default_rng(0).normal(size=(30, 4))
    y = np.zeros(30, dtype=int)
    forest = train_random_forest(x, y, ("only", "other"), n_trees=5, max_depth=4, seed=0)
    for tree in forest.trees:
        assert tree.n_nodes == 1
        assert tree.feature[0] == -1
    assert np.all(forest.predict(x) == 0)


def test_stump_splits_separable_line():
    x = np.concatenate([np.linspace(0, 1, 20), np.linspace(2, 3, 20)])[:, None]
    y = np.array([0] * 20 + [1] * 20)
    forest = train_random_forest(x, y, ("lo", "hi"), n_trees=1, max_depth=1,
                                 feature_subset=1, seed=0)
    tree = forest.trees[0]
    assert tree.n_nodes == 3
    assert tree.feature[0] == 0
    assert 1.0 < tree.threshold[0] < 2.0
    boot = tree.bootstrap_indices
    assert (forest.predict(x[boot]) == y[boot]).mean() == 1.0


def _assert_same_tree(ta, tb):
    for key in ("feature", "threshold", "left", "right", "klass"):
        a, b = getattr(ta, key), getattr(tb, key)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key


def _assert_same_trees(a, b):
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        _assert_same_tree(ta, tb)


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
    """The split search as one loop per feature; the oracle for ``_best_split``."""
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


@st.composite
def split_problems(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 8))
    n_classes = draw(st.integers(2, 7))
    # few distinct integer values make tied costs and constant columns common
    values = st.integers(-3, 3)
    x = np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    feature_ids = np.array(draw(st.permutations(range(d)))[: draw(st.integers(1, d))])
    return x, y, idx, n_classes, feature_ids


@settings(max_examples=300, deadline=None)
@given(split_problems())
def test_split_search_matches_per_feature_loop(problem):
    assert _best_split(*problem) == _reference_best_split(*problem)


def test_split_search_on_corpus_matches_per_feature_loop(body_small):
    x, labels = body_small
    y = BODY_STYLE.encode(labels)
    rng = np.random.default_rng(4)
    for _ in range(20):
        idx = rng.integers(0, len(x), size=int(rng.integers(2, len(x))))
        feats = rng.choice(x.shape[1], size=10, replace=False)
        expected = _reference_best_split(x, y, idx, len(BODY_STYLE.classes), feats)
        assert _best_split(x, y, idx, len(BODY_STYLE.classes), feats) == expected


def _reference_prune_tree(tree, max_depth):
    """Truncation as a node-by-node rebuild in preorder; the oracle for ``_prune_tree``."""
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
    return learn.CartTree(
        feature=np.array(feature, dtype=int),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=int),
        right=np.array(right, dtype=int),
        klass=np.array(klass, dtype=int),
    )


def _tree_depths(tree):
    return _node_depths(tree.feature, tree.left, tree.right, np.zeros(1, dtype=int))


def _assert_prunes_match_rebuild(tree, depth):
    """At every cap, and again below it, the depth mask gives the rebuild's tree."""
    assert np.array_equal(depth, _tree_depths(tree))
    _assert_same_tree(tree, _reference_prune_tree(tree, depth.max() + 1))  # in preorder
    for cap in range(depth.max() + 2):
        pruned = _prune_tree(tree, depth, cap)
        _assert_same_tree(pruned, _reference_prune_tree(tree, cap))
        assert pruned.bootstrap_indices is tree.bootstrap_indices
        for lower in range(cap + 1):  # a pruned tree prunes again, as truncated does
            _assert_same_tree(_prune_tree(pruned, _tree_depths(pruned), lower),
                              _reference_prune_tree(pruned, lower))


@st.composite
def grown_trees(draw):
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 6))
    n_classes = draw(st.integers(2, 5))
    x = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                               min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _grow_tree(x, y, n_classes, draw(st.integers(1, d)), rng, rng.integers(0, n, size=n))


@settings(max_examples=150, deadline=None)
@given(grown_trees())
def test_depth_mask_prune_matches_node_by_node_rebuild(grown):
    _assert_prunes_match_rebuild(*grown)


def test_depth_mask_prune_on_corpus_trees(body_small):
    x, labels = body_small
    y = BODY_STYLE.encode(labels)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        tree, depth = _grow_tree(x, y, len(BODY_STYLE.classes), 10, rng,
                                 rng.integers(0, len(x), size=len(x)))
        assert depth.max() >= 5
        _assert_prunes_match_rebuild(tree, depth)


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
    fractions = [len(np.unique(t.bootstrap_indices)) / len(x) for t in forest.trees]
    assert abs(np.mean(fractions) - (1 - 1 / np.e)) < 0.02


def reference_forest_vote(forest, row):
    """Walk one row down each tree in turn and count the leaves' votes; ties go low."""
    votes = [0] * forest.n_classes
    for tree in forest.trees:
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
    inner = [(t, i) for t, tree in enumerate(forest.trees) for i in np.flatnonzero(tree.feature >= 0)]
    if snap and inner:  # land rows exactly on split thresholds, where ``<=`` decides
        for row in rows:
            t, i = inner[rng.integers(len(inner))]
            row[forest.trees[t].feature[i]] = forest.trees[t].threshold[i]
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
    for tree in forest.trees:
        depth = np.zeros(tree.n_nodes, dtype=int)
        for node in range(tree.n_nodes):
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
    for orig, re in zip(ens.svms, back.model.svms):
        assert np.array_equal(orig.beta, re.beta)  # bit-exact weights
        assert orig.class_pair == re.class_pair
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
    for orig, re in zip(forest.trees, back.model.trees):
        assert np.array_equal(orig.threshold, re.threshold)
        assert np.array_equal(orig.feature, re.feature)
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
    ens = SvmEnsemble(svms=[LinearSvm(np.zeros(3), 1.0, (0, 1))], classes=BINARY.classes)
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
    views, labels = _fold_like_stack(1, 200, 6, exact_fraction=0.2, zero_columns=(), seed=8)
    views[:, 0] = np.inf  # row 0 belongs to no problem
    labels[1:3] = (1.0, -1.0)
    labels[50:52] = (1.0, -1.0)
    # sizes 60, 45, 20 and 12 share chunks, so the shorter batches are padded
    problems = [SvmProblem(views, np.arange(lo, lo + n), labels[lo: lo + n], seed, (0, 1))
                for lo, n, seed in ((1, 60, 5), (1, 45, 6), (1, 20, 7), (50, 12, 8))]
    _assert_fits_match_single_fits(problems, c=1.0, epochs=3, batch_size=32)
