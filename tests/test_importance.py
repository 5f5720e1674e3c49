import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rftraffic.features import feature_groups, fit_scaling
from rftraffic.importance import (
    ImportanceMatrix,
    _group_slices,
    importance_binary,
    importance_multiclass,
    write_importance_csv,
)
from rftraffic.learn import LinearSvm, SvmEnsemble, train_svm_ensemble
from rftraffic.topology import BINARY, BODY_STYLE


def svm_with_weights(weights, class_pair=(0, 1), bias=0.5):
    return LinearSvm(np.array(list(weights) + [bias]), 1.0, class_pair)


def test_small_group_example():
    # weights (+2, +1, -1): positive mass 3 of total 4
    svm = svm_with_weights([2.0, 1.0, -1.0])
    matrix = importance_binary(svm, group_of_feature=["g", "g", "g"])
    assert matrix.values[0, 1] == pytest.approx(3 / 4)
    assert matrix.values[0, 0] == pytest.approx(1 / 4)


def test_one_sided_group():
    svm = svm_with_weights([0.5, 2.0, 0.25])
    matrix = importance_binary(svm, group_of_feature=["g", "g", "g"])
    assert matrix.values[0, 1] == 1.0
    assert matrix.values[0, 0] == 0.0


def test_bias_excluded_from_groups():
    # huge bias must not disturb the group sums
    a = importance_binary(svm_with_weights([1.0, -1.0], bias=0.0),
                          group_of_feature=["g", "g"])
    b = importance_binary(svm_with_weights([1.0, -1.0], bias=1e9),
                          group_of_feature=["g", "g"])
    assert np.array_equal(a.values, b.values)


def test_degenerate_group_uniform_and_flagged():
    svm = svm_with_weights([0.0, 0.0, 1.0])
    matrix = importance_binary(svm, group_of_feature=["dead", "dead", "live"])
    assert matrix.degenerate == ("dead",)
    assert np.array_equal(matrix.row("dead"), [0.5, 0.5])
    assert np.array_equal(matrix.row("live"), [0.0, 1.0])


def test_group_tag_length_mismatch():
    with pytest.raises(ValueError):
        importance_binary(svm_with_weights([1.0, 2.0]), group_of_feature=["g"])


def _reference_importance_binary(svm, group_of_feature, class_names=None):
    """The pairwise importance written out for one SVM; the oracle for ``importance_binary``."""
    weights = svm.beta[:-1]
    classes = class_names if class_names is not None else ("-1", "+1")
    slices = _group_slices(group_of_feature)
    values = np.zeros((len(slices), 2))
    degenerate = []
    for row, (name, idx) in enumerate(slices):
        w = weights[idx]
        absw = np.abs(w)
        z = absw.sum()
        if z == 0.0:
            values[row] = 0.5
            degenerate.append(name)
            continue
        values[row, 0] = absw[w < 0].sum() / z
        values[row, 1] = absw[w > 0].sum() / z
    return ImportanceMatrix(groups=tuple(name for name, _ in slices), classes=tuple(classes),
                            values=values, degenerate=tuple(degenerate))


@st.composite
def tagged_svms(draw):
    """One SVM with group tags; exact zeros, -0.0 and all-zero groups are common."""
    d = draw(st.integers(1, 12))
    weight = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                       st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True))
    beta = np.array(draw(st.lists(weight, min_size=d + 1, max_size=d + 1)))
    tags = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=d, max_size=d))
    pair = draw(st.sampled_from([(0, 1), (1, 0), (3, 5)]))  # the binary form reads no pair
    names = draw(st.sampled_from([None, ("car", "truck")]))
    return LinearSvm(beta, 1.0, pair), tags, names


@settings(max_examples=300, deadline=None)
@given(tagged_svms())
def test_binary_importance_matches_its_written_out_form(problem):
    svm, tags, names = problem
    got = importance_binary(svm, group_of_feature=tags, class_names=names)
    expected = _reference_importance_binary(svm, tags, names)
    assert (got.groups, got.classes, got.degenerate) == (
        expected.groups, expected.classes, expected.degenerate)
    assert got.values.tobytes() == expected.values.tobytes()  # bit for bit


def test_multiclass_checks_the_group_tag_length():
    ens = make_ensemble([([1.0, 2.0, 0.5], (0, 1)), ([1.0, 0.5], (1, 2))])
    with pytest.raises(ValueError, match="non-bias weights"):
        importance_multiclass(ens, group_of_feature=["g", "g"])


def make_ensemble(betas_and_pairs, n_classes=4):
    classes = tuple(f"c{i}" for i in range(n_classes))
    svms = [LinearSvm(np.array(beta, dtype=float), 1.0, pair)
            for beta, pair in betas_and_pairs]
    return SvmEnsemble(svms=svms, classes=classes)


def test_multiclass_reduces_to_binary_exactly():
    weights = [0.3, -1.7, 2.2, 0.0, -0.4]
    tags = ["g1", "g1", "g2", "g2", "g2"]
    svm = svm_with_weights(weights, class_pair=(0, 1))
    ens = make_ensemble([(list(weights) + [0.5], (0, 1))], n_classes=2)
    binary = importance_binary(svm, group_of_feature=tags)
    multi = importance_multiclass(ens, group_of_feature=tags)
    assert np.array_equal(binary.values, multi.values)  # bit-identical


def test_concentration_single_class():
    # every sign of every pair maps to class 3
    ens = make_ensemble(
        [([1.0, -2.0, 0.5], (3, 3)), ([-1.0, 4.0, 0.0], (3, 3))], n_classes=4
    )
    matrix = importance_multiclass(ens, group_of_feature=["g", "g"])
    assert matrix.values[0, 3] == 1.0
    assert matrix.values[0, :3].sum() == 0.0


def test_brute_force_accumulation_oracle(body_small):
    x, labels = body_small
    scaled = fit_scaling(x).apply(x)
    y = np.array([BODY_STYLE.index(l) for l in labels])
    ens = train_svm_ensemble(scaled, y, BODY_STYLE.classes, epochs=6, seed=8)
    tags = feature_groups()
    matrix = importance_multiclass(ens)

    order = list(dict.fromkeys(tags))
    for g, group in enumerate(order):
        idx = [i for i, t in enumerate(tags) if t == group]
        mass = np.zeros(7)
        z = 0.0
        for svm in ens.svms:
            for i in idx:
                w = svm.beta[i]
                z += abs(w)
                if w > 0:
                    mass[svm.class_pair[1]] += abs(w)
                elif w < 0:
                    mass[svm.class_pair[0]] += abs(w)
        assert np.allclose(matrix.values[g], mass / z, atol=1e-12)


def test_rows_normalize_and_scale_invariance(body_small):
    x, labels = body_small
    scaled = fit_scaling(x).apply(x)
    y = np.array([BODY_STYLE.index(l) for l in labels])
    ens = train_svm_ensemble(scaled, y, BODY_STYLE.classes, epochs=6, seed=8)
    matrix = importance_multiclass(ens)
    assert np.all(np.abs(matrix.values.sum(axis=1) - 1.0) < 1e-9)

    # scaling by a power of two is exact in floating point: bit-identical
    boosted = SvmEnsemble(
        svms=[LinearSvm(svm.beta * 64.0, svm.c, svm.class_pair) for svm in ens.svms],
        classes=ens.classes,
    )
    assert np.array_equal(matrix.values, importance_multiclass(boosted).values)
    # any other positive factor agrees to rounding noise
    odd = SvmEnsemble(
        svms=[LinearSvm(svm.beta * 12.0, svm.c, svm.class_pair) for svm in ens.svms],
        classes=ens.classes,
    )
    assert np.allclose(matrix.values, importance_multiclass(odd).values, atol=1e-14)


def test_permutation_within_group_equivariance():
    rng = np.random.default_rng(5)
    weights = rng.normal(size=10)
    tags = ["a"] * 5 + ["b"] * 5
    base = importance_binary(svm_with_weights(weights), group_of_feature=tags)
    shuffled = weights.copy()
    shuffled[:5] = shuffled[:5][::-1]  # permute inside group a only
    perm = importance_binary(svm_with_weights(shuffled), group_of_feature=tags)
    assert np.allclose(base.values, perm.values, atol=1e-12)


def test_global_group_carries_dominant_weight_mass(binary_small):
    # speed and length separate the two classes, so the two global weights
    # outweigh every single link block in mean magnitude
    x, labels = binary_small
    scaled = fit_scaling(x).apply(x)
    y = np.array([BINARY.index(l) for l in labels])
    ens = train_svm_ensemble(scaled, y, BINARY.classes, epochs=40, seed=2)
    beta = np.abs(ens.svms[0].beta[:-1])
    tags = np.array(feature_groups())
    global_mass = beta[tags == "G"].mean()
    for link in range(1, 10):
        assert global_mass > beta[tags == f"phi{link}"].mean()


def test_importance_csv(tmp_path):
    matrix = ImportanceMatrix(("g",), ("x", "y"), np.array([[0.25, 0.75]]))
    path = tmp_path / "imp.csv"
    write_importance_csv(str(path), matrix)
    lines = path.read_text().splitlines()
    assert lines[0] == "group,class,importance"
    assert lines[1] == "g,x,0.25"
    assert lines[2] == "g,y,0.75"
