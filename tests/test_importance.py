import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_importance_binary
from rftraffic.features import feature_groups, fit_scaling
from rftraffic.importance import ImportanceMatrix, importance_multiclass, write_importance_csv
from rftraffic.learn import SvmEnsemble, train_svm_ensemble
from rftraffic.topology import BINARY, BODY_STYLE


def pair_with_weights(weights, bias=0.5):
    """A one-pair ensemble whose sign -1 votes class 0 and sign +1 class 1."""
    return SvmEnsemble(np.array([list(weights) + [bias]]), np.array([[0, 1]]), 1.0, ("-1", "+1"))


def test_small_group_example():
    # weights (+2, +1, -1): positive mass 3 of total 4
    matrix = importance_multiclass(pair_with_weights([2.0, 1.0, -1.0]),
                                   group_of_feature=["g", "g", "g"])
    assert matrix.values[0, 1] == pytest.approx(3 / 4)
    assert matrix.values[0, 0] == pytest.approx(1 / 4)


def test_one_sided_group():
    matrix = importance_multiclass(pair_with_weights([0.5, 2.0, 0.25]),
                                   group_of_feature=["g", "g", "g"])
    assert matrix.values[0, 1] == 1.0
    assert matrix.values[0, 0] == 0.0


def test_bias_excluded_from_groups():
    # huge bias must not disturb the group sums
    a = importance_multiclass(pair_with_weights([1.0, -1.0], bias=0.0),
                              group_of_feature=["g", "g"])
    b = importance_multiclass(pair_with_weights([1.0, -1.0], bias=1e9),
                              group_of_feature=["g", "g"])
    assert np.array_equal(a.values, b.values)


def test_degenerate_group_uniform_and_flagged():
    matrix = importance_multiclass(pair_with_weights([0.0, 0.0, 1.0]),
                                   group_of_feature=["dead", "dead", "live"])
    assert matrix.degenerate == ("dead",)
    assert np.array_equal(matrix.row("dead"), [0.5, 0.5])
    assert np.array_equal(matrix.row("live"), [0.0, 1.0])


def test_group_tag_length_mismatch():
    with pytest.raises(ValueError):
        importance_multiclass(pair_with_weights([1.0, 2.0]), group_of_feature=["g"])


@st.composite
def tagged_pairs(draw):
    """One pair's weights with group tags; exact zeros, -0.0 and all-zero groups are common."""
    d = draw(st.integers(1, 12))
    weight = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                       st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True))
    beta = np.array(draw(st.lists(weight, min_size=d + 1, max_size=d + 1)))
    tags = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=d, max_size=d))
    names = draw(st.sampled_from([("-1", "+1"), ("car", "truck")]))
    return beta, tags, names


@settings(max_examples=300, deadline=None)
@given(tagged_pairs())
def test_binary_importance_matches_its_written_out_form(problem):
    beta, tags, names = problem
    got = importance_multiclass(SvmEnsemble(beta[None, :], np.array([[0, 1]]), 1.0, names),
                                group_of_feature=tags)
    expected = reference_importance_binary(beta, tags, names)
    assert (got.groups, got.classes, got.degenerate) == (
        expected.groups, expected.classes, expected.degenerate)
    assert got.values.tobytes() == expected.values.tobytes()  # bit for bit


def test_multiclass_checks_the_group_tag_length():
    ens = make_ensemble([([1.0, 2.0, 0.5], (0, 1)), ([1.0, -0.5, 0.5], (1, 2))])
    with pytest.raises(ValueError, match="non-bias weights"):
        importance_multiclass(ens, group_of_feature=["g", "g", "g"])


def make_ensemble(betas_and_pairs, n_classes=4):
    betas, pairs = zip(*betas_and_pairs)
    return SvmEnsemble(np.array(betas, dtype=float), np.array(pairs), 1.0,
                       tuple(f"c{i}" for i in range(n_classes)))


def test_multiclass_reduces_to_binary_exactly():
    beta = np.array([0.3, -1.7, 2.2, 0.0, -0.4, 0.5])
    tags = ["g1", "g1", "g2", "g2", "g2"]
    ens = make_ensemble([(beta, (0, 1))], n_classes=2)
    multi = importance_multiclass(ens, group_of_feature=tags)
    binary = reference_importance_binary(beta, tags, ens.classes)
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
        for beta, (neg, pos) in zip(ens.weights, ens.pairs):
            for i in idx:
                w = beta[i]
                z += abs(w)
                if w > 0:
                    mass[pos] += abs(w)
                elif w < 0:
                    mass[neg] += abs(w)
        assert np.allclose(matrix.values[g], mass / z, atol=1e-12)


def test_rows_normalize_and_scale_invariance(body_small):
    x, labels = body_small
    scaled = fit_scaling(x).apply(x)
    y = np.array([BODY_STYLE.index(l) for l in labels])
    ens = train_svm_ensemble(scaled, y, BODY_STYLE.classes, epochs=6, seed=8)
    matrix = importance_multiclass(ens)
    assert np.all(np.abs(matrix.values.sum(axis=1) - 1.0) < 1e-9)

    # scaling by a power of two is exact in floating point: bit-identical
    boosted = SvmEnsemble(ens.weights * 64.0, ens.pairs, ens.c, ens.classes)
    assert np.array_equal(matrix.values, importance_multiclass(boosted).values)
    # any other positive factor agrees to rounding noise
    odd = SvmEnsemble(ens.weights * 12.0, ens.pairs, ens.c, ens.classes)
    assert np.allclose(matrix.values, importance_multiclass(odd).values, atol=1e-14)


def test_permutation_within_group_equivariance():
    rng = np.random.default_rng(5)
    weights = rng.normal(size=10)
    tags = ["a"] * 5 + ["b"] * 5
    base = importance_multiclass(pair_with_weights(weights), group_of_feature=tags)
    shuffled = weights.copy()
    shuffled[:5] = shuffled[:5][::-1]  # permute inside group a only
    perm = importance_multiclass(pair_with_weights(shuffled), group_of_feature=tags)
    assert np.allclose(base.values, perm.values, atol=1e-12)


def test_global_group_carries_dominant_weight_mass(binary_small):
    # speed and length separate the two classes, so the two global weights
    # outweigh every single link block in mean magnitude
    x, labels = binary_small
    scaled = fit_scaling(x).apply(x)
    y = np.array([BINARY.index(l) for l in labels])
    ens = train_svm_ensemble(scaled, y, BINARY.classes, epochs=40, seed=2)
    beta = np.abs(ens.weights[0, :-1])
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
