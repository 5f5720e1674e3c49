import os
import shutil
import subprocess
import tempfile

import numpy as np
import pytest

from rftraffic import features, simulate
from rftraffic.importance import ImportanceMatrix, _group_slices
from rftraffic.topology import SystemParams, Topology


@pytest.fixture(scope="session")
def topo():
    return Topology()


@pytest.fixture(scope="session")
def params():
    return SystemParams()


@pytest.fixture(scope="session")
def binary_small(topo, params):
    """200-trace corpus from the two aggregate class templates, featurized."""
    ds = simulate.generate_dataset(
        simulate.BINARY_TEMPLATES, [100, 100], seed=202, topology=topo, params=params
    )
    x, labels = features.dataset_features(ds, topo, params)
    return x, labels


@pytest.fixture(scope="session")
def body_small(topo, params):
    """300-trace body-style corpus with class-proportional counts, featurized."""
    counts = simulate.proportional_counts(300)
    ds = simulate.generate_dataset(
        simulate.BODY_STYLE_TEMPLATES, counts, seed=303, topology=topo, params=params
    )
    x, labels = features.dataset_features(ds, topo, params)
    return x, labels


_HARNESS = r"""
#include <stdio.h>
extern int predict(const double features[DIM]);
int main(void) {
    double f[DIM]; int i;
    while (1) {
        for (i = 0; i < DIM; ++i) { if (scanf("%lf", &f[i]) != 1) return 0; }
        printf("%d\n", predict(f));
    }
}
"""


def compile_and_predict(source: str, vectors: np.ndarray) -> np.ndarray:
    """Independent oracle: build the emitted unit with the system C compiler."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler available for the emitted-source oracle")
    dim = vectors.shape[1]
    with tempfile.TemporaryDirectory() as td:
        with open(os.path.join(td, "infer.c"), "w") as fh:
            fh.write(source)
        with open(os.path.join(td, "main.c"), "w") as fh:
            fh.write(_HARNESS.replace("DIM", str(dim)))
        exe = os.path.join(td, "run")
        built = subprocess.run(
            ["cc", "-std=c89", "-pedantic", "-Wall", "-Werror", "-O0", "-o", exe,
             os.path.join(td, "infer.c"), os.path.join(td, "main.c")],
            capture_output=True, text=True,
        )
        assert built.returncode == 0, f"emitted source failed to compile:\n{built.stderr}"
        stream = "\n".join(" ".join(repr(float(v)) for v in row) for row in vectors)
        out = subprocess.run([exe], input=stream, capture_output=True, text=True)
        assert out.returncode == 0
        return np.array([int(tok) for tok in out.stdout.split()])


def reference_importance_binary(beta, group_of_feature, class_names) -> ImportanceMatrix:
    """The group importance of one pair's weights ``beta`` (the bias last) written
    out, columns (sign -1 class, sign +1 class); the oracle for the one-pair
    case of ``importance_multiclass``."""
    weights = np.asarray(beta)[:-1]
    slices = _group_slices(group_of_feature)
    values = np.zeros((len(slices), 2))
    for row, (_, idx) in enumerate(slices):
        w = weights[idx]
        absw = np.abs(w)
        z = absw.sum()
        if z == 0.0:
            values[row] = 0.5
            continue
        values[row, 0] = absw[w < 0].sum() / z
        values[row, 1] = absw[w > 0].sum() / z
    return ImportanceMatrix(groups=tuple(name for name, _ in slices), classes=tuple(class_names),
                            values=values)
