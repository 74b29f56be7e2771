"""Random labeled Gram instances shared by the oracle-equivalence tests.

A plain module rather than part of conftest.py: the suite also collects
perfbench/tests, whose conftest.py takes the module name `conftest`.
"""

import numpy as np

from pbftest import gram_entries


def random_instance(rng, max_group=12, max_dim=8, kind="coeff", grid=None):
    """Random (Gram matrix, labels) instance for oracle-equivalence checks."""
    n = int(rng.integers(1, max_group + 1))
    m = int(rng.integers(1, max_group + 1))
    if kind == "coeff":
        dim = int(rng.integers(1, max_dim + 1))
        values = rng.standard_normal((n + m, dim))
        entries = gram_entries(values, "coeff")
    else:
        values = rng.standard_normal((n + m, grid.points.size)).cumsum(axis=1) * 0.3
        entries = gram_entries(values, "grid", grid)
    labels = np.concatenate([np.zeros(n, np.int8), np.ones(m, np.int8)])
    rng.shuffle(labels)
    return entries, labels
