import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from klindblad.openblas import one_blas_thread


@pytest.fixture(autouse=True, scope="session")
def _one_blas_thread_per_session():
    """Pin numpy's OpenBLAS to one thread for the whole session, as a run
    pins it: BLAS calls made by the tests themselves would otherwise use
    every core and stall when the cores are shared.  Subprocess tests set
    their own thread count through the environment."""
    with one_blas_thread():
        yield


def pairing_distance(a, b) -> float:
    """Largest matched-pair distance between two equal-size eigenvalue sets.

    Sorting complex spectra elementwise misorders conjugate pairs whose real
    parts agree to rounding, so comparisons here go through an optimal
    assignment instead.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
