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


def assert_cptp_spectrum(spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Assert the spectral fingerprints of a valid dissipative generator
    solved with its modes: no growing mode, a zero mode, exact conjugate
    pairs (a real solve returns them), and a zero mode whose left partner,
    its row of the inverse of the right modes, is the trace functional: the
    identity string, at index 0.  Returns the left and the right modes."""
    eigs = spectrum.eigenvalues
    assert eigs.real.max() < 1e-8
    steady = np.flatnonzero(np.abs(eigs) < 1e-8)
    assert steady.size
    assert np.array_equal(np.sort_complex(eigs), np.sort_complex(eigs.conj()))
    right = spectrum.modes(slice(None))
    left = np.linalg.inv(right)
    steady_left = left[steady[0]]
    assert np.abs(steady_left[0]) / np.linalg.norm(steady_left) > 1 - 1e-8
    return left, right
