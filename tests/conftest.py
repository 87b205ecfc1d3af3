import numpy as np
import pytest

from additive_bases.cli import SCALE
from additive_bases.fourier2d import c_axial, c_main
from additive_bases.sumsets import as_basis


def random_basis(rng, max_k=12, max_element=200, include_01=True):
    """A random strictly-increasing basis; optionally forced to contain {0, 1}.

    Containing 0 and 1 guarantees the covered segment has length >= 2, so
    exponential-sum statistics at the natural modulus are well defined.
    """
    k = int(rng.integers(2 if include_01 else 1, max_k + 1))
    pool = rng.choice(np.arange(2, max_element + 1), size=max_k, replace=False)
    if include_01:
        elems = {0, 1} | set(int(x) for x in pool[: max(0, k - 2)])
    else:
        elems = set(int(x) for x in pool[:k])
    return as_basis(sorted(elems))


@pytest.fixture(scope="session")
def full_scale_intervals():
    """Full-scale certified enclosures, computed once for the whole run."""
    return c_axial(SCALE[0]), c_main(SCALE[1])


@pytest.fixture(scope="session")
def klotz_coefficient():
    """The best earlier upper bound on n(2,k)/k^2 (Klotz), which the
    certified coefficient must beat."""
    return 0.4802
