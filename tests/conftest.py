import numpy as np
import pytest

import additive_bases as ab


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
    return ab.as_basis(sorted(elems))


@pytest.fixture(scope="session")
def full_scale_intervals():
    """Full-scale certified enclosures, computed once for the whole run."""
    return ab.c_axial(50000), ab.c_main(4000)
