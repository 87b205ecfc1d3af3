import pytest

from additive_bases.cli import SCALE
from additive_bases.fourier2d import c_axial, c_main


@pytest.fixture(scope="session")
def full_scale_intervals():
    """Full-scale certified enclosures, computed once for the whole run."""
    return c_axial(SCALE), c_main(SCALE)


@pytest.fixture(scope="session")
def klotz_coefficient():
    """The best earlier upper bound on n(2,k)/k^2 (Klotz), which the
    certified coefficient must beat."""
    return 0.4802
