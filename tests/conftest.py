import contextlib
import io

import pytest

from additive_bases.cli import SCALE, main
from additive_bases.fourier2d import c_axial, c_main


@pytest.fixture(scope="session")
def full_scale_intervals():
    """Full-scale certified enclosures, computed once for the whole run."""
    return c_axial(SCALE), c_main(SCALE)


@pytest.fixture(scope="session")
def certificate_runs():
    """The exit status and stdout of each full-scale certificate command,
    run once in-process for the whole run, keyed by its argv."""
    runs = {}
    for argv in (("bound", "two-var"), ("bound", "two-var", "--route", "lemma"),
                 ("verify", "constants")):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(list(argv))
        runs[argv] = code, out.getvalue()
    return runs
