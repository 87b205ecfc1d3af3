import contextlib
import io
import sys

import pytest

from additive_bases.cli import SCALE, main
from additive_bases.fourier2d import c_axial, c_main


def block_imports(patch):
    """Make importing numpy or dataclasses, or a submodule of either already
    loaded, raise an ImportError whose name is that module, until patch, a
    pytest MonkeyPatch, restores those keys of sys.modules.  A plain install
    lacks numpy, and no command loads dataclasses (see test_package)."""
    blocked = ("numpy", "dataclasses")
    for key in {*blocked, *(key for key in sys.modules if key.split(".")[0] in blocked)}:
        patch.setitem(sys.modules, key, None)


@pytest.fixture(scope="session")
def full_scale_intervals():
    """Full-scale certified enclosures, computed once for the whole run."""
    return c_axial(SCALE), c_main(SCALE)


@pytest.fixture(scope="session")
def certificate_runs():
    """The exit status and stdout of each full-scale certificate command,
    run once in-process for the whole run, keyed by its argv, as on a
    plain install: with numpy and dataclasses blocked."""
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        block_imports(patch)
        for argv in (("bound", "two-var"), ("bound", "two-var", "--route", "lemma"),
                     ("verify", "constants")):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(list(argv))
            runs[argv] = code, out.getvalue()
    return runs
