"""Tests of the benchmark itself: span arithmetic, output checkers, wrappers.

Run from the repository root:  python -m pytest bench/tests -q
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _span(id, parent, start, end, name="x"):
    return spans.Span(id=id, parent=parent, trace=0, name=name, start=start, end=end)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),  # overlaps span 1: covered once
        _span(3, 0, 8.0, 12.0),  # runs past the parent: clipped at 10
        _span(4, 2, 2.5, 4.0),  # grandchild: counts against span 2 only
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.5)


def test_tracer_nests_spans_under_one_root_per_invocation():
    tracer = spans.Tracer()
    for _ in range(2):
        with tracer.span("cli.main"):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.id for s in roots] == [0, 3]
    assert [(s.parent, s.trace) for s in tracer.spans] == [
        (None, 0), (0, 0), (1, 0), (None, 3), (3, 3), (4, 3)
    ]
    assert all(s.end >= s.start for s in tracer.spans)


FULL_CERT = {
    "c_axial": {"lo": 2.9027876588509041, "hi": 2.9028876591087238, "N": 50000},
    "c_main": {"lo": 4.7514546862405478, "hi": 4.7614548212850138, "N": 4000},
    "coefficient_upper": 0.4788,
    "route": "corner",
}
SEARCH_12 = {
    "k": 12,
    "n_best": 55,
    "witnesses": [
        [0, 1, 2, 3, 7, 11, 15, 19, 23, 25, 26, 28],
        [0, 1, 2, 5, 7, 11, 15, 19, 23, 25, 26, 28],
        [0, 1, 3, 4, 9, 11, 16, 18, 23, 24, 26, 27],
        [0, 1, 3, 5, 6, 13, 14, 21, 22, 24, 26, 27],
    ],
    "nodes_explored": 2637413,
    "exhaustive": True,
}
CONSTANTS_FAST = "PASS alpha2: ok\nPASS c_main(500) contains reference: ok\n"


def _cmd(workload, *prefix):
    return next(c for c in wl.commands(workload, 0) if c.argv[: len(prefix)] == prefix)


def test_checkers_accept_the_seed_outputs():
    assert wl.verdict(_cmd("certificate-full", "bound"), 0, json.dumps(FULL_CERT)) is None
    assert wl.verdict(_cmd("desk", "search"), 0, json.dumps(SEARCH_12)) is None
    assert wl.verdict(_cmd("desk", "verify", "constants"), 0, CONSTANTS_FAST) is None


def test_checkers_reject_doctored_outputs():
    full = _cmd("certificate-full", "bound")
    assert "0.4789" in wl.verdict(full, 0, json.dumps({**FULL_CERT, "coefficient_upper": 0.4789}))
    wide = {**FULL_CERT, "c_main": {"lo": 4.74, "hi": 4.77, "N": 4000}}
    assert "c_main" in wl.verdict(full, 0, json.dumps(wide))

    constants = _cmd("desk", "verify", "constants")
    failing = CONSTANTS_FAST + "FAIL rho0 at anchors: rho = 0.04\n"
    assert "FAIL rho0" in wl.verdict(constants, 0, failing)

    search = _cmd("desk", "search")
    for n_best in (54, 56):
        assert "n_best" in wl.verdict(search, 0, json.dumps({**SEARCH_12, "n_best": n_best}))
    bad_witness = {**SEARCH_12, "witnesses": [[0, 1, 2, 3, 7, 11, 15, 19, 23, 25, 26, 29]]}
    assert "witness" in wl.verdict(search, 0, json.dumps(bad_witness))

    oracle = _cmd("desk", "verify", "formulas")
    assert wl.verdict(oracle, 0, "PASS closed forms: worst |diff| = 2.0e-08 at (1, 1)\n")

    # A nonzero exit fails even when the output itself is fine.
    assert wl.verdict(full, 1, json.dumps(FULL_CERT)) == "exit status 1"
    assert wl.verdict(full, 0, "Traceback (most recent call last):").startswith("unreadable")


def test_only_the_random_bases_follow_the_seed():
    assert wl.random_bases(3) == wl.random_bases(3) != wl.random_bases(4)
    assert all(b[:2] == [0, 1] and len(set(b)) == wl.RANDOM_BASIS_SIZE for b in wl.random_bases(3))
    stats = ("basis", "stats")
    argvs = [[c.argv for c in wl.commands(name, seed) if c.argv[:2] != stats]
             for name in wl.WORKLOADS for seed in (3, 4)]
    assert argvs[0] == argvs[1] and argvs[2] == argvs[3]


def _probed():
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _, _ in spans.PROBES
    }


def test_wrappers_are_removed_even_when_the_block_raises():
    originals = _probed()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            assert all(fn is not originals[key] for key, fn in _probed().items())
            raise RuntimeError("leave the block early")
    assert _probed() == originals


def test_run_cli_traces_one_invocation_and_restores_module_attributes():
    originals = _probed()
    tracer = spans.Tracer()
    status, stdout = spans.run_cli(("bound", "moser"), tracer)
    assert _probed() == originals
    assert wl.verdict(_cmd("desk", "bound", "moser"), status, stdout) is None
    root, child = tracer.spans
    assert (root.name, root.parent) == ("cli.main", None)
    assert (child.name, child.parent, child.trace) == ("fourier1d.one_var_bound", root.id, root.id)
    assert spans.layer_metrics(tracer.spans)["fourier1d.one_var_bound.s"] == child.duration


def test_traced_child_sends_spans_the_driver_can_adopt():
    out = run.spawn((str(BENCH / "spans.py"), "bound", "two-var", "--fast"), run.child_env())
    child = json.loads(out.stdout.splitlines()[-1])
    assert child["status"] == 0
    assert wl.verdict(_cmd("desk", "bound", "two-var"), 0, child["stdout"]) is None
    adopted = spans.adopt(child["spans"], offset=5)
    assert adopted[0].name == "cli.main" and (adopted[0].id, adopted[0].parent) == (5, None)
    assert all(s.trace == 5 and s.parent is not None for s in adopted[1:])
    m = spans.layer_metrics(adopted)
    assert m["fourier2d.c_main.terms"] == 4 * 500 * 500
    assert m["certify.certify.calls"] == 1


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     numpy.core
import time:       200 |        300 |   numpy
import time:        50 |         50 |         numpy.linalg
import time:        70 |        120 |       scipy.linalg
import time:        30 |        150 |     scipy
import time:        10 |        400 |   scipy.optimize
import time:         5 |        900 | additive_bases
"""


def test_import_seconds_counts_outermost_package_entries_once():
    assert run.import_seconds(IMPORTTIME, "scipy") == pytest.approx(400e-6)
    # numpy.linalg, imported from inside scipy, is numpy's time too
    assert run.import_seconds(IMPORTTIME, "numpy") == pytest.approx(350e-6)
