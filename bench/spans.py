"""Tracing for the benchmark's traced run.

Each workload command runs in a fresh interpreter, as it does untraced,
but through this file: it calls `cli.main(argv)` under a root span, with
wrappers installed on the module attributes the CLI calls (see PROBES)
for the child spans, so no file of the program changes.  The spans go
back to the benchmark driver, which keeps them in memory and writes them
out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    trace: int  # id of the root span (one CLI invocation)
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from one thread; nesting follows the call stack."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        s = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            trace=parent.trace if parent else len(self.spans),
            name=name,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


# (module, attribute the CLI calls, span name, counts from (args, result)).
PROBES = (
    ("additive_bases.fourier2d", "c_main", "fourier2d.c_main",
     lambda args, out: {"N": out.N, "terms": 4 * out.N * out.N}),
    ("additive_bases.fourier2d", "c_axial", "fourier2d.c_axial",
     lambda args, out: {"N": out.N, "terms": 4 * out.N}),
    ("additive_bases.fourier2d", "alpha2_numeric", "fourier2d.alpha2_numeric", None),
    ("additive_bases.fourier2d", "coeff_quadrature", "fourier2d.coeff_quadrature", None),
    ("additive_bases.fourier2d", "coeff", "fourier2d.coeff", None),
    ("additive_bases.cli", "certify", "certify.certify", None),
    ("additive_bases.cli", "rho_from", "certify.rho_from", None),
    ("additive_bases.certify", "rho_from", "certify.rho_from", None),
    ("additive_bases.fourier1d", "one_var_bound", "fourier1d.one_var_bound", None),
    ("additive_bases.cli", "n2k_exact", "search.n2k_exact",
     lambda args, out: {"nodes": out.nodes_explored, "witnesses": len(out.witnesses)}),
    ("additive_bases.cli", "exp_sum_stats", "sumsets.exp_sum_stats",
     lambda args, out: {"terms": len(args[0]) * (out.n - 1)}),
    ("additive_bases.cli", "rep_profile", "sumsets.rep_profile", None),
    ("additive_bases.cli", "n2", "sumsets.n2", None),
    ("additive_bases.cli", "rohrbach_basis", "constructions.rohrbach_basis", None),
)


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
        if count is not None:
            s.attrs.update(count(args, out))
        return out

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap each probed attribute for the duration of the block, then restore it.

    A probe whose attribute no longer exists is skipped with a note on
    stderr; its layer metrics then read 0.
    """
    saved = []
    try:
        for modname, attr, name, count in PROBES:
            module = importlib.import_module(modname)
            if not hasattr(module, attr):
                print(f"bench: no {modname}.{attr}; layer {name} not traced", file=sys.stderr)
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def run_cli(argv, tracer: Tracer) -> tuple:
    """One invocation of cli.main(argv) under a root span, probes installed.

    Returns (exit status, captured stdout); a crash is exit status 1, as
    it would be for the CLI run as a program.
    """
    from additive_bases import cli

    buf = io.StringIO()
    with installed(tracer), tracer.span("cli.main", argv=" ".join(argv[:3])):
        with contextlib.redirect_stdout(buf):
            try:
                status = cli.main(list(argv))
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                status = 1
    return status, buf.getvalue()


def adopt(span_dicts, offset: int) -> list:
    """Spans sent by a traced child, renumbered to follow `offset` spans."""
    def shift(i):
        return None if i is None else i + offset

    return [Span(**{**d, "id": d["id"] + offset, "parent": shift(d["parent"]),
                    "trace": d["trace"] + offset}) for d in span_dicts]


def layer_metrics(spans) -> dict:
    """Per-layer totals over all spans, keyed <module>.<function>.<quantity>."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name, key=None):
        group = by_name[name]
        return sum(s.attrs.get(key, 0) for s in group) if key else sum(s.duration for s in group)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    quad = by_name["fourier2d.coeff_quadrature"]
    search_s = total("search.n2k_exact")
    m = {
        "fourier2d.c_main.s": total("fourier2d.c_main"),
        "fourier2d.c_main.self_s": sum(selfs[s.id] for s in by_name["fourier2d.c_main"]),
        "fourier2d.c_main.calls": len(by_name["fourier2d.c_main"]),
        "fourier2d.c_main.terms": total("fourier2d.c_main", "terms"),
        "fourier2d.c_axial.s": total("fourier2d.c_axial"),
        "fourier2d.alpha2_numeric.s": total("fourier2d.alpha2_numeric"),
        "fourier2d.coeff_quadrature.s": total("fourier2d.coeff_quadrature"),
        "fourier2d.coeff_quadrature.calls": len(quad),
        "fourier2d.coeff_quadrature.first_call_s": quad[0].duration if quad else 0.0,
        "fourier2d.coeff.s": total("fourier2d.coeff"),
        "fourier2d.coeff.calls": len(by_name["fourier2d.coeff"]),
        "certify.certify.s": total("certify.certify"),
        "certify.certify.calls": len(by_name["certify.certify"]),
        "certify.rho_from.s": total("certify.rho_from"),
        "fourier1d.one_var_bound.s": total("fourier1d.one_var_bound"),
        "search.n2k_exact.s": search_s,
        "search.n2k_exact.nodes": total("search.n2k_exact", "nodes"),
        "sumsets.exp_sum_stats.s": total("sumsets.exp_sum_stats"),
        "sumsets.exp_sum_stats.terms": total("sumsets.exp_sum_stats", "terms"),
        "sumsets.rep_profile.s": total("sumsets.rep_profile"),
        "sumsets.n2.s": total("sumsets.n2"),
        "constructions.rohrbach_basis.s": total("constructions.rohrbach_basis"),
    }
    m["fourier2d.c_main.terms_per_s"] = rate(m["fourier2d.c_main.terms"], m["fourier2d.c_main.s"])
    m["fourier2d.c_axial.terms_per_s"] = rate(
        total("fourier2d.c_axial", "terms"), m["fourier2d.c_axial.s"]
    )
    m["fourier2d.coeff_quadrature.s_per_call"] = rate(
        m["fourier2d.coeff_quadrature.s"], len(quad)
    )
    m["fourier2d.coeff.per_s"] = rate(m["fourier2d.coeff.calls"], m["fourier2d.coeff.s"])
    m["search.n2k_exact.nodes_per_s"] = rate(m["search.n2k_exact.nodes"], search_s)
    m["search.n2k_exact.nodes_per_witness"] = rate(
        m["search.n2k_exact.nodes"], total("search.n2k_exact", "witnesses")
    )
    m["sumsets.exp_sum_stats.terms_per_s"] = rate(
        m["sumsets.exp_sum_stats.terms"], m["sumsets.exp_sum_stats.s"]
    )
    return m


if __name__ == "__main__":
    # Child side of a traced run:  python bench/spans.py <cli arguments...>
    # prints one JSON line with the exit status, the CLI's stdout and the spans.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer()
    status, stdout = run_cli(sys.argv[1:], tracer)
    print(json.dumps({"status": status, "stdout": stdout,
                      "spans": [asdict(s) for s in tracer.spans]}))
