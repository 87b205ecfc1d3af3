"""The benchmark's workloads: the CLI commands each runs and the checks
that decide whether each command's output is correct.

Every workload is a fixed list of `python -m additive_bases ...` argument
vectors.  Only `desk` uses the seed, to draw a few random bases.
A checker returns None for a correct output and a short reason otherwise;
the reference values are literals here, kept independent of the program's
own constants on purpose.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("certificate-full", "desk")

# Full-scale certificate: corner route decimal and the reference enclosures
# the CLI's own full-scale check uses, with the same tolerances.
FULL_CORNER_COEFFICIENT = 0.4788
REF_AXIAL = (2.90278, 2.90289)
REF_MAIN = (4.75145, 4.76146)
AXIAL_TOL = 1e-5
MAIN_TOL = 1e-4

DESK_COEFFICIENT_MAX = 0.4798
MOSER_COEFFICIENT = 0.4898

# Oracle radius: 24 quadrature coefficients, a few seconds of a desk pass.
ORACLE_RMAX = 2
ORACLE_TOL = 1e-8

SEARCH_K = 12
# n_best(k) as the exhaustive search produced it when the benchmark was defined.
N_BEST = {12: 55}
ROHRBACH_CONSTRUCT_K = 2000
ROHRBACH_STATS_K = 400
RANDOM_BASES = 4
RANDOM_BASIS_SIZE = 24
RANDOM_BASIS_SPAN = 300


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: Callable[[str], Optional[str]]


def verdict(cmd: Command, returncode: int, stdout: str) -> Optional[str]:
    """None when the command succeeded with a correct output, else why not."""
    if returncode != 0:
        return f"exit status {returncode}"
    try:
        return cmd.check(stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _inside(interval, ref, tol) -> bool:
    return ref[0] - tol <= interval["lo"] and interval["hi"] <= ref[1] + tol


def check_full_certificate(out: str) -> Optional[str]:
    cert = json.loads(out)
    if cert["route"] != "corner":
        return f"route {cert['route']!r}, expected 'corner'"
    if cert["coefficient_upper"] != FULL_CORNER_COEFFICIENT:
        return f"corner coefficient {cert['coefficient_upper']} != {FULL_CORNER_COEFFICIENT}"
    if not _inside(cert["c_axial"], REF_AXIAL, AXIAL_TOL):
        return f"c_axial {cert['c_axial']} outside reference {REF_AXIAL}"
    if not _inside(cert["c_main"], REF_MAIN, MAIN_TOL):
        return f"c_main {cert['c_main']} outside reference {REF_MAIN}"
    return None


def check_desk_certificate(route: str) -> Callable[[str], Optional[str]]:
    def check(out: str) -> Optional[str]:
        cert = json.loads(out)
        if cert["route"] != route:
            return f"route {cert['route']!r}, expected {route!r}"
        if not cert["coefficient_upper"] <= DESK_COEFFICIENT_MAX:
            return f"{route} coefficient {cert['coefficient_upper']} > {DESK_COEFFICIENT_MAX}"
        return None

    return check


def check_constants(out: str) -> Optional[str]:
    lines = out.splitlines()
    if not lines:
        return "no PASS/FAIL lines"
    bad = [line for line in lines if not line.startswith("PASS ")]
    return f"not PASS: {bad[0]}" if bad else None


def check_moser(out: str) -> Optional[str]:
    reported = json.loads(out)["coefficient_reported"]
    if reported != MOSER_COEFFICIENT:
        return f"moser coefficient {reported} != {MOSER_COEFFICIENT}"
    return None


_WORST = re.compile(r"worst \|diff\| = (\S+)")


def check_formulas(out: str) -> Optional[str]:
    line = out.strip()
    if not line.startswith("PASS "):
        return f"not PASS: {line}"
    match = _WORST.search(line)
    if match is None:
        return f"no worst difference in {line!r}"
    worst = float(match.group(1))
    if not worst < ORACLE_TOL:
        return f"worst difference {worst} >= {ORACLE_TOL}"
    return None


def check_search(out: str) -> Optional[str]:
    from additive_bases.sumsets import n2

    res = json.loads(out)
    k = res["k"]
    if res["exhaustive"] is not True:
        return "search not exhaustive"
    if res["n_best"] != N_BEST[k]:
        return f"n_best {res['n_best']} != {N_BEST[k]} at k = {k}"
    if not res["witnesses"]:
        return "no witnesses"
    for w in res["witnesses"]:
        if len(w) != k or n2(w) != res["n_best"]:
            return f"witness {w} does not cover [0, {res['n_best'] - 1}] with {k} elements"
    return None


def check_rohrbach(out: str) -> Optional[str]:
    return None if json.loads(out)["verified"] is True else "rohrbach coverage not verified"


def check_basis_stats(out: str) -> Optional[str]:
    ident = json.loads(out)["identity"]
    return None if ident["holds"] is True else f"pair identity fails: {ident}"


def rohrbach(k: int) -> list:
    """Rohrbach's set for k, built here so the input does not come from the program."""
    r = k // 2
    return sorted(set(range(r + 1)) | {j * r for j in range(2, r)})


def random_bases(seed: int) -> list:
    """Seeded random bases that contain {0, 1}, so their covered segment is >= 2."""
    rng = random.Random(seed)
    return [
        [0, 1] + sorted(rng.sample(range(2, RANDOM_BASIS_SPAN), RANDOM_BASIS_SIZE - 2))
        for _ in range(RANDOM_BASES)
    ]


def _stats(elements) -> Command:
    return Command(("basis", "stats", "--set", ",".join(map(str, elements))), check_basis_stats)


def commands(workload: str, seed: int) -> list:
    """The commands of one pass over a workload, in the order they run."""
    if workload == "certificate-full":
        return [Command(("bound", "two-var"), check_full_certificate)]
    if workload == "desk":
        # The certificate's desk checks, the quadrature oracle, then the
        # combinatorics: every short command a user runs, one after another.
        return [
            Command(("bound", "two-var", "--fast"), check_desk_certificate("corner")),
            Command(
                ("bound", "two-var", "--fast", "--route", "lemma"),
                check_desk_certificate("lemma"),
            ),
            Command(("verify", "constants", "--fast"), check_constants),
            Command(("bound", "moser"), check_moser),
            Command(("verify", "formulas", "--rmax", str(ORACLE_RMAX)), check_formulas),
            Command(("search", "--k", str(SEARCH_K)), check_search),
            Command(("construct", "rohrbach", "--k", str(ROHRBACH_CONSTRUCT_K)), check_rohrbach),
            _stats(rohrbach(ROHRBACH_STATS_K)),
            *(_stats(b) for b in random_bases(seed)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
