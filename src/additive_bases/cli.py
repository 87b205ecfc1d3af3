"""Command-line front end.

Subcommands:
  search --k K                     exact extremal search, JSON result
  construct rohrbach --k K         lower-bound witness + verified coverage
  bound moser                      one-variable certificate (0.4898)
  bound two-var [--route R]        two-variable certificate (JSON)
  verify constants                 reproduce the certified constants, PASS/FAIL
  verify formulas [--rmax R]       closed forms vs quadrature oracle
  basis stats --set "0,1,3"        combinatorial + exponential-sum statistics
  dump phi --grid M --out FILE     CSV surface grid of the test function

JSON goes to stdout by json.dumps, with fixed key order and each float
in the shortest form that reads back to the same double, so runs are
diffable bit for bit.  Exit status is 0 iff every requested check passed
(`bound two-var` prints its JSON and exits 1 when the certificate is
vacuous, coefficient_upper >= 1/2, no better than the trivial bound),
and 2 with an "error: ..." line on stderr for bad input (each size
input has a bound, and the message names its flag), a file that cannot
be written, or a command that needs numpy where numpy cannot be
imported (the line then names the `arrays` extra that installs it).
The certified constants and their tolerances come from certify, alpha2
among them, and the quadrature oracle and its radius limit MAX_RMAX
from fourier2d.  Shell sums run in one fixed order (see fourier2d), so
repeated runs print identical bits.  A plain install is the standard
library: no import of this module loads numpy, and only one command
does, `basis stats` on a spectrum of more than sumsets.DIRECT_TERMS
terms, such as Rohrbach's k = 400 basis at its covering radius 40001;
smaller ones, a basis typed in by hand among them, are summed without
it.  main sets OPENBLAS_NUM_THREADS to 1 unless it is set already,
before anything imports numpy: no command uses OpenBLAS's threads, and
starting them is half of numpy's import.  The package's records are
NamedTuples, and a basis is sumsets.Basis, a tuple subclass whose
__new__ sorts and validates its elements, so start-up loads none of
inspect, ast, dis or tokenize.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import fourier1d
from .certify import (
    KAPPA0,
    REF_ALPHA2_TOL,
    REF_AXIAL,
    REF_AXIAL_TOL,
    REF_COEFFICIENT,
    REF_CORNER_COEFFICIENT,
    REF_MAIN,
    REF_MAIN_TOL,
    REF_ORACLE_TOL,
    REF_RHO0,
    REF_RHO_FLOOR,
    TAU0,
    ceil4,
    certify,
    directed_root,
    rho_from,
)
from .constructions import lower_bound_coefficient, rohrbach_basis
from .search import MAX_EXACT_K, n2k_exact
from .sumsets import Basis, exp_sum_stats, n2, rep_profile

# The truncation N of both certified sums.  Three checks set a floor on
# it: every row of verify constants passes from N = 161 up (160 fails
# c_main), criterion 9's route gap is below 2e-4 from N = 215, and
# test_c_main_nesting's 1e-3 width bound holds from N = 310.  The
# benchmark pins c_main at 4 * 500^2 terms, so N stays at 500 until that
# pin moves with it.
SCALE = 500

# `construct rohrbach --k` stops where n2 of the basis takes about a
# second; that grows about as k^3.  `basis stats --set` takes at most as
# many elements as Rohrbach's k = 2000 basis has, where a run takes about
# 0.6 s and 190 MB; its pair sums grow as k^2 / 2.  `dump phi --grid`
# stops at 1024, where the run takes about 2 s and writes 37 MB; both
# grow as grid^2.  `verify formulas --rmax` stops at the oracle's own
# limit, fourier2d.MAX_RMAX.
MAX_ROHRBACH_K = 4000
MAX_SET_SIZE = 2000
MAX_GRID = 1024


def _require(flag: str, value: int, lo: int, hi: int) -> None:
    """Reject a size flag outside [lo, hi] with an error that names the flag."""
    if not lo <= value <= hi:
        raise ValueError(f"{flag} must be between {lo} and {hi}, got {value}")


def _cmd_search(args) -> int:
    _require("--k", args.k, 1, MAX_EXACT_K)
    res = n2k_exact(args.k)
    # MAX_EXACT_K keeps every search complete
    print(json.dumps({**res._asdict(), "exhaustive": True}))
    return 0


def _cmd_construct(args) -> int:
    _require("--k", args.k, 4, MAX_ROHRBACH_K)
    basis = rohrbach_basis(args.k)
    r = args.k // 2
    covered = n2(basis)
    coeff = lower_bound_coefficient(args.k)
    verified = covered >= r * r + 1
    print(json.dumps({
        "k": args.k,
        "r": r,
        "basis": list(basis),
        "size": len(basis),
        "claimed_n_lower": r * r + 1,
        "verified_n": covered,
        "verified": verified,
        "coefficient": {
            "numerator": coeff.numerator,
            "denominator": coeff.denominator,
            "value": float(coeff),
        },
    }))
    return 0 if verified else 1


def _cmd_bound_moser(args) -> int:
    alpha1, alpha2, S = fourier1d.moser_bounds()
    coefficient = fourier1d.one_var_bound(alpha1, alpha2, S)
    c = Fraction(1, 2) - coefficient
    agrees = c == Fraction(1, 98)  # the published constant
    print(json.dumps({
        "c": directed_root(c, up=False),
        "coefficient": directed_root(coefficient, up=True),
        "coefficient_reported": ceil4(coefficient),
        "linear_slack": "+k",
        "balance_fraction": float(fourier1d.balance_fraction(alpha1, alpha2, S)),
        "alpha1": float(alpha1),
        "alpha2": float(alpha2),
        "weight_sum": float(S),
        "closed_form_agrees": agrees,
    }))
    return 0 if agrees else 1


def _cmd_bound_two_var(args) -> int:
    from . import fourier2d

    cert = certify(fourier2d.c_axial(SCALE), fourier2d.c_main(SCALE), route=args.route)
    print(json.dumps(cert.to_json_dict()))
    return 0 if cert.coefficient_upper < 0.5 else 1  # 1/2 is the trivial bound


def _cmd_verify_constants(args) -> int:
    """Print one PASS/FAIL line per certified constant; each enclosure must
    lie within its reference interval, widened by the tolerance."""
    from . import fourier2d

    ax, mn = fourier2d.c_axial(SCALE), fourier2d.c_main(SCALE)
    lemma, corner = (certify(ax, mn, route=route) for route in ("lemma", "corner"))
    a2, a2_num = lemma.alpha2, fourier2d.alpha2_numeric()  # the exact value the certificate reports
    rows = [("alpha2", abs(a2_num - a2) < REF_ALPHA2_TOL,
             f"numeric minimum {a2_num:.9f} vs exact {a2:.9f}")]
    for name, iv, ref, tol in (("c_axial", ax, REF_AXIAL, REF_AXIAL_TOL),
                               ("c_main", mn, REF_MAIN, REF_MAIN_TOL)):
        rows.append((f"{name}({iv.N}) within reference",
                     ref[0] - tol <= iv.lo and iv.hi <= ref[1] + tol,
                     f"[{iv.lo:.7f}, {iv.hi:.7f}] within {ref}"))
    rho0 = rho_from(KAPPA0, TAU0)
    rows.append(("rho0 at anchors", rho0 > REF_RHO0,
                 f"rho({KAPPA0}, {TAU0}) = {rho0:.7f} > {REF_RHO0}"))

    c_lemma, c_corner = lemma.coefficient_upper, corner.coefficient_upper
    rows += [
        ("final coefficient (lemma route)", c_lemma == REF_COEFFICIENT,
         f"{c_lemma} == {REF_COEFFICIENT}"),
        ("final coefficient (corner route)", c_corner == REF_CORNER_COEFFICIENT,
         f"{c_corner} == {REF_CORNER_COEFFICIENT}"),
        ("rho lower bounds", min(lemma.rho_lower, corner.rho_lower) >= REF_RHO_FLOOR,
         f"lemma {lemma.rho_lower:.6f}, corner {corner.rho_lower:.6f}, "
         f"both >= {REF_RHO_FLOOR}"),
    ]
    for label, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return 0 if all(ok for _, ok, _ in rows) else 1


def _cmd_verify_formulas(args) -> int:
    from . import fourier2d

    _require("--rmax", args.rmax, 1, fourier2d.MAX_RMAX)
    diffs = {pair: abs(fourier2d.coeff(*pair) - c)
             for pair, c in fourier2d.coeff_quadrature(args.rmax).items() if pair != (0, 0)}
    worst_pair = max(diffs, key=diffs.get)  # the first maximum in row-major order
    worst = diffs[worst_pair]
    ok = worst < REF_ORACLE_TOL
    print(
        f"{'PASS' if ok else 'FAIL'} closed forms vs quadrature on "
        f"max|r| <= {args.rmax}: worst |diff| = {worst:.3e} at {worst_pair}"
    )
    return 0 if ok else 1


def _lemma(delta: int, bound: float, tol: float = 0.0) -> dict:
    """One surplus lemma: its bound on delta_total, and whether it holds or is tight."""
    tight = abs(delta - bound) < tol if tol else delta == bound
    return {"bound": bound, "holds": delta >= bound - tol, "tight": tight}


def _cmd_basis_stats(args) -> int:
    tokens = [tok for tok in map(str.strip, args.set.strip().strip("{}").split(",")) if tok]
    if len(tokens) > MAX_SET_SIZE:  # counted before any int(), so a huge list costs no parse
        raise ValueError(f"--set must have at most {MAX_SET_SIZE} elements, got {len(tokens)}")
    elements = []
    for tok in tokens:
        # a sign and ASCII digits: int() alone also takes "1_000" and non-ASCII digits
        digits = tok[1:] if tok[0] in "+-" else tok
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"--set: {tok!r} is not an integer")
        elements.append(int(tok))
    if not elements:
        raise ValueError("--set: empty basis")
    try:
        basis = Basis(elements)
    except ValueError as exc:  # negative, duplicate or too large
        raise ValueError(f"--set: {exc}") from None
    n, delta = rep_profile(basis)
    k = len(basis)
    pairs = (k**2 + k) // 2
    out = {
        "set": list(basis),
        "k": k,
        "n2": n,
        "delta_total": delta,
        "identity": {"pairs": pairs, "n_plus_delta": n + delta, "holds": pairs == n + delta},
    }
    if n < 2:
        out["modulus"] = None
    else:
        # The surplus lemmas bound delta_total at the covering radius n.
        st = exp_sum_stats(basis, n)
        out.update(
            {
                "modulus": n,
                "M": st.M,
                "mu": st.mu,
                "ell": st.ell,
                "L": st.L,
                "inequalities": {
                    "ell_pairs": _lemma(delta, st.ell * (st.ell + 1) / 2.0),
                    "energy": _lemma(delta, (st.M**2 - k) / 2.0, tol=1e-9),
                    "ordered_pairs": _lemma(delta, st.L / 2.0),
                },
            }
        )
    print(json.dumps(out))
    return 0


def _cmd_dump_phi(args) -> int:
    _require("--grid", args.grid, 2, MAX_GRID)
    from . import fourier2d

    fourier2d.phi_grid_csv(args.out, args.grid)
    print(f"wrote {args.grid}x{args.grid} grid to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="additive-bases",
        description="Certified bounds and exact search for additive bases of order 2.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search", help="exact extremal search for a given k")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_search)

    cp = sub.add_parser("construct", help="lower-bound constructions")
    csub = cp.add_subparsers(dest="construction", required=True)
    rp = csub.add_parser("rohrbach")
    rp.add_argument("--k", type=int, required=True)
    rp.set_defaults(func=_cmd_construct)

    bp = sub.add_parser("bound", help="upper-bound pipelines")
    bsub = bp.add_subparsers(dest="method", required=True)
    mp = bsub.add_parser("moser")
    mp.set_defaults(func=_cmd_bound_moser)
    tp = bsub.add_parser("two-var")
    tp.add_argument("--route", choices=("corner", "lemma"), default="corner")
    tp.set_defaults(func=_cmd_bound_two_var)

    vp = sub.add_parser("verify", help="verification suites")
    vsub = vp.add_subparsers(dest="suite", required=True)
    vc = vsub.add_parser("constants")
    vc.set_defaults(func=_cmd_verify_constants)
    for parser in (tp, vc):  # older scripts pass --fast; both run at SCALE
        parser.add_argument("--fast", action="store_true", help="ignored")
    vf = vsub.add_parser("formulas")
    vf.add_argument("--rmax", type=int, default=8)
    vf.set_defaults(func=_cmd_verify_formulas)

    sb = sub.add_parser("basis", help="statistics of a concrete basis")
    ssub = sb.add_subparsers(dest="what", required=True)
    st = ssub.add_parser("stats")
    st.add_argument("--set", type=str, required=True)
    st.set_defaults(func=_cmd_basis_stats)

    dp = sub.add_parser("dump", help="data dumps")
    dsub = dp.add_subparsers(dest="what", required=True)
    dphi = dsub.add_parser("phi")
    dphi.add_argument("--grid", type=int, required=True)
    dphi.add_argument("--out", type=str, required=True)
    dphi.set_defaults(func=_cmd_dump_phi)

    return p


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # a value the caller set wins
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ImportError) as exc:
        message = str(exc)
        if isinstance(exc, ImportError) and exc.name == "numpy":  # not installed, or blocked
            message = "this command needs numpy: pip install 'additive-bases[arrays]'"
        print(f"error: {message}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # every size input is bounded, but a host can run short of memory
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
