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
and 2 with an "error: ..." line on stderr for bad input (a size too
large to allocate, too), a file that cannot be written, or a command
that needs numpy where numpy cannot be imported.  Shell sums
run in one fixed order (see fourier2d), so repeated runs print identical
bits.  No import of this module, and no run of `search`, `construct`,
`bound`, `verify constants` or `dump phi`, loads numpy: the certificate
and the test function run on the standard library.  `verify formulas`
imports it through fourier2d's quadrature oracle when it runs, and
`basis stats` only for a spectrum of more than sumsets.DIRECT_TERMS
terms, such as Rohrbach's k = 400 basis at its covering radius 40001;
smaller ones, a basis typed in by hand among them, are summed without
it.  main sets OPENBLAS_NUM_THREADS to 1 unless it is set already,
before anything imports numpy: no command uses OpenBLAS's threads, and
starting them is half of numpy's import.  The package's records are
NamedTuples, and a basis is sumsets.Basis, a tuple subclass
whose __new__ sorts and validates its elements, so start-up loads none
of inspect, ast, dis or tokenize.
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


def _require(flag: str, value: int, lo: int, hi=None) -> None:
    """Reject a size flag outside [lo, hi] with an error that names the flag."""
    if value < lo or (hi is not None and value > hi):
        bound = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
        raise ValueError(f"{flag} must be {bound}, got {value}")


def _cmd_search(args) -> int:
    _require("--k", args.k, 1, MAX_EXACT_K)
    res = n2k_exact(args.k)
    # MAX_EXACT_K keeps every search complete
    print(json.dumps({**res._asdict(), "exhaustive": True}))
    return 0


def _cmd_construct(args) -> int:
    _require("--k", args.k, 4)
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
    a2, a2_num = fourier2d.alpha2_exact(), fourier2d.alpha2_numeric()
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

    lemma, corner = (certify(ax, mn, route=route) for route in ("lemma", "corner"))
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
    rmax = args.rmax
    _require("--rmax", rmax, 1)
    from . import fourier2d

    quad = fourier2d.coeff_quadrature(rmax)
    r = range(-rmax, rmax + 1)
    diffs = {(r1, r2): float(abs(fourier2d.coeff(r1, r2) - quad[r1 + rmax, r2 + rmax]))
             for r1 in r for r2 in r if r1 or r2}
    worst_pair = max(diffs, key=diffs.get)  # the first maximum in row-major order
    worst = diffs[worst_pair]
    ok = worst < REF_ORACLE_TOL
    print(
        f"{'PASS' if ok else 'FAIL'} closed forms vs quadrature on "
        f"max|r| <= {rmax}: worst |diff| = {worst:.3e} at {worst_pair}"
    )
    return 0 if ok else 1


def _lemma(delta: int, bound: float, tol: float = 0.0) -> dict:
    """One surplus lemma: its bound on delta_total, and whether it holds or is tight."""
    tight = abs(delta - bound) < tol if tol else delta == bound
    return {"bound": bound, "holds": delta >= bound - tol, "tight": tight}


def _cmd_basis_stats(args) -> int:
    text = args.set.strip().strip("{}")
    elements = []
    for tok in filter(None, map(str.strip, text.split(","))):
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
    _require("--grid", args.grid, 2, 2**16)  # the rows stream to disk, so bound them
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
    except (ValueError, OSError, ImportError) as exc:  # ImportError: numpy missing
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size flag too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
