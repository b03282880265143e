"""Command line front end.

Subcommands:
    zeta            point counts and truncated inverse zeta values
    census          exhaustive jet classification at one closed point
    surj            rank of the jet evaluation map at a closed point
    density-exact   exact truncated-product density
    density-mc      seeded Monte-Carlo density estimate
    scan            singular closed points of stored or seeded coefficient data
    minimal         minimality test for stored or seeded coefficient data

Exit codes: 0 on success, 2 on invalid arguments or configuration,
3 when a requested enumeration exceeds the feasibility cap or an exact
result has more digits than Python prints.  `zeta` instead leaves out an
exact value past its size budget or too long to print, and keeps the float.

Output is JSON (default) or CSV via --format.  JSON payloads carry
format_version, the echoed config, the result, and (unless --no-timing)
a timing block; everything except timing is byte-stable for a fixed
config and seed.  Field elements are printed as their canonical integer
index (base-p digits of the coefficient vector, least significant first).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from . import zeta as _zeta
from .density import (exact_density, jet_census, mc_density, singular_scan,
                      surjectivity_check)
from .errors import FeasibilityError
from .gf import make_field, prime_power
from .weier import load_weier, minimality_witness, random_weierstrass

CLI_FORMAT_VERSION = 1
OUT_DIR_ENV = "ELLDENS_OUT_DIR"
DECIMAL_DIGITS = 12


def fraction_decimal(fr: Fraction, digits: int = DECIMAL_DIGITS) -> str:
    """Decimal string of a Fraction with `digits` significant digits,
    ties to even."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        val = Decimal(fr.numerator) / Decimal(fr.denominator)
    return str(val)


def _unprintable() -> FeasibilityError:
    return FeasibilityError(f"an exact value has more than {sys.get_int_max_str_digits()} "
                            "digits and cannot be printed")


def _fraction_str(fr: Fraction) -> str:
    """'num/den' of a value known to print: one :func:`_check_printable`
    has passed, or a census fraction, whose denominator is at most its cap."""
    return f"{fr.numerator}/{fr.denominator}"


def _check_printable(q: int, E: int) -> None:
    """FeasibilityError when q^E, the reduced denominator of an exact value
    in (0, 1), has more digits than Python prints; decided before the value
    is computed, on integers: q^E >= 2^(E (b - 1)), b the bit length of q,
    and 10^limit < 2^(4 limit), so q^E is formed only below 8 limit bits."""
    limit = sys.get_int_max_str_digits()
    if limit and (E * (q.bit_length() - 1) >= 4 * limit or q ** E >= 10 ** limit):
        raise _unprintable()


def _check_printable_density(q: int, m: int, r: int) -> None:
    """:func:`_check_printable` for ``exact_density(q, m, r)``, after the
    check that r lies in the zeta tables' range 1..``MAX_TRUNCATION``."""
    if not 1 <= r <= _zeta.MAX_TRUNCATION:
        raise ValueError(f"need 1 <= r <= {_zeta.MAX_TRUNCATION}, got {r}")
    table = _zeta.zeta_table(m, q, r)
    _check_printable(q, _zeta.truncated_exponent(table, m + 1, r))


# -- argument plumbing ---------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    help="output format (default json)")
    sp.add_argument("--out", default=None,
                    help="output file (default stdout); relative paths are "
                         f"placed under ${OUT_DIR_ENV} when that is set")
    sp.add_argument("--no-timing", action="store_true",
                    help="omit the timing block from JSON output")


def _add_weier_source(sp: argparse.ArgumentParser) -> None:
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="FILE",
                     help="JSON file with stored coefficient data")
    src.add_argument("--random", action="store_true",
                     help="draw coefficient data from a seeded generator")
    sp.add_argument("-q", type=int, help="coefficient field size (with --random)")
    sp.add_argument("-m", type=int, help="base dimension (with --random)")
    sp.add_argument("-k", type=int, help="twist degree (with --random)")
    sp.add_argument("--seed", type=int, default=0,
                    help="generator seed for --random (default 0)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="elldens",
        description="Densities of smooth Weierstrass fibrations over P^m.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("zeta", help="point counts and inverse zeta values")
    sp.add_argument("-m", type=int, required=True, help="base dimension")
    sp.add_argument("-q", type=int, required=True, help="field size")
    sp.add_argument("-R", type=int, required=True, help="truncation order")
    sp.add_argument("-s", type=int, default=None,
                    help="exponent; include truncated and exact inverse values")
    _add_common(sp)

    sp = sub.add_parser("census", help="exhaustive jet classification")
    sp.add_argument("-p", type=int, required=True, help="characteristic")
    sp.add_argument("-q", type=int, required=True, help="field size (power of p)")
    sp.add_argument("-m", type=int, required=True, help="base dimension")
    sp.add_argument("-e", type=int, required=True, help="residue degree")
    sp.add_argument("--cap", type=int, default=None,
                    help="enumeration bound override")
    sp.add_argument("--cross-check", action="store_true",
                    help="also run the exhaustive fiber scan on every tuple")
    _add_common(sp)

    sp = sub.add_parser("surj", help="jet evaluation rank at a closed point")
    sp.add_argument("-p", type=int, required=True, help="characteristic")
    sp.add_argument("-q", type=int, required=True, help="field size (power of p)")
    sp.add_argument("-m", type=int, required=True, help="base dimension")
    sp.add_argument("-k", type=int, required=True, help="twist degree")
    sp.add_argument("-e", type=int, required=True, help="residue degree")
    _add_common(sp)

    sp = sub.add_parser("density-exact", help="exact truncated-product density")
    sp.add_argument("-q", type=int, required=True, help="field size")
    sp.add_argument("-m", type=int, required=True, help="base dimension")
    sp.add_argument("-r", type=int, required=True, help="max point degree")
    _add_common(sp)

    sp = sub.add_parser("density-mc", help="Monte-Carlo density estimate")
    sp.add_argument("-p", type=int, required=True, help="characteristic")
    sp.add_argument("-q", type=int, required=True, help="field size (power of p)")
    sp.add_argument("-m", type=int, required=True, help="base dimension")
    sp.add_argument("-k", type=int, required=True, help="twist degree")
    sp.add_argument("-r", type=int, required=True, help="max point degree")
    sp.add_argument("--samples", type=int, required=True, help="sample count")
    sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    _add_common(sp)

    sp = sub.add_parser("scan", help="singular closed points of one datum")
    _add_weier_source(sp)
    sp.add_argument("-r", type=int, required=True, help="max point degree")
    sp.add_argument("--cap", type=int, default=None,
                    help="enumeration bound override")
    _add_common(sp)

    sp = sub.add_parser("minimal", help="minimality test for one datum")
    _add_weier_source(sp)
    sp.add_argument("--jmax", type=int, default=None,
                    help="max substitution degree (default: twist degree)")
    sp.add_argument("--cap", type=int, default=None,
                    help="bound on the candidate forms left to enumerate after "
                         "the coordinate-line bound")
    _add_common(sp)

    return ap


def _load_datum(args):
    if args.input is not None:
        return load_weier(args.input)
    for flag in ("q", "m", "k"):
        if getattr(args, flag) is None:
            raise ValueError(f"--random requires -{flag}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0 with --random, got {args.seed}")
    p, r = prime_power(args.q)
    fld = make_field(p, r)
    return random_weierstrass(args.m, args.k, fld, seed=args.seed)


# -- subcommand handlers --------------------------------------------------------------
# Each returns (config, result, csv_rows).


def _run_zeta(args):
    table = _zeta.zeta_table(args.m, args.q, args.R)
    config = {"command": "zeta", "m": args.m, "q": args.q, "R": args.R, "s": args.s}
    result = {"N": list(table.N), "a": list(table.a)}
    rows = [["r", "N", "a"]]
    for i in range(args.R):
        rows.append([i + 1, table.N[i], table.a[i]])
    if args.s is not None:
        fl = _zeta.zeta_inverse_truncated_float(table, args.s, args.R)
        result["truncated_inverse_float"] = repr(fl)
        rows.append(["truncated_inverse_float", repr(fl), ""])
        routes = (("truncated_inverse", _zeta.zeta_inverse_truncated, (table, args.s, args.R),
                   _zeta.truncated_exponent(table, args.s, args.R)),
                  ("exact_inverse", _zeta.zeta_inverse_exact_Pm, (args.m, args.q, args.s),
                   _zeta.exact_Pm_exponent(args.m, args.s)))
        for name, fn, fn_args, exponent in routes:
            try:
                _check_printable(args.q, exponent)
                fr = fn(*fn_args)
                text = _fraction_str(fr)
            except FeasibilityError:
                continue  # past the exact size budget, or too long to print
            result[name] = text
            result[f"{name}_decimal"] = fraction_decimal(fr)
            rows.append([name, text, fraction_decimal(fr)])
    return config, result, rows


def _run_census(args):
    c = jet_census(args.p, args.q, args.m, args.e,
                   cap=args.cap, cross_check=args.cross_check)
    config = {"command": "census", "p": args.p, "q": args.q, "m": args.m,
              "e": args.e, "cross_check": args.cross_check}
    result = {
        "total": c.total,
        "bad": c.bad,
        "expected_bad": c.expected_bad,
        "match": c.match,
        "bad_fraction": _fraction_str(c.bad_fraction),
        "bad_fraction_decimal": fraction_decimal(c.bad_fraction),
    }
    rows = [["total", "bad", "expected_bad", "match"],
            [c.total, c.bad, c.expected_bad, c.match]]
    return config, result, rows


def _run_surj(args):
    r = surjectivity_check(args.p, args.q, args.m, args.k, args.e)
    config = {"command": "surj", "p": args.p, "q": args.q, "m": args.m,
              "k": args.k, "e": args.e}
    result = {"rank": r.rank, "expected_rank": r.expected_rank,
              "full_rank": r.full_rank, "rows": r.rows, "cols": r.cols}
    rows = [["rank", "expected_rank", "full_rank", "rows", "cols"],
            [r.rank, r.expected_rank, r.full_rank, r.rows, r.cols]]
    return config, result, rows


def _run_density_exact(args):
    _check_printable_density(args.q, args.m, args.r)
    val = exact_density(args.q, args.m, args.r)
    config = {"command": "density-exact", "q": args.q, "m": args.m, "r": args.r}
    result = {"density": _fraction_str(val),
              "density_decimal": fraction_decimal(val)}
    rows = [["density", "density_decimal"],
            [_fraction_str(val), fraction_decimal(val)]]
    return config, result, rows


def _run_density_mc(args):
    # an exact density too long to print is refused before any sample runs
    _check_printable_density(args.q, args.m, args.r)
    rep = mc_density(args.p, args.q, args.m, args.k, args.r,
                     samples=args.samples, master_seed=args.seed)
    exact = _fraction_str(rep.exact)
    config = {"command": "density-mc", "p": args.p, "q": args.q, "m": args.m,
              "k": args.k, "r": args.r, "samples": args.samples,
              "seed": args.seed}
    estimate = fraction_decimal(Fraction(rep.smooth_count, rep.samples))
    result = {
        "smooth_count": rep.smooth_count,
        "delta_zero_count": rep.delta_zero_count,
        "estimate": rep.estimate,
        "std_error": rep.std_error,
        "exact_density": exact,
        "threshold_warning": rep.threshold_warning,
        "estimate_decimal": estimate,
        "exact_decimal": fraction_decimal(rep.exact),
    }
    rows = [["smooth_count", "delta_zero_count", "samples", "estimate",
             "std_error", "exact", "threshold_warning"],
            [rep.smooth_count, rep.delta_zero_count, rep.samples, estimate,
             repr(rep.std_error), exact, rep.threshold_warning]]
    return config, result, rows


def _run_scan(args):
    w = _load_datum(args)
    hits = singular_scan(w, args.r, cap=args.cap)
    config = {"command": "scan", "q": w.field.size, "m": w.m, "k": w.k,
              "r": args.r,
              "source": args.input if args.input is not None else f"seed:{args.seed}"}
    result = {
        "singular_points": len(hits),
        "witnesses": [
            {"point": {"degree": h.point.degree, "chart": h.point.chart,
                       "coords": [c.idx for c in h.point.coords]},
             "x": h.x.idx, "y": h.y.idx}
            for h in hits
        ],
    }
    rows = [["degree", "chart", "coords", "x", "y"]]
    for h in hits:
        coords = ":".join(str(c.idx) for c in h.point.coords)
        rows.append([h.point.degree, h.point.chart, coords,
                     h.x.idx, h.y.idx])
    return config, result, rows


def _run_minimal(args):
    w = _load_datum(args)
    j_max = args.jmax if args.jmax is not None else w.k
    wit = minimality_witness(w, j_max, cap=args.cap)
    config = {"command": "minimal", "q": w.field.size, "m": w.m, "k": w.k,
              "jmax": j_max,
              "source": args.input if args.input is not None else f"seed:{args.seed}"}
    result = {"minimal": wit is None, "complete": j_max >= w.k}
    if wit is not None:
        result["witness"] = {"degree": wit.d, "terms": wit.to_obj()}
    rows = [["minimal", "complete"], [wit is None, j_max >= w.k]]
    return config, result, rows


_HANDLERS = {
    "zeta": _run_zeta,
    "census": _run_census,
    "surj": _run_surj,
    "density-exact": _run_density_exact,
    "density-mc": _run_density_mc,
    "scan": _run_scan,
    "minimal": _run_minimal,
}


# -- output ----------------------------------------------------------------------------


def _csv_token(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _render(args, config: dict, result: dict, rows, wall: float) -> str:
    if args.format == "csv":
        return "\n".join(",".join(_csv_token(v) for v in row) for row in rows) + "\n"
    payload = {
        "format_version": CLI_FORMAT_VERSION,
        "config": config,
        "result": result,
    }
    if not args.no_timing:
        payload["timing"] = {"wall_seconds": wall}
    return json.dumps(payload, indent=2) + "\n"


def _write_out(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    path = args.out
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    with open(path, "w") as fh:
        fh.write(text)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.monotonic()
    try:
        if getattr(args, "cap", None) is not None and args.cap < 1:
            raise ValueError(f"--cap must be >= 1, got {args.cap}")
        config, result, rows = _HANDLERS[args.command](args)
        try:
            text = _render(args, config, result, rows, time.monotonic() - t0)
        except ValueError:  # an integer of the result is too long to print
            raise _unprintable() from None
        _write_out(args, text)
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
