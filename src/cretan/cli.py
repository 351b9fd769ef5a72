"""Command-line surface.

Subcommands: construct, verify, catalog, bounds, designs.  Exit codes:
0 success / verified, 1 verification failure, 2 usage or unsatisfiable
request or a file that cannot be read or written, 3 missing fixture.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache, partial

from cretan.catalog import (
    MAX_ORDER,
    ROUTE_FAILURES,
    ROUTES,
    Candidate,
    catalog_structured,
    catalog_table,
    format_catalog_text,
    rank,
)
from cretan.constructions import (
    GH_MAX_ORDER,
    ComplexLevelMatrix,
    LevelMatrix,
    conference_complex,
    direct_sum,
    from_values,
    gh_from_field,
    gh_z3_order6,
    group_orthogonality_check,
)
from cretan.designs import (
    DESIGN_REGISTRY,
    MissingFixture,
    NotADifferenceSet,
    biquadratic_difference_set,
    qr_difference_set,
    singer_difference_set,
)
from cretan.fields import factor_prime_power, is_prime_power
from cretan.files import ParseError, load_matrix, serialize_matrix
from cretan.hadamard import NoConstructionAvailable, paley_conference
from cretan.render import render
from cretan.scalar import VERIFY_TOL, Scalar
from cretan.verify import det_bounds, verify_complex, verify_cretan


class CliError(Exception):
    """Request that cannot be satisfied: reported on stderr, exit 2."""


# construct rejects larger orders before building anything: the Kronecker
# route builds catalog factors up to n/3, and at 3003 = 3 x 1001 its
# factor is past the catalog's MAX_ORDER
MAX_CONSTRUCT_ORDER = 2 * MAX_ORDER


def _best_of(routes: tuple, n: int):
    """The matrix that the catalog's rank puts first among every part the
    named routes build at order n.  Nothing here is verified: the caller
    checks the one matrix it writes.  A part that fails with one of
    ROUTE_FAILURES is skipped, and the first such failure is raised only
    when no part built anything."""
    cands, failures = [], []
    for name in routes:
        for _, build in ROUTES[name].parts(n):
            try:
                cands += [Candidate(name, m, None) for m, _ in build()]
            except ROUTE_FAILURES as exc:
                failures.append(exc)
    if not cands:
        if failures:
            raise failures[0]
        raise CliError("no %s construction at order %d"
                       % (" or ".join(routes), n))
    return min(cands, key=rank).matrix


def _construct_auto(n: int):
    if n == 1:
        return from_values([[Scalar(1)]], Scalar(1), "unit")
    if n == 2:
        raise CliError("no construction for order %d" % n)
    return _best_of(tuple(ROUTES), n)


def _construct_direct_sum(n: int):
    if n < 6:
        raise CliError("direct sum needs order at least 6")
    a = n // 2
    if a % 2 == 0:
        a -= 1
    # both parts have order >= 3, and an even part >= 4
    return direct_sum(_construct_auto(a), _construct_auto(n - a))


def _construct_conference(n: int):
    q = n - 1
    if q < 5 or q % 4 != 1 or not is_prime_power(q):
        raise CliError("conference route needs order q+1, q a prime power"
                       " 1 mod 4; got %d" % n)
    return conference_complex(paley_conference(q))


def _construct_gh(n: int):
    if n == 6:
        return gh_z3_order6()
    if n > GH_MAX_ORDER or not is_prime_power(n):
        raise CliError("group route needs a prime power order up to %d"
                       " (or 6); got %d" % (GH_MAX_ORDER, n))
    return gh_from_field(*factor_prime_power(n))


_CONSTRUCTORS = {
    "auto": _construct_auto,
    "basic": partial(_best_of, ("basic",)),
    "sbibd": partial(_best_of, ("sbibd-ds", "paley-sbibd")),
    "regular-hadamard": partial(_best_of, ("regular-hadamard",)),
    "bordered": partial(_best_of, ("bordered",)),
    "kronecker": partial(_best_of, ("kronecker",)),
    "direct-sum": _construct_direct_sum,
    "conference": _construct_conference,
    "gh": _construct_gh,
}


def _verify_any(m, strict: bool, tolerance: float):
    """(passed, report lines) for any of the three matrix kinds."""
    if isinstance(m, LevelMatrix):
        cert = verify_cretan(m, mode="strict" if strict else "relaxed",
                             tolerance=tolerance)
        lines = ["%-20s %s" % (k, v) for k, v in cert.summary_rows()]
        return cert.passed, lines
    if isinstance(m, ComplexLevelMatrix):
        ok = verify_complex(m, tolerance=tolerance)
        return ok, ["order %d complex, radius %s: %s"
                    % (m.order, m.omega, "pass" if ok else "FAIL")]
    # a GroupMatrix, the third kind builders and load_matrix return
    rep = group_orthogonality_check(m)
    return rep.passed, ["%s census over %d rows: %s"
                        % (m.kind, m.order,
                           "pass" if rep.passed else rep.message)]


def _write_all(files) -> None:
    """Write each (verb, path, text) or no file: all paths are opened for
    appending first, and if one fails the files that probe made go."""
    made = []
    try:
        for _, path, _ in files:
            new = not os.path.lexists(path)
            open(path, "a").close()
            if new:
                made.append(path)
    except OSError:
        for path in made:
            os.remove(path)
        raise
    for _, path, text in files:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError("must be finite and >= 0, got %s"
                                         % text)
    return tol


def _cmd_construct(args) -> int:
    if not 1 <= args.order <= MAX_CONSTRUCT_ORDER:
        raise CliError("order must be in 1..%d, got %d"
                       % (MAX_CONSTRUCT_ORDER, args.order))
    if args.render and not args.render.endswith((".svg", ".pgm")):
        raise CliError("render target must end in .svg or .pgm")
    builder = _CONSTRUCTORS[args.method]
    m = builder(args.order)
    ok, _ = _verify_any(m, strict=False, tolerance=VERIFY_TOL)
    text = serialize_matrix(m)
    files = [("wrote", args.out, text)] if args.out else []
    if args.render:
        files.append(("rendered", args.render, render(m, args.render[-3:])))
    _write_all(files)
    if not args.out:
        sys.stdout.write(text)
    for verb, path, _ in files:
        print("%s %s" % (verb, path))
    if not ok:
        print("constructed matrix failed verification", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    try:
        m = load_matrix(args.file)
    except FileNotFoundError:
        raise CliError("no such file: %s" % args.file)
    except ParseError as exc:
        raise CliError("cannot parse %s: %s" % (args.file, exc))
    ok, lines = _verify_any(m, args.strict, args.tolerance)
    for ln in lines:
        print(ln)
    return 0 if ok else 1


def _cmd_catalog(args) -> int:
    report = catalog_table(args.max)
    if args.format == "structured":
        doc = catalog_structured(report)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        sys.stdout.write(format_catalog_text(report, show_diff=args.diff))
    return 0


def _cmd_bounds(args) -> int:
    b = det_bounds(args.order)
    print("order %d" % b.order)
    for name in ("hadamard", "barba", "brent_osborn", "wojtas"):
        exact, value, log = (getattr(b, "%s_%s" % (name, field))
                             for field in ("exact", "value", "log"))
        if log is None:
            continue
        if exact is not None:
            text = "%d (log %.6f)" % (exact, log)
        elif value is not None:
            text = "%.6g (log %.6f)" % (value, log)
        else:
            text = "exp(%.6f)" % log
        print("%-13s %s" % (name.replace("_", "-"), text))
    return 0


def _cmd_designs(args) -> int:
    if args.action == "list":
        for v, k, lam, fam, kw in DESIGN_REGISTRY:
            detail = " ".join("%s=%s" % (a, b) for a, b in sorted(kw.items()))
            print("(%d, %d, %d)  %-12s %s" % (v, k, lam, fam, detail))
        return 0
    # make
    if not args.family:
        raise CliError("designs make needs --family")
    p = args.params or []
    try:
        if args.family == "qr":
            if len(p) != 1:
                raise CliError("qr takes one parameter: q")
            ds = qr_difference_set(p[0])
        elif args.family == "biquadratic":
            if len(p) not in (1, 2) or p[1:] not in ([], [0], [1]):
                raise CliError("biquadratic takes p [with_zero], "
                               "with_zero 0 or 1")
            ds = biquadratic_difference_set(p[0], p[1:] == [1])
        else:  # singer, the last of the parser's choices
            if len(p) != 2:
                raise CliError("singer takes n q")
            ds = singer_difference_set(p[0], p[1])
    except NotADifferenceSet as exc:
        print("census failed: %s" % exc, file=sys.stderr)
        return 1
    print("group %s" % ds.group)
    print("params (%d, %d, %d)" % ds.params)
    print("elements %s" % " ".join(str(e) for e in ds.elements))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: the choices of
    --method are the keys of _CONSTRUCTORS, and a subcommand's builder is
    looked up when it runs, so a patched builder is still the one used."""
    ap = argparse.ArgumentParser(
        prog="cretan",
        description="Construct, verify, and catalog Cretan matrices.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a matrix")
    c.add_argument("--order", type=int, required=True)
    c.add_argument("--method", choices=sorted(_CONSTRUCTORS),
                   default="auto")
    c.add_argument("--out", help="write the matrix file here")
    c.add_argument("--render", help="write an .svg or .pgm heatmap")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="check a matrix file")
    v.add_argument("file")
    v.add_argument("--strict", action="store_true",
                   help="require a unit entry in every row and column")
    v.add_argument("--tolerance", type=_tolerance, default=VERIFY_TOL)
    v.set_defaults(func=_cmd_verify)

    k = sub.add_parser("catalog", help="best known constructions per order")
    k.add_argument("--max", type=int, default=199)
    k.add_argument("--diff", action="store_true",
                   help="include the published-table diff")
    k.add_argument("--format", choices=("text", "structured"),
                   default="text")
    k.set_defaults(func=_cmd_catalog)

    b = sub.add_parser("bounds", help="determinant bounds for an order")
    b.add_argument("order", type=int)
    b.set_defaults(func=_cmd_bounds)

    d = sub.add_parser("designs", help="difference-set families")
    d.add_argument("action", choices=("list", "make"))
    d.add_argument("--family", choices=("qr", "biquadratic", "singer"))
    d.add_argument("--params", type=int, nargs="*")
    d.set_defaults(func=_cmd_designs)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (MissingFixture, NoConstructionAvailable) as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except (CliError, ValueError, MemoryError, OSError) as exc:
        print(str(exc) or type(exc).__name__, file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
