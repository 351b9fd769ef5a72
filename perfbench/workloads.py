"""The three benchmark workloads.

Each workload has `ops` operations per round, a `setup` that builds the
inputs (not timed), a `run` that is timed, and a `check` that tests the
outputs with the package-independent checks in checks.py.  check returns
(failed operations, errors).  The inputs are fixed: every order, design
and field below is named, so there is nothing to draw from a seed.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import checks

# orders 3, 5, ..., CATALOG_MAX; see README for why not 199
CATALOG_MAX = 119
# exact Gram check in sympy on the orders up to this one
SYMPY_MAX_ORDER = 13
# the order-459 product has tau = 4, like the order-999 one (27 x 37)
ROUNDTRIP_FACTORS = (27, 17)
BORDER_DESIGN = (197, 49, 12)
GH_FIELDS = ((2, 7), (3, 4))


class CatalogSweep:
    """`cretan catalog --max CATALOG_MAX --diff`, run in-process."""

    ops = (CATALOG_MAX - 3) // 2 + 1

    def setup(self, workdir):
        return None

    def run(self, state):
        from cretan import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["catalog", "--max", str(CATALOG_MAX), "--diff"])
        return code, buf.getvalue()

    def check(self, state, result):
        from cretan.catalog import construct_best

        code, text = result
        errors = []
        if code != 0:
            errors.append("catalog exited %d" % code)
        conflicts = checks.diff_conflicts(text)
        if conflicts != 0:
            errors.append("diff reports %r conflicts" % conflicts)
        failed = 0
        for v in range(3, CATALOG_MAX + 1, 2):
            # memoized: returns the entry the sweep already built
            best = construct_best(v).best
            if best is None:
                failed += 1
                continue
            S, label = best.matrix, "order %d" % v
            omega = checks.float_value(S.omega)
            errors += checks.check_cretan_float(checks.float_matrix(S),
                                                omega, label)
            errors += checks.check_barba(v, omega, label)
            if v <= SYMPY_MAX_ORDER:
                errors += checks.check_gram_sympy(S, label)
        return failed, errors


class RoundTrip:
    """Write a Kronecker product and a bordered matrix with
    files.save_matrix and verify each file with `cretan verify`."""

    ops = 2

    def setup(self, workdir):
        from cretan import files
        from cretan.catalog import construct_best
        from cretan.constructions import bordered_solver, kronecker_cretan
        from cretan.designs import build_family, registered_designs

        a, b = (construct_best(v).best.matrix for v in ROUNDTRIP_FACTORS)
        row = [r for r in registered_designs(BORDER_DESIGN[0])
               if r[:3] == BORDER_DESIGN][0]
        design = build_family(row[3], **row[4]).develop()
        bordered = max(bordered_solver(design),
                       key=lambda m: checks.float_value(m.omega))
        parsed = []
        parse = files.parse_matrix

        def capture(text):
            m = parse(text)
            parsed.append(m)
            return m

        # files.load_matrix reads files.parse_matrix at call time
        files.parse_matrix = capture
        return {"factors": (a, b), "parsed": parsed, "workdir": workdir,
                "matrices": (("kronecker", kronecker_cretan(a, b)),
                             ("bordered", bordered))}

    def run(self, state):
        from cretan import cli, files

        out = []
        for name, m in state["matrices"]:
            path = state["workdir"] / ("%s.txt" % name)
            files.save_matrix(m, path)
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(["verify", str(path)])
            out.append((code, buf.getvalue()))
        return out

    def check(self, state, result):
        errors = []
        failed = 0
        parsed = state["parsed"]
        if len(parsed) != len(result):
            return len(result), ["verify parsed %d of %d files"
                                 % (len(parsed), len(result))]
        for (name, m), (code, text), p in zip(state["matrices"], result,
                                               parsed):
            if code != 0:
                failed += 1
                continue
            errors += checks.check_same_matrix(m, p, name)
            omega = checks.float_value(p.omega)
            errors += checks.check_cretan_float(checks.float_matrix(p),
                                                omega, name)
            gram = [ln.split()[1:] for ln in text.splitlines()
                    if ln.startswith("gram ")]
            if name == "kronecker" and gram != [["exact", "zero"]]:
                errors.append("kronecker: verify did not certify exactly")
        a, b = state["factors"]
        want = checks.exact_product(checks.exact_value(a.omega),
                                    checks.exact_value(b.omega))
        if checks.exact_value(parsed[0].omega) != want:
            errors.append("kronecker: omega is not omega(A) omega(B)")
        return failed, errors


class GHFields:
    """gh_from_field for each field; serialize, parse back, census."""

    ops = len(GH_FIELDS)

    def setup(self, workdir):
        return None

    def run(self, state):
        from cretan.constructions import (gh_from_field,
                                          group_orthogonality_check)
        from cretan.files import parse_matrix, serialize_matrix

        out = []
        for p, k in GH_FIELDS:
            G = gh_from_field(p, k)
            back = parse_matrix(serialize_matrix(G))
            out.append((p, k, G, back, group_orthogonality_check(back)))
        return out

    def check(self, state, result):
        errors = []
        for p, k, G, back, census in result:
            label = "GF(%d^%d)" % (p, k)
            if back.entries.shape != (p ** k, p ** k) \
                    or back.group_order != p:
                errors.append("%s: wrong shape or group" % label)
                continue
            if not (back.entries == G.entries).all():
                errors.append("%s: parsed exponents differ" % label)
            if not census.passed:
                errors.append("%s: census failed: %s"
                              % (label, census.message))
            errors += checks.check_gh(back.entries, p, label)
        return 0, errors


WORKLOADS = {
    "catalog-119": CatalogSweep(),
    "roundtrip-459": RoundTrip(),
    "gh-fields": GHFields(),
}
