"""Line-based text format for matrices.

One file holds one matrix.  The first line is a magic-plus-version
marker, then `key value` header lines, then an `entries` marker and the
grid, one row per line.  Exact scalars use the scalar grammar, so exact
matrices round-trip bit-for-bit; complex entries are `re,im` pairs and
group-matrix entries are exponents with a star for the empty cell.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cretan.constructions import (
    STAR,
    ComplexLevelMatrix,
    GroupMatrix,
    LevelMatrix,
    from_codes,
)
from cretan.scalar import format_scalar, parse_float, parse_int, parse_scalar

MATRIX_MAGIC = "cretan-matrix 1"
STAR_TOKEN = "⋆"


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


def serialize_matrix(m) -> str:
    if isinstance(m, LevelMatrix):
        return _serialize_level(m)
    if isinstance(m, ComplexLevelMatrix):
        return _serialize_complex(m)
    if isinstance(m, GroupMatrix):
        return _serialize_group(m)
    raise TypeError("cannot serialize %r" % type(m).__name__)


def _header(pairs) -> list:
    """The magic line, the header lines and the entries marker."""
    return [MATRIX_MAGIC] + ["%s %s" % (k, v) for k, v in pairs] + ["entries"]


def _serialize_level(m: LevelMatrix) -> str:
    pairs = [("mode", m.mode), ("order", m.order), ("tau", m.tau),
             ("omega", format_scalar(m.omega)), ("method", m.method)]
    pairs += [("param %s" % k, m.params[k]) for k in sorted(m.params)]
    pairs += [("note", n) for n in m.notes]
    return _with_rows(_header(pairs), map(format_scalar, m.levels), m)


def _serialize_complex(m: ComplexLevelMatrix) -> str:
    pairs = [("mode", "complex"), ("order", m.order),
             ("omega", repr(float(m.omega))), ("method", m.method)]
    pairs += [("param %s" % k, m.params[k]) for k in sorted(m.params)]
    # one token per bit pattern: by value, -0.0 would merge into 0.0
    bits = np.ascontiguousarray(m.entries, dtype=np.complex128).view("V16")
    distinct, codes = np.unique(bits, return_inverse=True)
    toks = ("%r,%r" % (float(z.real), float(z.imag))
            for z in distinct.view(np.complex128))
    return _with_rows(_header(pairs), toks, codes.reshape(m.order, m.order))


def _serialize_group(m: GroupMatrix) -> str:
    pairs = [("mode", "group"), ("order", m.order), ("kind", m.kind),
             ("group-order", m.group_order), ("weight", m.weight)]
    # code x - lo is entry x; the offset keeps a negative entry from
    # indexing the table from its end
    lo, hi = int(m.entries.min()), int(m.entries.max())
    toks = (STAR_TOKEN if x == STAR else str(x) for x in range(lo, hi + 1))
    return _with_rows(_header(pairs), toks, m.entries.astype(np.intp) - lo)


def _with_rows(lines: list, tokens, m) -> str:
    """The header lines and one line per row of m, a grid of codes or a
    LevelMatrix, whose code c is written as the c-th of tokens, each
    line ended by a newline and joined once; each token is formatted
    once."""
    lines += _rows(np.array(list(tokens), dtype=object), m)
    lines.append("")
    return "\n".join(lines)


def _rows(table: np.ndarray, m) -> list:
    """The rows of m, code c written as table[c].  A factored product
    A (x) B is written from its factors and its grid is not built: row
    (i, k) joins, for each level u of row i of A, row k of B written with
    the tokens of the level pairs (u, w), which are made once per u."""
    if isinstance(m, LevelMatrix):
        if m.factors is None:
            return _rows(table, m.grid)
        A, B, pairs = m.factors
        tb = B.tau
        right = [_rows(table[pairs[u * tb:(u + 1) * tb]], B)
                 for u in range(A.tau)]
        return [" ".join([right[u][k] for u in row])
                for row in A.grid.tolist() for k in range(B.order)]
    return [" ".join(table[row].tolist()) for row in m]


def parse_matrix(text: str):
    """Inverse of serialize_matrix.  Raises ParseError with the offending
    line number; the magic line is checked first."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    if lines[0] != MATRIX_MAGIC:
        raise ParseError("unsupported format marker %r" % lines[0][:40], 1)
    header = _Header()
    params: dict = {}
    notes: list = []
    body_at = None
    for idx, ln in enumerate(lines[1:], start=2):
        if ln == "entries":
            body_at = idx
            break
        key, _, rest = ln.partition(" ")
        if key == "param":
            pk, _, pv = rest.partition(" ")
            if pk in params:
                raise ParseError("repeated param %s" % pk, idx)
            params[pk] = pv
        elif key == "note":
            notes.append(rest)
        elif key in header:
            raise ParseError("repeated %s header" % key, idx)
        elif key:
            header[key] = rest
            header.lines[key] = idx
        else:
            raise ParseError("blank header line", idx)
    if body_at is None:
        raise ParseError("missing entries marker", len(lines))
    header.end = body_at
    mode = header.get("mode")
    if mode not in ("exact", "float", "complex", "group"):
        raise ParseError("unknown mode %r" % mode, header.line("mode"))
    order = header.integer("order")
    if order < 1:
        raise ParseError("order must be positive, got %d" % order,
                         header.line("order"))
    rows = lines[body_at:]
    if len(rows) != order:
        raise ParseError("expected %d entry rows, found %d"
                         % (order, len(rows)), body_at + 1)
    if mode in ("exact", "float"):
        return _parse_level(header, params, notes, rows, body_at, order)
    if mode == "complex":
        return _parse_complex(header, params, rows, body_at, order)
    return _parse_group(header, rows, body_at, order)


class _Header(dict):
    """Header values by key, with the line each came from."""

    def __init__(self):
        super().__init__()
        self.lines: dict = {}
        self.end = 0             # the entries marker's line

    def line(self, key: str) -> int:
        """The key's own line; a missing key is reported at the entries
        marker, where the header ended without it."""
        return self.lines.get(key, self.end)

    def integer(self, key: str, default: str | None = None) -> int:
        try:
            return parse_int(self.get(key, default) or "")
        except ValueError:
            raise ParseError("missing or bad %s header" % key,
                             self.line(key))


def _tokens(row: str, order: int, line: int) -> list:
    toks = row.split()
    if len(toks) != order:
        raise ParseError("expected %d entries, found %d"
                         % (order, len(toks)), line)
    return toks


def _read_rows(rows, body_at, order, decode, check_row=None) -> tuple:
    """(values, codes) of the entry rows of a matrix file, with
    entry (i, j) = values[codes[i, j]].  Each distinct token is decoded
    once, on its first line; check_row(row, line) sees each row first."""
    ids: dict = {}
    values = []
    codes = np.empty((order, order), dtype=np.int32)
    for i, row in enumerate(rows):
        line = body_at + 1 + i
        if check_row:
            check_row(row, line)
        toks = _tokens(row, order, line)
        try:
            codes[i] = np.fromiter(map(ids.__getitem__, toks), np.int32, order)
        except KeyError:
            # the row holds a new token: decode each new one in row order
            for t in toks:
                if t not in ids:
                    try:
                        values.append(decode(t))
                    except ValueError as exc:
                        raise ParseError(str(exc), line)
                    ids[t] = len(ids)
            codes[i] = np.fromiter(map(ids.__getitem__, toks), np.int32, order)
    return values, codes


def _parse_level(header, params, notes, rows, body_at, order):
    try:
        omega = parse_scalar(header["omega"])
    except (KeyError, ValueError):
        raise ParseError("missing or bad omega header", header.line("omega"))
    # the mode check below refuses a float token in an exact file too (a
    # FloatLevel equals no Scalar); this names its row ('f' is in no
    # exact token)
    def no_float(row, line):
        if "f" in row:
            raise ParseError("float entry in a mode exact file", line)

    values, codes = _read_rows(rows, body_at, order, parse_scalar,
                               no_float if header["mode"] == "exact" else None)
    try:
        m = from_codes(values, codes, omega, header.get("method", ""),
                       params, tuple(notes))
    except ValueError as exc:
        raise ParseError(str(exc), body_at)
    if m.mode != header["mode"]:
        raise ParseError("header says mode %s, but the entries and omega "
                         "are %s" % (header["mode"], m.mode),
                         header.line("mode"))
    if "tau" in header and header.integer("tau") != m.tau:
        raise ParseError("header says tau %s, but the entries take %d "
                         "values" % (header["tau"], m.tau),
                         header.line("tau"))
    return m


def _parse_complex(header, params, rows, body_at, order):
    def decode(t):
        real, sep, imag = t.partition(",")
        if not sep:
            raise ValueError("expected re,im pair, got %r" % t)
        try:
            return complex(parse_float(real), parse_float(imag))
        except ValueError:
            raise ValueError("bad complex entry %r" % t) from None

    values, codes = _read_rows(rows, body_at, order, decode)
    entries = np.array(values, dtype=np.complex128)[codes]
    try:
        omega = parse_float(header["omega"])
    except (KeyError, ValueError):
        raise ParseError("missing or bad omega header", header.line("omega"))
    return ComplexLevelMatrix(order, entries, omega,
                              header.get("method", ""), params)


def _parse_group(header, rows, body_at, order):
    g = header.integer("group-order")
    weight = header.integer("weight", "0")
    # entries are int16 with STAR = -1
    if not 1 <= g <= np.iinfo(np.int16).max:
        raise ParseError("group order %d out of range" % g,
                         header.line("group-order"))
    kind = header.get("kind", "GH")
    if kind not in ("GH", "GW"):
        raise ParseError("kind must be GH or GW", header.line("kind"))

    def decode(t):
        if t in (STAR_TOKEN, "*"):
            return STAR
        try:
            val = parse_int(t)
        except ValueError:
            raise ValueError("bad group entry %r" % t)
        if not 0 <= val < g:
            raise ValueError("entry %d outside group of order %d" % (val, g))
        return val

    values, codes = _read_rows(rows, body_at, order, decode)
    return GroupMatrix(order, g, np.array(values, dtype=np.int16)[codes],
                       kind, weight)


def save_matrix(m, path) -> None:
    """Write m to path; a matrix that cannot be serialized leaves an
    existing file as it was."""
    text = serialize_matrix(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_matrix(path):
    """Parse a matrix file; bytes that are not UTF-8 raise ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("not UTF-8 text: %s" % exc) from None
    return parse_matrix(text)


def serialize_certificate(cert) -> str:
    """Verification certificate as a stable structured report."""
    doc = {k: getattr(cert, k) for k in (
        "order", "tau", "mode", "gram_exact", "gram_path", "max_offdiag",
        "moduli_ok", "omega_claim_ok", "strict", "relaxed", "method")}
    doc["radius"] = format_scalar(cert.omega)
    doc["radius_float"] = cert.omega.to_float()
    doc["det"] = {"residual": cert.det.residual,
                  "exact": cert.det.exact_zero,
                  "log_abs_det": cert.det.log_abs_det}
    doc["bounds"] = {k: getattr(cert.bounds, k) for k in (
        "hadamard_log", "barba_log", "wojtas_log", "brent_osborn_log")}
    # JSON has no nan or inf (log |det| of a singular matrix is -inf)
    for part in (doc, doc["det"], doc["bounds"]):
        for k, v in part.items():
            if isinstance(v, float) and not math.isfinite(v):
                part[k] = None
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
