"""Line-based text format for matrices.

One file holds one matrix.  The first line is a magic-plus-version
marker, `cretan-matrix 2`, then `key value` header lines, then an
`entries` marker and the grid, one row per line.  The last header line,
`levels`, lists each distinct entry token once, separated by spaces; the
position of a token is its code.  Each entry row is its entries' codes
as fixed-width decimal digits with no separators, the width being the
number of digits of (number of tokens - 1):

    cretan-matrix 2
    mode exact
    order 2
    tau 2
    omega 1
    method identity
    levels 0 1
    entries
    10
    01

Exact scalars use the scalar grammar, so exact matrices round-trip
bit-for-bit; complex tokens are `re,im` pairs, one per bit pattern with
every nan taken as one (`repr` writes no nan sign), and group-matrix
tokens are exponents with a star for the empty cell.  Every token on the
`levels` line is used by some entry.

`cretan-matrix 1` files, which have no `levels` line and write each
entry as its token, space separated, are still read.
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

MATRIX_MAGIC = "cretan-matrix 2"
V1_MAGIC = "cretan-matrix 1"
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
    """The magic line and the header lines."""
    return [MATRIX_MAGIC] + ["%s %s" % (k, v) for k, v in pairs]


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
    # one token per bit pattern: by value, -0.0 would merge into 0.0;
    # repr writes every nan as `nan`, so each nan is made the same one
    e = np.array(m.entries, dtype=np.complex128, order="C")
    e.real[np.isnan(e.real)] = np.nan
    e.imag[np.isnan(e.imag)] = np.nan
    distinct, codes = np.unique(e.view("V16"), return_inverse=True)
    toks = ("%r,%r" % (float(z.real), float(z.imag))
            for z in distinct.view(np.complex128))
    return _with_rows(_header(pairs), toks, codes.reshape(m.order, m.order))


def _serialize_group(m: GroupMatrix) -> str:
    pairs = [("mode", "group"), ("order", m.order), ("kind", m.kind),
             ("group-order", m.group_order), ("weight", m.weight)]
    distinct, codes = np.unique(m.entries, return_inverse=True)
    toks = (STAR_TOKEN if x == STAR else str(x) for x in distinct.tolist())
    return _with_rows(_header(pairs), toks, codes.reshape(m.order, m.order))


def _with_rows(lines: list, tokens, m) -> str:
    """The header lines, the levels line of tokens, the entries marker
    and one line per row of m, a grid of codes or a LevelMatrix, whose
    code c is written as c in fixed-width digits; each line is ended by
    a newline and joined once."""
    tokens = list(tokens)
    width = len(str(len(tokens) - 1))
    lines += ["levels " + " ".join(tokens), "entries"]
    table = np.array(["%0*d" % (width, c) for c in range(len(tokens))],
                     dtype=object)
    lines += _rows(table, m)
    lines.append("")
    return "\n".join(lines)


def _rows(table: np.ndarray, m) -> list:
    """The rows of m, code c written as table[c].  A factored product
    A (x) B is written from its factors and its grid is not built: row
    (i, k) joins, for each level u of row i of A, row k of B written with
    the codes of the level pairs (u, w), which are made once per u."""
    if isinstance(m, LevelMatrix):
        if m.factors is None:
            return _rows(table, m.grid)
        A, B, pairs = m.factors
        tb = B.tau
        right = [_rows(table[pairs[u * tb:(u + 1) * tb]], B)
                 for u in range(A.tau)]
        return ["".join([right[u][k] for u in row])
                for row in A.grid.tolist() for k in range(B.order)]
    return ["".join(table[row].tolist()) for row in m]


def parse_matrix(text: str):
    """Inverse of serialize_matrix; reads `cretan-matrix 1` files too.
    Raises ParseError with the offending line number; the magic line is
    checked first."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    if lines[0] not in (MATRIX_MAGIC, V1_MAGIC):
        raise ParseError("unsupported format marker %r" % lines[0][:40], 1)
    header = _Header(lines[0] == V1_MAGIC)
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

    def __init__(self, v1: bool):
        super().__init__()
        self.lines: dict = {}
        self.end = 0             # the entries marker's line
        self.v1 = v1             # a cretan-matrix 1 file

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


def _read(header, rows, body_at, order, decode, check=None) -> tuple:
    """(values, codes) of the entry rows of a matrix file, with
    entry (i, j) = values[codes[i, j]] and each distinct token decoded
    once.  check(text, line) sees each text that holds tokens before
    they are decoded: the levels line, or each row of a v1 file."""
    if header.v1:
        return _read_rows(rows, body_at, order, decode, check)
    return _read_table(header, rows, body_at, order, decode, check)


def _read_table(header, rows, body_at, order, decode, check) -> tuple:
    """_read for a v2 file: the levels line decoded token by token, the
    digit rows turned into codes in one array step."""
    at = header.line("levels")
    if "levels" not in header:
        raise ParseError("missing levels line", at)
    toks = header["levels"].split()
    if not toks:
        raise ParseError("empty levels line", at)
    if check:
        check(header["levels"], at)
    values = []
    for t in toks:
        try:
            values.append(decode(t))
        except ValueError as exc:
            raise ParseError(str(exc), at)
    width = len(str(len(toks) - 1))
    size = order * width
    for i, row in enumerate(rows):
        # str.isdigit takes other scripts' digits and is slower than
        # bytes.isdigit, which takes ASCII digits only; isascii first,
        # since a lone surrogate has no encoding
        if not (len(row) == size and row.isascii()
                and row.encode().isdigit()):
            raise ParseError("expected %d codes of %d ASCII digits each"
                             % (order, width), body_at + 1 + i)
    digits = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8) \
        - np.uint8(ord("0"))
    digits = digits.reshape(order, order, width)
    # fewer than 10^9 tokens fit in memory, so codes fit in int32
    codes = digits[:, :, 0].astype(np.int32)
    for k in range(1, width):
        codes *= 10
        codes += digits[:, :, k]
    past = np.flatnonzero((codes >= len(toks)).any(axis=1))
    if past.size:
        raise ParseError("code past the %d-entry levels table" % len(toks),
                         body_at + 1 + int(past[0]))
    unused = np.flatnonzero(np.bincount(codes.ravel(),
                                        minlength=len(toks)) == 0)
    if unused.size:
        raise ParseError("levels token %r is used by no entry"
                         % toks[unused[0]], at)
    return values, codes


def _tokens(row: str, order: int, line: int) -> list:
    toks = row.split()
    if len(toks) != order:
        raise ParseError("expected %d entries, found %d"
                         % (order, len(toks)), line)
    return toks


def _read_rows(rows, body_at, order, decode, check_row=None) -> tuple:
    """_read for a v1 file: each distinct token is decoded once, on its
    first line; check_row(row, line) sees each row first."""
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
    # FloatLevel equals no Scalar); this names its line ('f' is in no
    # exact token)
    def no_float(text, line):
        if "f" in text:
            raise ParseError("float entry in a mode exact file", line)

    values, codes = _read(header, rows, body_at, order, parse_scalar,
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

    values, codes = _read(header, rows, body_at, order, decode)
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

    values, codes = _read(header, rows, body_at, order, decode)
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
