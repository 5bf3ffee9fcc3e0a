"""Command-line surface: tabulate symbols, export matrices, run the verifier.

Subcommands
-----------
tabulate-cg        coupling coefficients (j1 j2 alpha1 alpha2 | j alpha; r)
tabulate-fbar      the symmetric 3-symbols fbar(j1 j2 j3; alpha1 alpha2 alpha3)
tabulate-standard  exact m-scheme symbols (cg | threejm | sixj)
export-ops         generator matrices on one multiplet as JSON/CSV
verify             run every invariant suite and emit a pass/fail report

Complex numbers serialize as [re, im]; half-integers as reduced strings
("3/2", "2"). Table rows ascend by label tuple: blocks are built in order
of their fixed labels (j, then r; a repeated --r is refused) and each is
written in C order of its axes (s, so alpha = -j r + s, or m ascending);
alphas that round to one float keep s order. CSV output adds magnitude
and phase columns. tabulate-standard takes its cg and threejm tables from
one exact binomial sum per triad (standard_wra.symbol_table). Each command
builds one document in the shape that is written (a table's rows are its
blocks, verify's the row dicts of verify.run_suites), and emit streams its
text chunks to stdout or --output. Table rows in both formats, and export-ops
CSV, come from one text template per block; an export-ops matrix in JSON (a
matrix is the only array the JSON writer takes) is written row by row, with
its zero pair's text made once. JSON is byte for byte what json.dump with a
two-space indent writes, except that a non-finite float (a failing verify
residual) is null, and CSV what csv.writer writes. A job is refused (bad or
missing flags, non-finite values, over MAX_ROWS rows, an --r at which an
alpha label overflows) before any byte is written: a block refuses a
non-finite value when it is made, and export-ops builds and checks every
r's operators first, then builds them again one r at a time as it writes,
so that it holds one r's matrices at a time. A config file in key = value
form may set any subcommand's long flags; each reads its own, other keys
are refused, and explicit flags win.
Exit status: 0 success, 1 verification failure, 2 bad arguments, 74 a failed
write to stdout or --output (EX_IOERR), 141 stdout or an --output FIFO closed
by its reader before the output was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import stat
import sys
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .halfint import HalfInt, coupled_j_values, m_values
from .nonstandard import alpha_labels, cg_nonstandard_tensor, fbar_tensor
from .quon import MAX_K
from .standard_wra import sixj, symbol_table
from .su2gen import SpinSpace, build_spin_ops
from .verify import VerifyConfig, report_dict, run_suites

MAX_TWICE_J = 128
# the most rows one table or export may have; a larger job exits 2 before any work
MAX_ROWS = 500_000


class ConfigError(ValueError):
    """Bad flag/config-file input; maps to exit status 2."""


def parse_half(text: str, flag: str = "--j") -> HalfInt:
    try:
        value = HalfInt.parse(text)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    if value.twice < 0 or value.twice > MAX_TWICE_J:
        raise ConfigError(f"{flag}: j = {text} outside the supported range [0, {MAX_TWICE_J}/2]")
    return value


def parse_r_list(text: str) -> tuple[float, ...]:
    """Comma-separated r values, each a finite decimal or a rational p/q; a repeat is refused."""
    values: dict[float, str] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            value = float(Fraction(piece))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ConfigError(
                f"--r: cannot parse {piece!r} as a finite decimal or p/q") from None
        if value in values:
            raise ConfigError(f"--r: {piece!r} repeats {values[value]!r}, both r = {value!r}")
        values[value] = piece
    if not values:
        raise ConfigError("--r: empty list")
    return tuple(values)


def parse_k_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers in [2, MAX_K]; an item may be a span like 2-8.

    Both ends of a span are checked before it is expanded, and a k given
    twice is refused.
    """
    values: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            if "-" in piece.lstrip("-"):
                lo_text, hi_text = piece.split("-", 1)
                lo, hi = int(lo_text), int(hi_text)
            else:
                lo = hi = int(piece)
        except ValueError:
            raise ConfigError(f"--k: cannot parse {piece!r}") from None
        for bound in (lo, hi):
            if not 2 <= bound <= MAX_K:
                raise ConfigError(f"--k: {bound} in {piece!r} is outside [2, {MAX_K}]")
        if lo > hi:
            raise ConfigError(f"--k: span {piece!r} is empty")
        for k in range(lo, hi + 1):
            if k in values:
                raise ConfigError(f"--k: {k} is given more than once in {text!r}")
            values.append(k)
    if not values:
        raise ConfigError("--k: empty list")
    return tuple(values)


def parse_tol(text: str) -> float:
    """A positive, finite tolerance; inf would pass every check."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"--tol: cannot parse {text!r}") from None
    if not 0 < value < math.inf:
        raise ConfigError(f"--tol: {text!r} is not a positive finite number")
    return value


def read_config_file(path: str, keys: frozenset[str] | None = None) -> dict[str, str]:
    """key = value lines of path; a repeated key, and with keys given any other key, is refused."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = (part.strip() for part in line.partition("="))
                if keys is not None and key not in keys:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; "
                                      f"keys are the long flags: {', '.join(sorted(keys))}")
                if key in out:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} is already set "
                                      f"on line {first_line[key]}")
                out[key] = value
                first_line[key] = lineno
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not UTF-8 text: {exc}") from None
    return out


@dataclass
class JobConfig:
    """Fully resolved job: one subcommand plus its validated inputs."""

    command: str
    j1: HalfInt | None = None
    j2: HalfInt | None = None
    j3: HalfInt | None = None
    j: HalfInt | None = None
    sixj_labels: tuple[HalfInt, ...] = ()
    symbol: str = "cg"
    # a given --r is written here and into verify.r_values, so each default lives with its user
    r_values: tuple[float, ...] = (0.0,)
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    fmt: str = "json"
    output: str | None = None


# ---------------------------------------------------------------------------
# symbol tables. A block is one value tensor with its fixed label texts and
# one axis of label texts per tensor index, each in the order rows are written.


def _alpha_axis(space: SpinSpace) -> tuple[str, ...]:
    return tuple(repr(label.alpha) for label in alpha_labels(space))


@dataclass(frozen=True)
class _Block:
    fixed: tuple[str, ...]
    axes: tuple[tuple[str, ...], ...]
    values: np.ndarray  # C order over the axes
    exact: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.values).all():
            raise ValueError("symbol value must be finite")


def _check_rows(job: str, rows: int) -> None:
    if rows > MAX_ROWS:
        raise ConfigError(f"{job} would write {rows:,} rows, over the row cap of {MAX_ROWS:,}")


def _check_alphas(j: HalfInt, r_values: tuple[float, ...]) -> None:
    """Refuse an r at which an alpha label -j r + s of spin j, the job's largest, overflows."""
    for r in r_values:
        if not all(math.isfinite(label.alpha) for label in alpha_labels(SpinSpace(j, r))):
            raise ConfigError(f"--r: r = {r!r} makes the alpha labels of j = {j} overflow")


def _build_table(config: JobConfig) -> dict:
    """The table as a document whose rows are its blocks; each writer expands them in C order."""
    j1, j2, j3, r_values = config.j1, config.j2, config.j3, config.r_values
    if config.command == "tabulate-cg":
        if j1 is None or j2 is None:
            raise ConfigError("tabulate-cg needs --j1 and --j2")
        _check_rows(f"tabulate-cg --j1 {j1} --j2 {j2} --r (n = {len(r_values)})",
                    len(r_values) * (j1.twice + 1) ** 2 * (j2.twice + 1) ** 2)
        _check_alphas(j1 + j2, r_values)
        blocks = []
        for j in coupled_j_values(j1, j2):
            for r in sorted(r_values):
                sp1, sp2, sp = SpinSpace(j1, r), SpinSpace(j2, r), SpinSpace(j, r)
                blocks.append(_Block(
                    (str(j1), str(j2), str(j), repr(float(r))),
                    (_alpha_axis(sp1), _alpha_axis(sp2), _alpha_axis(sp)),
                    cg_nonstandard_tensor(sp1, sp2, sp)))
        return {"columns": ["j1", "j2", "j", "r", "alpha1", "alpha2", "alpha"],
                "scheme": "nonstandard", "formula": "cg", "rows": blocks}
    if config.command == "tabulate-fbar":
        if j1 is None or j2 is None or j3 is None:
            raise ConfigError("tabulate-fbar needs --j1, --j2 and --j3")
        _check_rows(f"tabulate-fbar --j1 {j1} --j2 {j2} --j3 {j3} --r (n = {len(r_values)})",
                    len(r_values) * (j1.twice + 1) * (j2.twice + 1) * (j3.twice + 1))
        _check_alphas(max(j1, j2, j3, key=float), r_values)
        blocks = []
        for r in sorted(r_values):
            spaces = (SpinSpace(j1, r), SpinSpace(j2, r), SpinSpace(j3, r))
            blocks.append(_Block(
                (str(j1), str(j2), str(j3), repr(float(r))),
                tuple(_alpha_axis(sp) for sp in spaces),
                fbar_tensor(*spaces)))
        return {"columns": ["j1", "j2", "j3", "r", "alpha1", "alpha2", "alpha3"],
                "scheme": "nonstandard", "formula": "fbar", "rows": blocks}

    if config.symbol == "sixj":
        if len(config.sixj_labels) != 6:
            raise ConfigError("tabulate-standard --symbol sixj needs --labels with six entries")
        value = sixj(*config.sixj_labels)
        block = _Block(tuple(map(str, config.sixj_labels)), (),
                       np.array(float(value)), (str(value),))
        return {"columns": ["j1", "j2", "j3", "j4", "j5", "j6"],
                "scheme": "standard", "formula": "sixj", "rows": [block]}
    if config.symbol == "cg":
        if j1 is None or j2 is None or config.j is None:
            raise ConfigError("tabulate-standard --symbol cg needs --j1, --j2 and --j")
        spins, columns = (j1, j2, config.j), ["j1", "j2", "j", "m1", "m2", "m"]
    elif config.symbol == "threejm":
        if j1 is None or j2 is None or j3 is None:
            raise ConfigError("tabulate-standard --symbol threejm needs --j1, --j2 and --j3")
        spins, columns = (j1, j2, j3), ["j1", "j2", "j3", "m1", "m2", "m3"]
    else:
        raise ConfigError(f"unknown symbol {config.symbol!r}; pick cg, threejm or sixj")
    _check_rows(f"tabulate-standard --symbol {config.symbol} "
                + " ".join(f"--{name} {spin}" for name, spin in zip(columns, spins)),
                math.prod(spin.twice + 1 for spin in spins))
    tensor, texts = symbol_table(config.symbol, *spins)
    axes = tuple(tuple(map(str, m_values(x))) for x in spins)
    block = _Block(tuple(map(str, spins)), axes, tensor, tuple(texts))
    return {"columns": columns, "scheme": "standard", "formula": config.symbol, "rows": [block]}


def _table_csv(document: dict) -> Iterator[str]:
    exact = ["exact"] if document["rows"][0].exact else []
    header = _csv_line(document["columns"] + ["re", "im", "magnitude", "phase"] + exact)
    return itertools.chain([header], *map(_csv_rows, document["rows"]))


@dataclass(frozen=True)
class _Export:
    """export-ops's item for one r, built each time a writer or the check reaches it, so that
    one r's six matrices are held at a time."""

    j: HalfInt
    r: float

    def operators(self) -> dict[str, np.ndarray]:
        ops = build_spin_ops(SpinSpace(self.j, self.r))
        return {"h": ops.h, "u_r": ops.u_r, "j_plus": ops.j_plus,
                "j_minus": ops.j_minus, "j3": ops.j3, "j_squared": ops.j_squared}

    def document(self) -> dict:
        space = SpinSpace(self.j, self.r)
        return {"j": str(self.j), "r": self.r, "basis_m": [str(m) for m in space.m_list],
                "alpha": [label.alpha for label in alpha_labels(space)],
                "operators": self.operators()}


def _export_ops_payload(config: JobConfig) -> dict:
    """The exports, one lazy item per r, once every r's operators are built and found finite."""
    if config.j is None:
        raise ConfigError("export-ops needs --j")
    n_r = len(config.r_values)
    _check_rows(f"export-ops --j {config.j} --r (n = {n_r})", n_r * 6 * (config.j.twice + 1) ** 2)
    _check_alphas(config.j, config.r_values)
    exports = [_Export(config.j, r) for r in config.r_values]
    for export in exports:
        # built, checked and dropped here, so that a refusal comes before any byte
        bad = [name for name, entries in export.operators().items()
               if not np.isfinite(entries).all()]
        if bad:
            raise ValueError(f"export-ops --j {config.j} --r {export.r!r}: "
                             f"operator {bad[0]} has a non-finite entry")
    return {"exports": exports}


def _export_ops_csv(payload: dict) -> Iterator[str]:
    """One CSV row per matrix entry: each operator is a block with fixed labels (j, r, name)."""
    yield _csv_line(["j", "r", "operator", "row", "col", "re", "im", "magnitude", "phase"])
    for export in payload["exports"]:
        yield from _export_csv_rows(export)


def _export_csv_rows(export: _Export) -> Iterator[str]:
    """One r's operators, in name order; they are dropped when the last row is written."""
    index = tuple(map(str, range(export.j.twice + 1)))
    for name, entries in sorted(export.operators().items()):
        yield from _csv_rows(_Block((str(export.j), repr(export.r), name), (index, index), entries))


def _verify_csv(report: dict) -> Iterator[str]:
    yield _csv_line(["check", "parameters", "residual", "tolerance", "pass"])
    for check in report["checks"]:
        yield _csv_line([check["check"], json.dumps(check["parameters"]),
                         repr(check["residual"]), repr(check["tolerance"]), str(check["pass"])])


# ---------------------------------------------------------------------------
# the writers: the bytes of json.dump with a two-space indent (which json serves
# only from its pure-Python encoder) and of csv.writer, from fixed text templates.

_quote = json.encoder.encode_basestring_ascii
# rows per chunk of table output, about 57 KB of tabulate-cg JSON. 2048 rows added 1-2 MB
# to the peak RSS of the table jobs; below 256 the peak hardly falls
_CHUNK_ROWS = 256


def _rows(block: _Block, template: str, separator: str, quote, columns) -> Iterator[str]:
    """A block's rows in chunks: its quoted labels, value columns and exact text in template."""
    labels = itertools.product(*([quote(text) for text in axis] for axis in block.axes))
    exact = map(quote, block.exact or ())
    values = np.asarray(block.values, dtype=complex).ravel()
    lead = ""
    for start in range(0, values.size, _CHUNK_ROWS):
        cells = columns(values[start:start + _CHUNK_ROWS])
        tails = zip(*cells, exact) if block.exact else zip(*cells)
        rows = map(tuple.__add__, itertools.islice(labels, _CHUNK_ROWS), tails)
        yield lead + separator.join(map(template.__mod__, rows))
        lead = separator


def _csv_columns(values: np.ndarray) -> tuple[list, ...]:
    """re, im, magnitude and phase; a zero value has phase 0.0, not atan2's +-pi. np.hypot is
    abs(complex) bit for bit (both call libm's hypot), but np.arctan2 is not math.atan2."""
    re, im = values.real.tolist(), values.imag.tolist()
    return (re, im, np.hypot(values.real, values.imag).tolist(),
            [math.atan2(y, x) if x or y else 0.0 for x, y in zip(re, im)])


def _csv_quote(text: str) -> str:
    """text as a cell of csv.writer's default dialect: quoted if it holds , " CR or LF."""
    special = "," in text or '"' in text or "\r" in text or "\n" in text
    return '"' + text.replace('"', '""') + '"' if special else text


def _csv_line(cells: list[str]) -> str:
    return ",".join(map(_csv_quote, cells)) + "\r\n"


def _csv_rows(block: _Block) -> Iterator[str]:
    """The rows of a block as CSV lines: labels, re, im, magnitude, phase[, exact]."""
    slots = [*map(_csv_quote, block.fixed), *["%s"] * len(block.axes), "%r", "%r", "%r", "%r"]
    template = ",".join(slots + ["%s"] * bool(block.exact)) + "\r\n"
    return _rows(block, template, "", _csv_quote, _csv_columns)


def _indent(level: int) -> str:
    return "\n" + "  " * level


def _json_chunks(value, level: int) -> Iterator[str]:
    """value as json.dump with a two-space indent writes it at nesting level, in chunks; a complex
    matrix is written as its rows of [re, im] pairs, a _Block as its rows, spliced in, and an
    _Export as the document it builds, which is dropped before the next list item is made."""
    if isinstance(value, str):
        yield _quote(value)
    elif isinstance(value, float) and not math.isfinite(value):
        yield "null"  # strict JSON has no NaN or Infinity; only a failing residual gets here
    elif value is None or isinstance(value, (int, float)):
        yield json.dumps(value)  # json's own spelling: true, null, 1e+20
    elif isinstance(value, np.ndarray):
        yield from _array_text(value, level)
    elif isinstance(value, _Block):
        yield from _block_rows(value, level)
    elif isinstance(value, _Export):
        yield from _json_chunks(value.document(), level)
    elif isinstance(value, (dict, list, tuple)):
        if not value:
            yield "{}" if isinstance(value, dict) else "[]"
            return
        separator = "," + _indent(level + 1)
        if isinstance(value, dict):
            lead = "{" + _indent(level + 1)
            for key, item in value.items():
                yield lead + _quote(key) + ": "
                yield from _json_chunks(item, level + 1)
                lead = separator
            yield _indent(level) + "}"
        else:
            lead = "[" + _indent(level + 1)
            for item in value:
                yield lead
                yield from _json_chunks(item, level + 1)
                lead = separator
            yield _indent(level) + "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _array_text(values: np.ndarray, level: int) -> Iterator[str]:
    """A complex matrix as its list of rows of [re, im] pairs at level, one chunk per row.

    The text of the pair (+0.0, +0.0) is made once. A pair is zero by its bits,
    so a -0.0 in either part is spelled by its own repr.
    """
    if values.ndim != 2:
        raise TypeError(f"Array of shape {values.shape} is not JSON serializable; only a matrix is")
    pairs = np.asarray(values, dtype=complex).reshape(-1).view(np.float64).reshape(-1, 2)
    pair = "[" + _indent(level + 3) + "%r," + _indent(level + 3) + "%r" + _indent(level + 2) + "]"
    bits = pairs.view(np.uint64)
    nonzero = np.flatnonzero(bits[:, 0] | bits[:, 1])
    texts = [pair % (0.0, 0.0)] * len(pairs)
    nonzero_pairs = zip(pairs[nonzero, 0].tolist(), pairs[nonzero, 1].tolist())
    for index, text in zip(nonzero.tolist(), map(pair.__mod__, nonzero_pairs)):
        texts[index] = text
    lead, separator, width = "[" + _indent(level + 1), "," + _indent(level + 2), values.shape[1]
    for start in range(0, len(texts), width):
        yield (lead + "[" + _indent(level + 2) + separator.join(texts[start:start + width])
               + _indent(level + 1) + "]")
        lead = "," + _indent(level + 1)
    yield _indent(level) + "]"


def _block_rows(block: _Block, level: int) -> Iterator[str]:
    """The rows of a block as the list items {"labels", "value"[, "exact"]} at level."""
    inner, item = _indent(level + 1), _indent(level + 2)
    slots = [_quote(text) for text in block.fixed] + ["%s"] * len(block.axes)
    template = ("{" + inner + '"labels": [' + item + ("," + item).join(slots) + inner + "],"
                + inner + '"value": [' + item + "%r," + item + "%r" + inner + "]"
                + ("," + inner + '"exact": %s' if block.exact else "") + _indent(level) + "}")
    return _rows(block, template, "," + _indent(level), _quote,
                 lambda values: (values.real.tolist(), values.imag.tolist()))


def emit(chunks: Iterable[str], path: str | None) -> None:
    """Write text chunks to stdout, in place to an existing device or FIFO, or to a temp
    file renamed over path unless something raises.

    If the reader of stdout or of the FIFO closes it early, the process exits 141
    (128 + SIGPIPE) with nothing on stderr. Any other failed write exits 74
    (EX_IOERR) with one line on stderr.
    """
    try:
        _write(chunks, path)
    except OSError as exc:
        if path is None:
            # point fd 1 at devnull, so that the flush at interpreter exit cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise SystemExit(141) from None
        print(f"error: cannot write {path or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(74) from None


def _write(chunks: Iterable[str], path: str | None) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
        return
    if os.path.exists(path) and not os.path.isfile(path):
        # a failed flush in close() still closes the descriptor
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    umask = os.umask(0)
    os.umask(umask)
    # mkstemp makes a 0600 file; give it the target's mode, or what open() would
    mode = stat.S_IMODE(os.stat(path).st_mode) if os.path.exists(path) else 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wigner-nonstd-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run(config: JobConfig) -> int:
    """Execute one job; returns the process exit status. Refusals come before any output."""
    if config.fmt not in ("json", "csv"):
        raise ConfigError(f"unknown format {config.fmt!r}")
    if config.command in ("tabulate-cg", "tabulate-fbar", "tabulate-standard"):
        document, csv_text = _build_table(config), _table_csv
    elif config.command == "export-ops":
        document, csv_text = _export_ops_payload(config), _export_ops_csv
    elif config.command == "verify":
        document, csv_text = report_dict(run_suites(config.verify), config.verify), _verify_csv
    else:
        raise ConfigError(f"unknown command {config.command!r}")
    emit(csv_text(document) if config.fmt == "csv"
         else itertools.chain(_json_chunks(document, 0), ["\n"]), config.output)
    if config.command == "verify":
        passed = document["total"] - document["failed"]
        print(f"verify: {passed}/{document['total']} checks passed", file=sys.stderr)
        return 0 if document["all_pass"] else 1
    return 0


# ---------------------------------------------------------------------------
# argument handling

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wigner-nonstd",
        description="SU(2) coupling tables and verification in the cyclic-phase eigenscheme.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value file; explicit flags win")
        p.add_argument("--r", help="comma list of winding parameters (decimal or p/q)")
        p.add_argument("--format", dest="fmt", choices=["json", "csv"])
        p.add_argument("--output", help="write here atomically instead of stdout")

    p = sub.add_parser("tabulate-cg", help="non-standard coupling coefficients")
    add_common(p)
    p.add_argument("--j1")
    p.add_argument("--j2")

    p = sub.add_parser("tabulate-fbar", help="non-standard 3-symbols")
    add_common(p)
    p.add_argument("--j1")
    p.add_argument("--j2")
    p.add_argument("--j3")

    p = sub.add_parser("tabulate-standard", help="exact m-scheme symbols")
    add_common(p)
    p.add_argument("--symbol", choices=["cg", "threejm", "sixj"])
    p.add_argument("--j1")
    p.add_argument("--j2")
    p.add_argument("--j3")
    p.add_argument("--j")
    p.add_argument("--labels", help="six comma-separated j's for --symbol sixj")

    p = sub.add_parser("export-ops", help="generator matrices for one multiplet")
    add_common(p)
    p.add_argument("--j")

    p = sub.add_parser("verify", help="run all invariant suites")
    add_common(p)
    p.add_argument("--j-max", dest="j_max")
    p.add_argument("--k", help=f"comma list of k values in [2, {MAX_K}]; spans like 2-8 allowed")
    p.add_argument("--tol", help="override every per-check default tolerance")
    p.add_argument("--seed")
    return parser


def _fill_from_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Set each unset flag of args's subcommand from --config; other subcommands' keys are skipped."""
    (subcommands,) = parser._subparsers._group_actions
    dests = {flag[2:]: action.dest for sub in subcommands.choices.values() for action in sub._actions
             for flag in action.option_strings if flag.startswith("--")}
    for key, value in read_config_file(args.config, frozenset(dests) - {"help", "config"}).items():
        # argparse sets every flag of the running subcommand, and no other, on args
        if hasattr(args, dests[key]) and getattr(args, dests[key]) is None:
            setattr(args, dests[key], value)


def make_config(args: argparse.Namespace) -> JobConfig:
    """The job args describe, over the defaults; config-file values are already filled in."""
    flags = {name: value for name, value in vars(args).items() if value is not None}
    config = JobConfig(command=args.command)
    for name in ("j1", "j2", "j3", "j"):
        if name in flags:
            setattr(config, name, parse_half(flags[name], f"--{name}"))
    if "labels" in flags:
        config.sixj_labels = tuple(parse_half(x, "--labels") for x in flags["labels"].split(","))
    if "symbol" in flags:
        config.symbol = flags["symbol"]
    if "r" in flags:
        config.r_values = config.verify.r_values = parse_r_list(flags["r"])
    if "k" in flags:
        config.verify.k_values = parse_k_list(flags["k"])
    if "j_max" in flags:
        config.verify.j_max = parse_half(flags["j_max"], "--j-max")
    if "tol" in flags:
        config.verify.tol = parse_tol(flags["tol"])
    if "seed" in flags:
        if not flags["seed"].strip().isdecimal():
            raise ConfigError(f"--seed: cannot parse {flags['seed']!r} as a non-negative integer")
        config.verify.seed = int(flags["seed"])
    if "fmt" in flags:
        config.fmt = flags["fmt"]
    if "output" in flags:
        config.output = flags["output"]
        directory = os.path.dirname(os.path.abspath(config.output))
        # "" and "x/" name no file: abspath would turn them into a file in the parent directory
        if (not os.path.basename(config.output) or os.path.isdir(config.output)
                or not os.path.isdir(directory)):
            raise ConfigError(f"--output: {config.output!r} is not a file in an existing directory")
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _fill_from_config(parser, args)
        config = make_config(args)
        return run(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
