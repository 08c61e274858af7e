"""Point-cloud ingestion: PDB alpha-carbon extraction and CSV coordinates."""
from __future__ import annotations

import itertools
from typing import IO, Optional, Union

import numpy as np

from .errors import EmptySelection, MalformedRecord, NonNumeric, RaggedRows

# PDB v3.3 fixed columns (0-based slices of the 1-indexed ranges).
_RECORD = slice(0, 6)
_ATOM_NAME = slice(12, 16)
_ALTLOC = 16
_CHAIN = 21
_X = slice(30, 38)
_Y = slice(38, 46)
_Z = slice(46, 54)


def _as_text(source: Union[str, bytes, IO]) -> str:
    """The text of source without a leading UTF-8 byte-order mark, which
    would otherwise turn a first CSV row into a header or hide a first
    ATOM record. Bytes decode as ASCII, one character per byte, so the
    PDB columns stay aligned."""
    data = source if isinstance(source, (str, bytes)) else source.read()
    if isinstance(data, bytes):
        return data.removeprefix(b"\xef\xbb\xbf").decode("ascii", errors="replace")
    return data.removeprefix("\ufeff")


def as_point_cloud(rows: list[list[float]]) -> np.ndarray:
    """Validate and freeze a list of coordinate rows into an (n, d) array."""
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("point cloud must be a 2-d array of coordinates")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point cloud contains NaN or infinite coordinates")
    arr.setflags(write=False)
    return arr


def parse_pdb(source: Union[str, bytes, IO], chain: Optional[str] = None) -> np.ndarray:
    """Extract CA atom coordinates from a PDB file, in file order.

    Only the first MODEL is read in multi-model (NMR) files. Alternate
    locations other than blank or 'A' are skipped so each residue yields
    at most one point.
    """
    text = _as_text(source)
    points: list[list[float]] = []
    models = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        record = line[_RECORD].strip()
        models += record == "MODEL"
        if record == "ENDMDL" or models > 1:
            break
        if record != "ATOM":
            continue
        if len(line) < 54:
            raise MalformedRecord(lineno, "ATOM record shorter than 54 columns")
        if line[_ATOM_NAME].strip() != "CA":
            continue
        if line[_ALTLOC] not in (" ", "A"):
            continue
        if chain is not None and line[_CHAIN] != chain:
            continue
        try:
            xyz = [float(line[_X]), float(line[_Y]), float(line[_Z])]
        except ValueError:
            raise MalformedRecord(lineno, "unparseable coordinate fields") from None
        points.append(xyz)
    if not points:
        raise EmptySelection("no CA atoms matched the selection")
    return as_point_cloud(points)


def _numbered_lines(source: Union[str, bytes, IO]) -> list[tuple[int, str]]:
    """The non-blank lines of source's text, each with its physical line
    number, counted from 1, so that an error can name it."""
    return [(n, ln) for n, ln in enumerate(_as_text(source).splitlines(), start=1)
            if ln.strip()]


def load_csv(source: Union[str, bytes, IO]) -> np.ndarray:
    """Parse comma-separated coordinates; a first non-blank row that is not
    numeric is a header."""
    lines = _numbered_lines(source)
    if lines:
        try:
            float(lines[0][1].split(",")[0].strip())
        except ValueError:
            del lines[0]  # header row
    if not lines:
        raise EmptySelection("no coordinate rows found")
    width = lines[0][1].count(",") + 1
    try:
        if any(ln.count(",") != width - 1 for _, ln in lines):
            raise ValueError
        # every field in one pass, no row kept; float() skips the spaces
        values = np.fromiter(map(float, itertools.chain.from_iterable(
            ln.split(",") for _, ln in lines)), np.float64)
    except ValueError:
        # row by row, to name the first bad line
        values = [x for lineno, ln in lines for x in _row(lineno, ln.split(","), width)]
    return as_point_cloud(np.reshape(values, (len(lines), width)))


def _row(lineno: int, fields: list[str], width: int) -> list[float]:
    """The values of one CSV line, or the error that names it."""
    try:
        values = list(map(float, fields))
    except ValueError:
        # field by field, to name the bad one; strip() also drops the
        # few separators that float() does not take for spaces
        values = []
        for f in map(str.strip, fields):
            try:
                values.append(float(f))
            except ValueError:
                raise NonNumeric(lineno, f) from None
    if len(values) != width:
        raise RaggedRows(f"line {lineno}: expected {width} fields, got {len(values)}")
    return values


def write_csv(points: np.ndarray) -> str:
    """Headerless CSV of coordinates that round-trips through load_csv."""
    lines = [",".join(repr(float(x)) for x in row) for row in points]
    return "\n".join(lines) + "\n"
