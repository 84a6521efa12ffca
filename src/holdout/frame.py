"""Immutable named-column frames with content-addressed fingerprints.

Partition identity is a function of cell content alone: two frames with the
same values in the same row order carry the same fingerprint no matter how
they were produced, which column order they use, or what partition tag they
carry. Content-preserving operations (column selection) keep digests intact;
content-changing operations (edits, row reordering, sampling) produce new
digests.

Storage is columnar. A column whose present cells are all floats is a
read-only float64 ndarray, NaN for missing. Every other column (bool, int,
text, mixed) is `Coded`: an int32 code per row, -1 for missing, into a
dictionary of the distinct cells the column holds (Apache Arrow dictionary
encoding). Cells Python calls equal but that encode apart (1, 1.0, True;
0.0, -0.0) get separate entries, and ints of any size stay Python ints.
Dictionary order means nothing; a row take keeps its parent's entries
that some row still uses. Cells are normalised once, where data enters
(``DataFrame(...)``, ``from_csv``); derived frames reuse storage through
``DataFrame._from_storage``. Readers never see storage: ``column()``
returns Python cells with ``None`` for missing, and equality, hashing and
fingerprints depend on cell content only. A fingerprint encodes float
columns with numpy and each dictionary entry once, gathered by code; both
equal the per-cell ``canonical_encode`` stream byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import struct
from dataclasses import dataclass
from collections.abc import Mapping
from itertools import compress, repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ParseError, SchemaError
from .signatures import check_arguments

PARTITION_TAGS = ("none", "train", "valid", "test", "dev")

Cell = float | int | bool | str | None

_MISSING_SENTINEL = b"\xff"
_TAG_FLOAT = b"\x01"
_TAG_BIGINT = b"\x02"
_TAG_BOOL = b"\x03"
_TAG_TEXT = b"\x04"

_NONE_TYPE = type(None)


@dataclass(eq=False, slots=True)
class Coded:
    """A non-float column: row i holds ``values[codes[i]]``. `codes` is a
    read-only int32 array, -1 for missing; `values` holds the distinct
    cells some row uses, then ``None``, so code -1 reads ``None``."""

    codes: np.ndarray
    values: tuple

    def __len__(self) -> int:
        return len(self.codes)


Column = np.ndarray | Coded


def _normalize_cell(value) -> Cell:
    """Coerce a raw value into one of the five supported cell kinds.

    NaN floats collapse to missing; numpy scalars collapse to their Python
    equivalents so frames built from numpy arrays fingerprint identically to
    frames built from lists.
    """
    if value is None:
        return None
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return None if math.isnan(v) else v
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, str):
        return value
    raise SchemaError(f"unsupported cell value of type {type(value).__name__!r}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _store(cells: Sequence) -> Column:
    """Storage for normalised cells: a float array when every present cell
    is a float, else a coded column built in one dict pass, its entries in
    order of first appearance."""
    kinds = set(map(type, cells)) - {_NONE_TYPE}
    if kinds <= {float}:
        return _readonly(np.array(cells, dtype=np.float64))  # None -> NaN
    keys, missing = cells, None
    if len(kinds) > 1:
        # 1 == 1.0 == True and 0.0 == -0.0, yet each keeps its own entry.
        keys = [(v, type(v), math.copysign(1.0, v) if type(v) is float else 0.0) for v in cells]
        missing = (None, _NONE_TYPE, 0.0)
    index = dict.fromkeys(keys)
    index.pop(missing, None)
    entries = list(index)
    index.update(zip(entries, range(len(entries))))
    index[missing] = -1
    codes = np.fromiter(map(index.__getitem__, keys), dtype=np.int32, count=len(keys))
    values = entries if keys is cells else [key[0] for key in entries]
    return Coded(_readonly(codes), (*values, None))


def _recode(col: Coded, fn) -> Column:
    """The column with `fn` applied once to each dictionary entry."""
    return _take_column(_store([*map(fn, col.values[:-1]), None]), col.codes)


def _normalize_column(values) -> Column:
    if isinstance(values, np.ndarray) and values.ndim == 1:
        if values.dtype.kind == "f":
            # Widening to float64 is exact and copies, so later writes to
            # the caller's array cannot reach the frame.
            return _readonly(values.astype(np.float64))
        if values.dtype.kind in "biu":
            return _store(values.tolist())  # Python bools or ints
    values = list(values)
    if not set(map(type, values)) <= {float, _NONE_TYPE}:  # floats need no pass
        values = [_normalize_cell(v) for v in values]
    return _store(values)


def _as_cells(col: Column) -> tuple[Cell, ...]:
    """The column as a tuple of Python cells, None for missing."""
    if isinstance(col, Coded):
        cells = np.array(col.values, dtype=object)[col.codes]
    else:
        cells = np.where(np.isnan(col), None, col.astype(object))
    return tuple(cells.tolist())


def _cell(col: Column, i: int) -> Cell:
    if isinstance(col, Coded):
        return col.values[col.codes[i]]
    value = col[i]
    return None if math.isnan(value) else float(value)


def _take_column(col: Column, idx: np.ndarray) -> Column:
    """The column's cells at row positions `idx`, in that order."""
    if isinstance(col, np.ndarray):
        return _readonly(col[idx])
    codes = col.codes[idx]
    used = np.zeros(len(col.values), dtype=bool)
    used[codes] = True
    used[-1] = True  # the trailing None stays
    if used.all():
        return Coded(_readonly(codes), col.values)
    # Drop the entries no row uses; the others keep their order.
    renumber = np.cumsum(used, dtype=np.int32) - 1
    renumber[-1] = -1
    return Coded(_readonly(renumber[codes]), tuple(compress(col.values, used)))


def _missing(col: Column) -> np.ndarray:
    """Mask of the missing rows."""
    return col.codes < 0 if isinstance(col, Coded) else np.isnan(col)


def _as_floats(col: Column) -> np.ndarray:
    """The column as float64, NaN for missing, each entry through `float`."""
    return col if isinstance(col, np.ndarray) else _recode(col, float)


def _first_appearance(col: Column) -> list[Cell]:
    """The distinct present cells in order of first appearance; a float
    column's equal cells (0.0 and -0.0) count once."""
    if isinstance(col, Coded):
        return [col.values[c] for c in dict.fromkeys(col.codes.tolist()) if c >= 0]
    return [v for v in dict.fromkeys(col.tolist()) if v == v]  # NaN is missing


def _lookup(col: Column, table: Mapping, default) -> np.ndarray:
    """Each cell's entry in `table` by Python equality (1, 1.0 and True
    find the same entry), `default` for missing cells and cells it lacks."""
    if isinstance(col, Coded):
        entries = [*map(table.get, col.values[:-1], repeat(default)), default]
        return np.array(entries)[col.codes]
    return np.array(list(map(table.get, col.tolist(), repeat(default))))


def canonical_encode(value: Cell) -> bytes:
    """Encode one cell as a self-delimiting byte string.

    Layout:
      missing            -> 0xFF
      number (float/int) -> 0x01 + 8-byte IEEE-754 big-endian double,
                            when the value is exactly representable;
                            ints beyond 2**53 fall back to
                            0x02 + 8-byte signed big-endian integer
      bool               -> 0x03 + 0x00/0x01
      text               -> 0x04 + 4-byte big-endian length + UTF-8 bytes

    Integers exactly representable as float64 therefore encode identically
    to their float64 form, all NaN payloads collapse to the single missing
    sentinel, and -0.0 encodes as +0.0.
    """
    if value is None:
        return _MISSING_SENTINEL
    if isinstance(value, bool):
        return _TAG_BOOL + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        try:
            if float(value) == value:  # int-float comparison is exact
                return _TAG_FLOAT + struct.pack(">d", float(value))
        except OverflowError:
            pass
        try:
            return _TAG_BIGINT + value.to_bytes(8, "big", signed=True)
        except OverflowError as exc:
            raise SchemaError(f"integer {value} exceeds 64-bit range") from exc
    if isinstance(value, float):
        if math.isnan(value):
            return _MISSING_SENTINEL
        if value == 0.0:
            value = 0.0  # collapse -0.0
        return _TAG_FLOAT + struct.pack(">d", value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return _TAG_TEXT + len(raw).to_bytes(4, "big") + raw
    raise SchemaError(f"unsupported cell value of type {type(value).__name__!r}")


def _float_column_bytes(a: np.ndarray) -> bytes:
    """The canonical encodings of a float column, concatenated.

    Builds every cell's 0x01 + big-endian float64 record in one (n, 9) byte
    array, then keeps only the first byte, set to 0xFF, of missing rows.
    Equal to joining `canonical_encode` over the cells.
    """
    n = len(a)
    records = np.empty((n, 9), dtype=np.uint8)
    records[:, 0] = _TAG_FLOAT[0]
    # Adding +0.0 turns -0.0 into +0.0 and leaves every other value as is.
    records[:, 1:] = (a + 0.0).astype(">f8").view(np.uint8).reshape(n, 8)
    missing = np.isnan(a)
    if not missing.any():
        return records.tobytes()
    records[missing, 0] = _MISSING_SENTINEL[0]
    keep = np.ones((n, 9), dtype=bool)
    keep[missing, 1:] = False
    return records[keep].tobytes()


def _coded_column_bytes(col: Coded) -> bytes:
    """The canonical encodings of a coded column: each dictionary entry
    encoded once, then gathered by code (-1 reads the trailing None)."""
    encoded = list(map(canonical_encode, col.values))
    return b"".join(map(encoded.__getitem__, col.codes.tolist()))


class FrameFingerprint:
    """Per-column SHA-256 digests plus the row count.

    Equality and hashing ignore column order; any change to any value, the
    row order, or the row count changes at least one digest.
    """

    __slots__ = ("_items", "_row_count")

    def __init__(self, column_digests: Mapping[str, bytes], row_count: int):
        self._items = tuple(sorted(column_digests.items()))
        self._row_count = int(row_count)

    @property
    def column_digests(self) -> dict[str, bytes]:
        return dict(self._items)

    @property
    def row_count(self) -> int:
        return self._row_count

    def is_subset_of(self, other: "FrameFingerprint") -> bool:
        """True when every (name, digest) pair here appears in `other`."""
        theirs = dict(other._items)
        return all(theirs.get(name) == digest for name, digest in self._items)

    def hex(self) -> str:
        """Single combined lowercase-hex digest summarising the whole frame."""
        h = hashlib.sha256()
        for name, digest in self._items:
            h.update(name.encode("utf-8"))
            h.update(digest)
        h.update(self._row_count.to_bytes(8, "big"))
        return h.hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrameFingerprint):
            return NotImplemented
        return self._items == other._items and self._row_count == other._row_count

    def __hash__(self) -> int:
        return hash((self._items, self._row_count))

    def __repr__(self) -> str:
        return f"FrameFingerprint({self.hex()[:12]}…, rows={self._row_count})"


class DataFrame:
    """Immutable table of named columns carrying an optional partition tag.

    Cells are float64, int64, bool, text, or missing. Every transformation
    returns a new frame; there is no mutation API. Freshly constructed data
    carries tag ``"none"``; only split assigns the other tags.
    """

    __slots__ = ("_names", "_columns", "_row_count", "_tag", "_fp")

    def __init__(
        self,
        columns: Mapping[str, Sequence] | Iterable[tuple[str, Sequence]],
        partition_tag: str = "none",
    ):
        items = list(columns.items()) if isinstance(columns, Mapping) else list(columns)
        if not items:
            raise SchemaError("a frame requires at least one column")
        names = [str(name) for name, _ in items]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        cols = tuple(_normalize_column(values) for _, values in items)
        lengths = {len(c) for c in cols}
        if len(lengths) > 1:
            raise SchemaError(f"columns have unequal lengths: {sorted(lengths)}")
        if partition_tag not in PARTITION_TAGS:
            raise SchemaError(f"unknown partition tag {partition_tag!r}")
        self._assign(names, cols, partition_tag)

    @classmethod
    def _from_storage(
        cls, names: Sequence[str], columns: Sequence[Column], partition_tag: str
    ) -> "DataFrame":
        """Trusted constructor for frames derived inside the package.

        The caller guarantees what the public constructor checks: at least
        one column, distinct names, equal lengths, a known tag, and storage
        already in normal form (read-only float64 arrays with NaN for
        missing for all-float columns, coded columns otherwise).
        """
        df = object.__new__(cls)
        df._assign(names, columns, partition_tag)
        return df

    def _assign(self, names, columns, tag: str) -> None:
        # In __slots__ order; the fingerprint is computed on first use.
        values = (tuple(names), tuple(columns), len(columns[0]), tag, None)
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("DataFrame is immutable")

    def __reduce__(self):
        # copy and pickle cannot restore slots through __setattr__.
        return _rebuild_frame, (self._names, self._columns, self._tag)

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def partition_tag(self) -> str:
        return self._tag

    def _col(self, name: str) -> Column:
        """The stored column: a read-only float64 array or a coded column."""
        try:
            return self._columns[self._names.index(name)]
        except ValueError:
            raise SchemaError(f"unknown column {name!r}") from None

    def column(self, name: str) -> tuple[Cell, ...]:
        return _as_cells(self._col(name))

    def columns(self) -> dict[str, tuple[Cell, ...]]:
        return {name: _as_cells(col) for name, col in zip(self._names, self._columns)}

    def row(self, i: int) -> tuple[Cell, ...]:
        return tuple(_cell(col, i) for col in self._columns)

    def _retag(self, tag: str) -> "DataFrame":
        # Tags are metadata: content digests are unchanged by design.
        return DataFrame._from_storage(self._names, self._columns, tag)

    def _take(self, indices: Sequence[int], tag: str | None = None) -> "DataFrame":
        idx = np.asarray(indices, dtype=np.intp)
        cols = [_take_column(c, idx) for c in self._columns]
        return DataFrame._from_storage(
            self._names, cols, self._tag if tag is None else tag
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataFrame):
            return NotImplemented
        return (
            self._names == other._names
            and self._tag == other._tag
            and list(map(_as_cells, self._columns)) == list(map(_as_cells, other._columns))
        )

    def __hash__(self):
        return hash((self._names, tuple(map(_as_cells, self._columns)), self._tag))

    def __repr__(self) -> str:
        return (
            f"DataFrame(rows={self._row_count}, "
            f"columns={list(self._names)}, tag={self._tag!r})"
        )


def _rebuild_frame(names, columns, tag) -> DataFrame:
    """A copied or unpickled frame; unpickled arrays come back writeable."""
    for c in columns:
        _readonly(c.codes if isinstance(c, Coded) else c)
    return DataFrame._from_storage(names, columns, tag)


def fingerprint(df: DataFrame) -> FrameFingerprint:
    """Per-column SHA-256 over the row-ordered canonical cell encodings.

    Independent of column order and of the partition tag; deterministic
    across runs and platforms. Each column is hashed with one `update` of
    its concatenated encodings, built with numpy for float columns.
    """
    check_arguments(fingerprint, locals())
    cached = df._fp
    if cached is not None:
        return cached
    digests = {}
    for name, col in zip(df._names, df._columns):
        if isinstance(col, Coded):
            encoded = _coded_column_bytes(col)
        else:
            encoded = _float_column_bytes(col)
        digests[name] = hashlib.sha256(encoded).digest()
    fp = FrameFingerprint(digests, df._row_count)
    object.__setattr__(df, "_fp", fp)
    return fp


def select_columns(df: DataFrame, names: Sequence[str]) -> DataFrame:
    """Project a frame onto a subset of its columns, preserving the tag.

    The projection's column digests are exactly the corresponding subset of
    the source digests, so provenance survives. An empty projection is
    rejected: a zero-column frame has no defined fingerprint.
    """
    check_arguments(select_columns, locals())
    names = list(names)
    if not names:
        raise SchemaError("empty column projection is not allowed")
    unknown = [n for n in names if n not in df._names]
    if unknown:
        raise SchemaError(f"unknown columns: {unknown}")
    if len(set(names)) != len(names):
        raise SchemaError("duplicate names in projection")
    return DataFrame._from_storage(
        names, [df._col(n) for n in names], df.partition_tag
    )


# Schema hint kinds, with what a non-empty cell of each kind must be.
_HINT_KINDS = {
    "float64": "a float", "int64": "an integer", "bool": "a boolean",
    "text": None, "categorical": None,
}
_BOOLS = {"true": True, "1": True, "false": False, "0": False}


def _parse_cell(raw: str, kind: str, where: str) -> Cell:
    if raw == "" or _HINT_KINDS[kind] is None:
        return raw or None
    try:
        if kind == "bool":
            return _BOOLS[raw.strip().lower()]
        return float(raw) if kind == "float64" else int(raw)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{where}: {raw!r} is not {_HINT_KINDS[kind]}") from exc


def _parse_column(cells: Sequence[str], kind: str | None, where: str) -> Column:
    if kind in (None, "float64") or not cells:
        try:
            # Python's float per cell; empty cells and "nan" become NaN, missing.
            floats = [float(c) if c else math.nan for c in cells]
            return _readonly(np.array(floats, dtype=np.float64))
        except ValueError:
            kind = kind or "text"
    # Each distinct raw string is parsed once, in order of first appearance,
    # so the first bad one is the first bad cell.
    return _recode(_store(cells), lambda c: _parse_cell(c, kind, where))


def _record_line(path, index: int) -> int:
    """The physical line on which the CSV's index-th non-blank record (the
    header is 0) starts. Blank lines and quoted line breaks count; the file
    is read again, so only an error pays for it."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        line = 1
        for row in reader:
            if row:
                if index == 0:
                    break
                index -= 1
            line = reader.line_num + 1
    return line


def from_csv(path: str | os.PathLike, schema_hints: Mapping[str, str] | None = None) -> DataFrame:
    """Load an RFC-4180-style CSV (UTF-8, header row required) as an untagged frame.

    Unhinted columns where every non-empty cell parses as a float are read
    as float64; everything else is text. Hints (name -> one of float64,
    int64, bool, text/categorical) override inference. Empty cells are
    missing.
    """
    check_arguments(from_csv, locals())
    hints = dict(schema_hints or {})
    for name, kind in hints.items():
        if not isinstance(kind, str) or kind not in _HINT_KINDS:
            raise ConfigError(f"unknown schema hint kind {kind!r} for column {name!r}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(filter(None, csv.reader(fh)))  # blank lines dropped
    if not rows:
        raise ParseError(f"{path}: empty CSV (header row required)")
    header = rows[0]
    if len(set(header)) != len(header):
        dupes = sorted({n for n in header if header.count(n) > 1})
        raise SchemaError(f"{path}: duplicate header names: {dupes}")
    unknown = [n for n in hints if n not in header]
    if unknown:
        raise SchemaError(f"{path}: schema hints for absent columns: {unknown}")
    width = len(header)
    for index, row in enumerate(rows[1:], start=1):
        if len(row) != width:
            raise ParseError(
                f"{path}: ragged row at line {_record_line(path, index)} "
                f"({len(row)} fields, expected {width})"
            )
    raw_cols = list(zip(*rows[1:])) if len(rows) > 1 else [()] * width
    columns = [
        _parse_column(cells, hints.get(name), f"{path}: column {name!r}")
        for name, cells in zip(header, raw_cols)
    ]
    return DataFrame._from_storage(header, columns, "none")
