"""Immutable named-column frames with content-addressed fingerprints.

Partition identity is a function of cell content alone: two frames with the
same values in the same row order carry the same fingerprint no matter how
they were produced, which column order they use, or what partition tag they
carry. Content-preserving operations (column selection) keep digests intact;
content-changing operations (edits, row reordering, sampling) produce new
digests.

Storage is columnar. A column whose present cells are all floats (missing
allowed) is one read-only float64 ndarray with NaN standing for missing;
every other column (bool, int, text, mixed) is a tuple of normalised cells.
Cells are normalised once, where data enters: the public ``DataFrame(...)``
constructor and ``from_csv``. Frames derived inside the package (row takes,
projections, retags, prepared data) reuse that storage through
``DataFrame._from_storage`` without a second pass. Storage is invisible to
readers: ``column()`` returns Python cells with ``None`` for missing, and
equality, hashing and fingerprints depend on cell content only.

Exactness rules for the array paths: widening float32 (or any float
dtype) to float64 is exact, so an array-built frame holds the same cells as
one built from ``float(v)`` per value; a float column's fingerprint bytes
are built with numpy and equal the per-cell ``canonical_encode`` stream
byte for byte, with ``x + 0.0`` collapsing -0.0 to +0.0 and NaN rows
reduced to the one-byte missing sentinel.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from collections.abc import Mapping, Sequence
from typing import Iterable

import numpy as np

from .errors import ConfigError, ParseError, SchemaError

PARTITION_TAGS = ("none", "train", "valid", "test", "dev")

Cell = float | int | bool | str | None
Column = np.ndarray | tuple

_MISSING_SENTINEL = b"\xff"
_TAG_FLOAT = b"\x01"
_TAG_BIGINT = b"\x02"
_TAG_BOOL = b"\x03"
_TAG_TEXT = b"\x04"

_FLOAT_OR_MISSING = frozenset((float, type(None)))


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


def _store(cells: list) -> Column:
    """Storage for a list of normalised cells: a float array when every
    present cell is a float, a tuple otherwise."""
    if set(map(type, cells)) <= _FLOAT_OR_MISSING:
        return _readonly(np.array(cells, dtype=np.float64))  # None -> NaN
    return tuple(cells)


def _normalize_column(values) -> Column:
    if isinstance(values, np.ndarray) and values.ndim == 1:
        if values.dtype.kind == "f":
            # Widening to float64 is exact and copies, so later writes to
            # the caller's array cannot reach the frame.
            return _readonly(values.astype(np.float64))
        if values.dtype.kind in "biu":
            return tuple(values.tolist())  # Python bools and ints
    values = list(values)
    if not set(map(type, values)) <= _FLOAT_OR_MISSING:  # floats need no pass
        values = [_normalize_cell(v) for v in values]
    return _store(values)


def _as_cells(col: Column) -> tuple[Cell, ...]:
    """The column as a tuple of Python cells, None for missing."""
    if not isinstance(col, np.ndarray):
        return col
    cells = col.tolist()
    for i in np.flatnonzero(np.isnan(col)).tolist():
        cells[i] = None
    return tuple(cells)


def _cell(col: Column, i: int) -> Cell:
    value = col[i]
    if isinstance(col, np.ndarray):
        return None if math.isnan(value) else float(value)
    return value


def _take_column(col: Column, idx: np.ndarray) -> Column:
    """The column's cells at row positions `idx`, in that order."""
    if isinstance(col, np.ndarray):
        return _readonly(col[idx])
    return tuple(map(col.__getitem__, idx.tolist()))


def _columns_equal(a: Column, b: Column) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))
    return _as_cells(a) == _as_cells(b)


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
            as_float = float(value)
        except OverflowError:
            as_float = None
        if as_float is not None and as_float.is_integer() and int(as_float) == value:
            return _TAG_FLOAT + struct.pack(">d", as_float)
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


def _cells_bytes(col: tuple) -> bytes:
    """The canonical encodings of a tuple column, each distinct cell encoded
    once. Keys carry the type so that 1, 1.0 and True stay apart."""
    keys = list(zip(map(type, col), col))
    codes = {key: canonical_encode(key[1]) for key in set(keys)}
    return b"".join(map(codes.__getitem__, keys))


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
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_columns", cols)
        object.__setattr__(self, "_row_count", lengths.pop())
        object.__setattr__(self, "_tag", partition_tag)
        object.__setattr__(self, "_fp", None)

    @classmethod
    def _from_storage(
        cls, names: Sequence[str], columns: Sequence[Column], partition_tag: str
    ) -> "DataFrame":
        """Trusted constructor for frames derived inside the package.

        The caller guarantees what the public constructor checks: at least
        one column, distinct names, equal lengths, a known tag, and storage
        already in normal form (read-only float64 arrays with NaN for
        missing for all-float columns, tuples of normalised cells
        otherwise).
        """
        df = object.__new__(cls)
        object.__setattr__(df, "_names", tuple(names))
        object.__setattr__(df, "_columns", tuple(columns))
        object.__setattr__(df, "_row_count", len(df._columns[0]))
        object.__setattr__(df, "_tag", partition_tag)
        object.__setattr__(df, "_fp", None)
        return df

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
        """The stored column: a read-only float64 array or a tuple of cells."""
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
            and self._row_count == other._row_count
            and all(map(_columns_equal, self._columns, other._columns))
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
    columns = [_readonly(c) if isinstance(c, np.ndarray) else c for c in columns]
    return DataFrame._from_storage(names, columns, tag)


def fingerprint(df: DataFrame) -> FrameFingerprint:
    """Per-column SHA-256 over the row-ordered canonical cell encodings.

    Independent of column order and of the partition tag; deterministic
    across runs and platforms. Each column is hashed with one `update` of
    its concatenated encodings, built with numpy for float columns.
    """
    if not isinstance(df, DataFrame):
        raise TypeError("fingerprint expects a DataFrame")
    cached = df._fp
    if cached is not None:
        return cached
    digests = {}
    for name, col in zip(df._names, df._columns):
        if isinstance(col, np.ndarray):
            encoded = _float_column_bytes(col)
        else:
            encoded = _cells_bytes(col)
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
    if not isinstance(df, DataFrame):
        raise TypeError("select_columns expects a DataFrame")
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


_HINT_KINDS = ("float64", "int64", "bool", "text", "categorical")


def _parse_cell(raw: str, kind: str, where: str) -> Cell:
    if raw == "":
        return None
    if kind == "float64":
        try:
            return float(raw)
        except ValueError as exc:
            raise ParseError(f"{where}: {raw!r} is not a float") from exc
    if kind == "int64":
        try:
            return int(raw)
        except ValueError as exc:
            raise ParseError(f"{where}: {raw!r} is not an integer") from exc
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("true", "1"):
            return True
        if low in ("false", "0"):
            return False
        raise ParseError(f"{where}: {raw!r} is not a boolean")
    return raw  # text / categorical


def _parse_floats(cells: Sequence[str]) -> np.ndarray:
    """Parse a float column; raises ValueError on any non-empty non-float.

    Each cell goes through Python's `float`, exactly like `_parse_cell`;
    empty cells and "nan" both become NaN, the missing marker."""
    return _readonly(
        np.array([float(c) if c else math.nan for c in cells], dtype=np.float64)
    )


def _parse_column(cells: Sequence[str], kind: str | None, where: str) -> Column:
    if kind is None or kind == "float64":
        try:
            return _parse_floats(cells)
        except ValueError:
            if kind is None:
                return _store([c or None for c in cells])  # inferred text
            for c in cells:
                _parse_cell(c, kind, where)  # raises on the first bad cell
            raise
    return _store([_parse_cell(c, kind, where) for c in cells])


def from_csv(path, schema_hints: Mapping[str, str] | None = None) -> DataFrame:
    """Load an RFC-4180-style CSV (UTF-8, header row required) as an untagged frame.

    Unhinted columns where every non-empty cell parses as a float are read
    as float64; everything else is text. Hints (name -> one of float64,
    int64, bool, text/categorical) override inference. Empty cells are
    missing.
    """
    hints = dict(schema_hints or {})
    for name, kind in hints.items():
        if kind not in _HINT_KINDS:
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
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(
                f"{path}: ragged row at line {lineno} "
                f"({len(row)} fields, expected {width})"
            )
    raw_cols = list(zip(*rows[1:])) if len(rows) > 1 else [()] * width
    columns = [
        _parse_column(cells, hints.get(name), f"{path}: column {name!r}")
        for name, cells in zip(header, raw_cols)
    ]
    return DataFrame._from_storage(header, columns, "none")
