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
equal the per-cell ``canonical_encode`` stream byte for byte. A split's
train, valid and dev members are built together (``_take_train_valid_dev``):
dev, train's rows then valid's, is the one gathered copy and train and
valid are row slices of it, so dev's digests continue train's SHA-256
states with valid's bytes, and no member's cells are encoded twice.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
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


def _take_column(col: Column, idx: np.ndarray | slice) -> Column:
    """The column's cells at row positions `idx`, in that order; a slice
    gives a view of a float column or of a coded column's codes."""
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
        n = len(col.codes)
        first = np.full(len(col.values), n)
        np.minimum.at(first, col.codes, np.arange(n))  # code -1 writes None's slot
        starts = np.zeros(n + 1, dtype=bool)
        starts[first] = True  # rows where an entry first appears, in row order
        return [col.values[c] for c in col.codes[starts[:-1]].tolist() if c >= 0]
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


# A number's canonical encoding as one packed 9-byte record.
_FLOAT_RECORD = np.dtype([("tag", "u1"), ("value", ">f8")])


def _float_column_bytes(a: np.ndarray) -> bytes:
    """The canonical encodings of a float column, concatenated.

    Builds every cell's 0x01 + big-endian float64 record in one array of
    packed records, then keeps only the first byte, set to 0xFF, of missing
    rows. Equal to joining `canonical_encode` over the cells.
    """
    records = np.empty(len(a), dtype=_FLOAT_RECORD)
    records["tag"] = _TAG_FLOAT[0]
    # Adding +0.0 turns -0.0 into +0.0 and leaves every other value as is.
    records["value"] = a + 0.0
    missing = np.isnan(a)
    if not missing.any():
        return records.tobytes()
    records["tag"][missing] = _MISSING_SENTINEL[0]
    keep = np.ones((len(a), 9), dtype=bool)
    keep[missing, 1:] = False
    return records.view(np.uint8)[keep.ravel()].tobytes()


def _column_bytes(col: Column) -> bytes:
    """The canonical encodings of a column's cells, concatenated. A coded
    column's dictionary entries are encoded once, then gathered by code
    (-1 reads the trailing None): as rows of an (entries, width) byte table
    when every entry a row uses encodes to one width, else joined."""
    if not isinstance(col, Coded):
        return _float_column_bytes(col)
    encoded = list(map(canonical_encode, col.values))
    used = np.zeros(len(encoded), dtype=bool)
    used[col.codes] = True
    widths = set(map(len, compress(encoded, used)))
    if len(widths) == 1:
        (width,) = widths  # an unused entry's row is never read
        table = np.frombuffer(b"".join(e.ljust(width)[:width] for e in encoded), np.uint8)
        return table.reshape(-1, width)[col.codes].tobytes()
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
    digests = {name: hashlib.sha256(_column_bytes(col)).digest()
               for name, col in zip(df._names, df._columns)}
    fp = FrameFingerprint(digests, df._row_count)
    object.__setattr__(df, "_fp", fp)
    return fp


def _take_train_valid_dev(
    df: DataFrame, idx_train: Sequence[int], idx_valid: Sequence[int]
) -> tuple[DataFrame, DataFrame, DataFrame]:
    """The rows at `idx_train` tagged train, at `idx_valid` tagged valid,
    and both, train's first, tagged dev, each with its fingerprint set.

    Dev is the one gathered copy; train and valid are its row slices.
    Each side's cells are encoded and hashed once: SHA-256 reads its input
    as one stream, so dev's digest of a column is train's hash state fed
    valid's bytes, the digest `fingerprint` gives dev.
    """
    rows = np.concatenate([np.asarray(idx, dtype=np.intp) for idx in (idx_train, idx_valid)])
    halves = (slice(0, len(idx_train)), slice(len(idx_train), None))
    columns: list[list[Column]] = [[], [], []]  # of train, valid and dev
    digests: list[dict[str, bytes]] = [{}, {}, {}]
    for name, col in zip(df._names, df._columns):
        dev_col = _take_column(col, rows)
        taken = [*(_take_column(dev_col, half) for half in halves), dev_col]
        train_bytes, valid_bytes = map(_column_bytes, taken[:2])
        h = hashlib.sha256(train_bytes)
        digests[0][name] = h.digest()  # digest() leaves the state open
        h.update(valid_bytes)
        digests[2][name] = h.digest()
        digests[1][name] = hashlib.sha256(valid_bytes).digest()
        for member_columns, c in zip(columns, taken):
            member_columns.append(c)
    frames = []
    for tag, cols, d in zip(("train", "valid", "dev"), columns, digests):
        member = DataFrame._from_storage(df._names, cols, tag)
        object.__setattr__(member, "_fp", FrameFingerprint(d, member.row_count))
        frames.append(member)
    return tuple(frames)


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

# The loader reads the file as bytes and works on blocks of whole lines of
# about this many bytes, so its temporaries stay bounded.
_BLOCK_BYTES = 1 << 17
# Zero bytes around each block's cells, so that the 16 bytes before any
# cell's end and the byte at any cell's start can be read.
_PAD = 16
_PADDING = bytes(_PAD)
_COMMA, _NEWLINE, _DOT, _MINUS, _ZERO = b",\n.-0"
# Which of a right-aligned 16-byte window's bytes belong to a cell of
# length n, for n = 0..16 (a longer cell fills the window).
_INSIDE = np.tri(17, 16, -1, dtype=np.uint8)[:, ::-1].copy()
_POW10 = 10 ** np.arange(16, dtype=np.int64)
_U64 = np.uint64


def _parse_cell(raw: str, kind: str, where: str) -> Cell:
    if raw == "" or _HINT_KINDS[kind] is None:
        return raw or None
    try:
        if kind == "bool":
            return _BOOLS[raw.strip().lower()]
        return float(raw) if kind == "float64" else int(raw)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{where}: {raw!r} is not {_HINT_KINDS[kind]}") from exc


def _lane_sums(pair: np.ndarray, weights: int) -> np.ndarray:
    """Per row of `pair`, an (n, 2) uint64 array whose bytes are 0 or 1,
    the sum of its 16 bytes each times its weight: byte i of either word
    (i = 0 lowest-addressed) weighs byte 7 - i of `weights`. Adding the two
    words keeps every byte below 3, and one multiply then carries each
    row's weighted sum into the top byte, exact while it stays below 256."""
    summed = pair[:, 0] + pair[:, 1]
    return ((summed * _U64(weights)) >> _U64(56)).view(np.int64)


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The 8-digit number in each uint64 whose bytes hold one digit value
    each, the first (lowest-addressed) byte most significant: pairs, then
    quads, then the eight are combined, a multiply each."""
    words = (words * _U64(10) + (words >> _U64(8))) & _U64(0x00FF00FF00FF00FF)
    words = ((words * _U64(100 << 16 | 1)) >> _U64(16)) & _U64(0x0000FFFF0000FFFF)
    return ((words * _U64(10000 << 32 | 1)) >> _U64(32)).view(np.int64)


def _last_16(raw: bytes, ends: np.ndarray) -> np.ndarray:
    """The 16 bytes of `raw` before each of `ends`, one (n, 16) uint8 row
    each: a cell of at most 16 bytes right-aligned in its row."""
    windows = np.ndarray((len(raw) - 15,), dtype="V16", buffer=raw, strides=(1,))
    return windows[ends - 16].view(np.uint8).reshape(-1, 16)


def _distinct_short_cells(raw: bytes, starts: np.ndarray, ends: np.ndarray):
    """For cells of at most 15 bytes: the row where each distinct cell
    first appears, in that order, and each row's position in that list.

    A cell's key is its 16-byte window with the bytes outside the cell
    zeroed and its length in the first byte, which no such cell reaches:
    equal keys are equal cells, NUL bytes included. Keys are sorted as two
    words, stably, so each run of equal keys starts at its first row.
    """
    lengths = ends - starts
    keys = _last_16(raw, ends) * _INSIDE[lengths]
    keys[:, 0] = lengths
    words = keys.view("<u8")
    order = np.lexsort((words[:, 1], words[:, 0]))
    high, low = words[order, 0], words[order, 1]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    new[1:] = (high[1:] != high[:-1]) | (low[1:] != low[:-1])
    firsts = order[new]
    appearance = np.argsort(firsts)
    position = np.empty(len(firsts), dtype=np.intp)
    position[appearance] = np.arange(len(firsts))
    positions = np.empty(len(order), dtype=np.intp)
    positions[order] = position[np.cumsum(new) - 1]
    return firsts[appearance], positions


def _fixed_point(raw: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell of `raw` between `starts` and `ends` as a float, and a mask
    of the cells parsed here: empty cells (NaN) and cells of the form
    ``-?digits[.digits]`` with at most 15 digits, either side of the dot
    possibly empty.

    Such a cell is m / 10**k, with m < 10**15 < 2**53 and k <= 15, so m and
    10**k are exact doubles and one IEEE division rounds the quotient
    correctly: the bits `float()` gives (Clinger 1990). Other cells are left
    to the caller. `raw` must hold 16 bytes before every cell's end.
    """
    lengths = ends - starts
    # The '-' of a 17-byte cell is read from its first byte.
    window = _last_16(raw, ends)
    inside = np.take(_INSIDE, np.minimum(lengths, 16), axis=0)
    digits = window - np.uint8(_ZERO)
    is_digit = (digits < 10).view(np.uint8) & inside
    dots = (window == _DOT).view(np.uint8) & inside
    n_digits = _lane_sums(is_digit.view("<u8"), 0x0101010101010101)
    dot_pair = dots.view("<u8")
    n_dots = _lane_sums(dot_pair, 0x0101010101010101)
    negative = np.frombuffer(raw, dtype=np.uint8)[starts] == _MINUS
    # Digits and at most one dot, after a '-' or not: "1." and ".5" too.
    ok = (
        (n_digits >= 1) & (n_digits <= 15) & (n_dots <= 1)
        & (n_digits + n_dots + negative == lengths)
    )
    # k, the bytes after a single dot: byte i of the second word weighs
    # 7 - i, and of the first word 15 - i, counted as 7 - i plus 8.
    k = _lane_sums(dot_pair, 0x0706050403020100) + (dot_pair[:, 0] != 0) * 8
    # The digits as one number, the dot read as a 0 digit:
    # a = 10 * i * 10**k + f for integer part i and fraction f.
    halves = _eight_digits((digits & is_digit * np.uint8(0xFF)).view("<u8")).reshape(-1, 2)
    a = halves[:, 0] * 10**8 + halves[:, 1]
    scale = np.take(_POW10, k, mode="clip")  # k only counts with one dot
    f = a % scale
    # IEEE division rounds alike in either sign: m / -s is -(m / s), -0.0 too.
    values = np.where(n_dots == 1, (a - f) // 10 + f, a) / np.where(negative, -scale, scale)
    empty = lengths == 0
    values[empty] = math.nan
    return values, ok | empty


class _ColumnBuilder:
    """One CSV column's storage, built a block at a time: float64 pieces
    while every cell parses with `float`, else int32 codes into the
    column's distinct raw cells, in order of first appearance."""

    __slots__ = ("kind", "floats", "index", "codes", "late")

    def __init__(self, kind: str | None):
        self.kind = kind
        self.floats = [] if kind in (None, "float64") else None
        self.index: dict[bytes, int] = {}
        self.codes: list[np.ndarray] = []
        # A column that met a non-float cell after earlier blocks stored
        # floats is coded in a second pass over the file.
        self.late = False

    def add_floats(self, raw: bytes, starts, ends, values, others) -> None:
        """Keep a block's values, parsing the rows in `others` with `float`,
        or turn the column to codes at a cell that is not a float."""
        for i in others:
            try:
                values[i] = float(raw[starts[i]:ends[i]].decode("utf-8"))
            except ValueError:
                self.late = bool(self.floats)
                self.floats = None
                if not self.late:
                    self.add_codes(raw, starts, ends)
                return
        self.floats.append(values.copy())  # not a view that holds the whole batch

    def add_codes(self, raw: bytes, starts, ends) -> None:
        index = self.index
        if (ends - starts).max() <= 15:
            # Only the block's distinct cells are sliced out of `raw`.
            firsts, positions = _distinct_short_cells(raw, starts, ends)
            cells = map(raw.__getitem__, map(slice, starts[firsts].tolist(), ends[firsts].tolist()))
            codes = np.array([index.setdefault(cell, len(index)) for cell in cells], np.int32)
            self.codes.append(codes[positions])
            return
        cells = list(map(raw.__getitem__, map(slice, starts.tolist(), ends.tolist())))
        for cell in dict.fromkeys(cells):
            index.setdefault(cell, len(index))
        self.codes.append(np.fromiter(map(index.__getitem__, cells), np.int32, len(cells)))

    def column(self, rows: int, where: str) -> Column:
        """The column's storage; the builder lets go of its pieces, so only
        one column is ever held twice."""
        floats, codes, self.floats, self.codes = self.floats, self.codes, None, []
        if rows == 0:
            return _readonly(np.empty(0))
        if floats is not None:
            return _readonly(np.concatenate(floats))
        # Each distinct raw cell is decoded and parsed once, in order of
        # first appearance, so the first bad one is the first bad cell.
        entries = (*(cell.decode("utf-8") for cell in self.index), None)
        kind = self.kind or "text"
        return _recode(Coded(np.concatenate(codes), entries),
                       lambda c: _parse_cell(c, kind, where))


def _feed(builders: list[_ColumnBuilder], block) -> int:
    """Add one block of cells to every column; the block's row count."""
    raw, starts, ends = block
    rows = len(starts)
    parsing = [j for j, b in enumerate(builders) if b.floats is not None]
    coding = [j for j, b in enumerate(builders) if b.floats is None and not b.late]
    if parsing:
        # The float columns' cells, column after column, in one batch.
        s, e = starts[:, parsing].T, ends[:, parsing].T
        values, ok = _fixed_point(raw, s.ravel(), e.ravel())
        others = [[] for _ in parsing]
        for cell in np.flatnonzero(~ok).tolist():
            others[cell // rows].append(cell % rows)
        for j, col_starts, col_ends, col_values, col_others in zip(
            parsing, s, e, values.reshape(s.shape), others
        ):
            builders[j].add_floats(raw, col_starts, col_ends, col_values, col_others)
    for j in coding:
        builders[j].add_codes(raw, starts[:, j], ends[:, j])
    return rows


def _utf8_check(data: bytes) -> None:
    """Raise UnicodeDecodeError, at its offset in the file, unless `data`
    is UTF-8. Blocks of whole lines are decoded in turn: a newline byte is
    never inside a character."""
    lo = len(data) if data.isascii() else 0
    while lo < len(data):
        hi = data.find(b"\n", lo + _BLOCK_BYTES) + 1 or len(data)
        try:
            data[lo:hi].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UnicodeDecodeError("utf-8", data, lo + exc.start, lo + exc.end,
                                     exc.reason) from None
        lo = hi


def _oversized(raw: bytes, starts: np.ndarray, ends: np.ndarray, limit: int) -> int | None:
    """The index of the first field longer than `limit` characters, as
    csv.reader counts them, or None; a field's bytes are at least as many."""
    for f in np.flatnonzero(ends - starts > limit).tolist():
        if len(raw[starts[f]:ends[f]].decode("utf-8")) > limit:
            return f
    return None


def _line_records(path, data: bytes):
    """Tokenize a CSV without quotes or carriage returns: records are lines,
    fields are split at commas, blank lines are dropped, as csv.reader
    reads such a file. Yields the header's names, then per block of lines
    the block's bytes padded with `_PAD` zeros and the (rows, width) start
    and end offsets of its cells. Raises ParseError naming the physical
    line of the first record that holds a field longer than
    `csv.field_size_limit()` or, after the header, is ragged."""
    limit = csv.field_size_limit()
    too_long = f"{path}: field larger than field limit ({limit}) at line"  # csv.reader's words
    lo = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    line = 1  # the physical line the block starts on
    width = None
    while lo < len(data):
        hi = data.find(b"\n", lo + _BLOCK_BYTES - 1) + 1 or len(data)
        raw = _PADDING + data[lo:hi] + _PADDING
        lo = hi
        padded = np.frombuffer(raw, dtype=np.uint8)
        body = padded[_PAD:-_PAD]
        # Fields end at commas and newlines; the file's last line may lack one.
        ends = np.flatnonzero((body == _NEWLINE) | (body == _COMMA)) + _PAD
        if body[-1] != _NEWLINE:
            ends = np.append(ends, len(raw) - _PAD)
        starts = np.concatenate(([_PAD], ends[:-1] + 1))
        last = np.flatnonzero(padded[ends] != _COMMA)  # each line's last field
        counts = np.diff(last, prepend=-1)
        lines = np.arange(line, line + len(last))
        line += len(last)
        blank = (counts == 1) & (ends[last] == starts[last])
        if width is None:  # the first line that is not blank is the header
            named = np.flatnonzero(~blank)
            if not len(named):
                continue
            h = named[0]
            cut = last[h] + 1
            header = slice(cut - counts[h], cut)
            if _oversized(raw, starts[header], ends[header], limit) is not None:
                raise ParseError(f"{too_long} {lines[h]}")
            yield [raw[s:e].decode("utf-8")
                   for s, e in zip(starts[header].tolist(), ends[header].tolist())]
            width = int(counts[h])
            starts, ends, last = starts[cut:], ends[cut:], last[h + 1:] - cut
            counts, lines, blank = counts[h + 1:], lines[h + 1:], blank[h + 1:]
        ragged = np.flatnonzero(~blank & (counts != width))
        first_ragged = ragged[0] if len(ragged) else len(lines)
        big = _oversized(raw, starts, ends, limit)
        big_line = len(lines) if big is None else np.searchsorted(last, big)
        if big_line < len(lines) and big_line <= first_ragged:
            raise ParseError(f"{too_long} {lines[big_line]}")
        if len(ragged):
            raise ParseError(f"{path}: ragged row at line {lines[first_ragged]} "
                             f"({counts[first_ragged]} fields, expected {width})")
        if blank.any():
            fields = np.repeat(~blank, counts)
            starts, ends = starts[fields], ends[fields]
        if len(starts):
            yield raw, starts.reshape(-1, width), ends.reshape(-1, width)


def _pack(rows: list[list[str]], width: int):
    """Records read by csv.reader as one block of cells for `_ColumnBuilder`."""
    cells = [cell.encode("utf-8") for row in rows for cell in row]
    lengths = np.fromiter(map(len, cells), np.int64, len(cells))
    ends = np.cumsum(lengths) + _PAD
    raw = _PADDING + b"".join(cells) + _PADDING
    return raw, (ends - lengths).reshape(-1, width), ends.reshape(-1, width)


def _csv_records(path, data: bytes):
    """Tokenize a CSV with quotes or carriage returns through csv.reader,
    yielding what `_line_records` yields and raising what it raises."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as text:
        reader = csv.reader(text)
        width = None
        line = 1  # the physical line the next record starts on
        rows, size = [], 0
        while True:
            try:
                row = next(reader, None)
            except csv.Error as exc:
                raise ParseError(f"{path}: {exc} at line {line}") from None
            if row is None:
                break
            start, line = line, reader.line_num + 1
            if not row:
                continue  # a blank line
            if width is None:
                yield row
                width = len(row)
            elif len(row) != width:
                raise ParseError(
                    f"{path}: ragged row at line {start} ({len(row)} fields, expected {width})"
                )
            else:
                rows.append(row)
                size += sum(map(len, row)) + width
                if size >= _BLOCK_BYTES:
                    yield _pack(rows, width)
                    rows, size = [], 0
        if rows:
            yield _pack(rows, width)


def from_csv(path: str | os.PathLike, schema_hints: Mapping[str, str] | None = None) -> DataFrame:
    """Load an RFC-4180-style CSV (UTF-8, header row required) as an untagged frame.

    Unhinted columns where every non-empty cell parses as a float are read
    as float64; everything else is text. Hints (name -> one of float64,
    int64, bool, text/categorical) override inference. Empty cells are
    missing.

    The file is read once as bytes. Without a quote or a carriage return it
    is split at newlines and commas with numpy; otherwise csv.reader reads
    it. Either way the frame is the one csv.reader's cells give, parsed cell
    by cell with `float` (see `_fixed_point`), and a field longer than
    `csv.field_size_limit()` is a ParseError naming its line.
    """
    check_arguments(from_csv, locals())
    hints = dict(schema_hints or {})
    for name, kind in hints.items():
        if not isinstance(kind, str) or kind not in _HINT_KINDS:
            raise ConfigError(f"unknown schema hint kind {kind!r} for column {name!r}")
    with open(path, "rb") as fh:
        data = fh.read()
    _utf8_check(data)
    tokenize = _csv_records if b'"' in data or b"\r" in data else _line_records
    blocks = tokenize(path, data)
    header = next(blocks, None)
    if header is None:
        raise ParseError(f"{path}: empty CSV (header row required)")
    if len(set(header)) != len(header):
        dupes = sorted({n for n in header if header.count(n) > 1})
        raise SchemaError(f"{path}: duplicate header names: {dupes}")
    unknown = [n for n in hints if n not in header]
    if unknown:
        raise SchemaError(f"{path}: schema hints for absent columns: {unknown}")
    builders = [_ColumnBuilder(hints.get(name)) for name in header]
    rows = sum(_feed(builders, block) for block in blocks)
    late = [j for j, b in enumerate(builders) if b.late]
    if late:
        blocks = tokenize(path, data)
        next(blocks)
        for raw, starts, ends in blocks:
            for j in late:
                builders[j].add_codes(raw, starts[:, j], ends[:, j])
    columns = [b.column(rows, f"{path}: column {name!r}") for name, b in zip(header, builders)]
    return DataFrame._from_storage(header, columns, "none")
