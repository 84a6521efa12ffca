import copy
import csv
import hashlib
import io
import math
import pickle
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holdout import (
    ConfigError,
    DataFrame,
    ParseError,
    SchemaError,
    WorkflowError,
    canonical_encode,
    fingerprint,
    from_csv,
    select_columns,
    split,
)
from holdout import frame
from holdout.frame import _HINT_KINDS, _parse_cell, _readonly, _recode, _store
from holdout.prepare import fit_transformer
from holdout.signatures import check_arguments

from conftest import make_classification_frame


class TestConstruction:
    def test_basic(self):
        df = DataFrame({"x": [1.0, 2.0], "y": ["a", "b"]})
        assert df.row_count == 2
        assert df.column_names == ("x", "y")
        assert df.partition_tag == "none"

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            DataFrame([("x", [1]), ("x", [2])])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(SchemaError, match="unequal"):
            DataFrame({"x": [1, 2], "y": [1]})

    def test_zero_columns_rejected(self):
        with pytest.raises(SchemaError):
            DataFrame({})

    def test_immutable(self):
        df = DataFrame({"x": [1]})
        with pytest.raises(AttributeError):
            df._tag = "train"

    def test_nan_normalizes_to_missing(self):
        df = DataFrame({"x": [float("nan"), 1.0]})
        assert df.column("x") == (None, 1.0)

    def test_unsupported_type_rejected(self):
        with pytest.raises(SchemaError, match="unsupported"):
            DataFrame({"x": [object()]})


class TestStorage:
    """Float columns are stored as arrays; readers still see Python cells."""

    def frame(self):
        return DataFrame(
            {
                "f": np.array([1.5, np.nan, -0.0]),
                "i": np.array([1, -2, 3], dtype=np.int64),
                "b": np.array([True, False, True]),
                "t": ["a", None, "ü"],
                "m": [1, 2.5, None],
            }
        )

    def test_column_returns_tuples_of_python_cells(self):
        df = self.frame()
        allowed = {
            "f": {float, type(None)},
            "i": {int},
            "b": {bool},
            "t": {str, type(None)},
            "m": {int, float, type(None)},
        }
        derived = (
            df,
            df._take([2, 0, 1]),
            select_columns(df, ["t", "f"]),
            DataFrame(df.columns()),
        )
        for frame in derived:
            for name in frame.column_names:
                col = frame.column(name)
                assert type(col) is tuple
                assert {type(v) for v in col} <= allowed[name]
        assert df.column("f") == (1.5, None, -0.0)
        assert df.row(1) == (None, -2, False, None, 2.5)

    def test_rebuilt_frame_equal_with_equal_hash(self):
        df = self.frame()
        rebuilt = DataFrame(df.columns())
        assert rebuilt == df
        assert hash(rebuilt) == hash(df)
        # An int/float column and its all-float twin hold equal cells.
        mixed, floats = DataFrame({"x": [1, 2.0]}), DataFrame({"x": [1.0, 2.0]})
        assert mixed == floats and hash(mixed) == hash(floats)
        assert df != df._take([2, 0, 1])

    def test_stored_arrays_cannot_be_written(self):
        source = np.array([1.0, 2.0, 3.0])
        df = DataFrame({"x": source, "y": [1, 2, 3]})
        source[0] = 99.0
        prepared = fit_transformer(df, "y", ["standardize"], ("regression", None)).data
        derived = (
            df,
            df._take([2, 1, 0]),
            select_columns(df, ["x"]),
            df._retag("train"),
            prepared,
        )
        for frame in derived:
            with pytest.raises(ValueError, match="read-only"):
                frame._col("x")[0] = 5.0
        assert df.column("x") == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda df: pickle.loads(pickle.dumps(df))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_content_and_read_only_storage(self, duplicate):
        df = self.frame()._retag("train")
        twin = duplicate(df)
        assert twin == df and twin.partition_tag == "train"
        assert fingerprint(twin) == fingerprint(df)
        with pytest.raises(ValueError, match="read-only"):
            twin._col("f")[0] = 5.0
        with pytest.raises(AttributeError, match="immutable"):
            twin._tag = "test"

    def test_unpickled_partition_frames_find_their_records(self, registry):
        p = split(make_classification_frame(40), "y", seed=3, registry=registry)
        for member, role in ((p.train, "train"), (p.test, "test"), (p.dev, "dev")):
            twin = pickle.loads(pickle.dumps(member))
            record = registry.lookup(twin)
            assert record is not None and record.role == role
            assert record is registry.lookup(member)


class TestCanonicalEncode:
    def test_int_float_coercion(self):
        assert canonical_encode(3) == canonical_encode(3.0)

    def test_missing_sentinel(self):
        assert canonical_encode(None) == b"\xff"

    def test_nan_is_missing(self):
        assert canonical_encode(float("nan")) == b"\xff"

    def test_text_length_prefixed(self):
        a, ab = canonical_encode("a"), canonical_encode("ab")
        assert a != ab
        assert a[0] == ab[0] == 0x04

    def test_bool_distinct_from_int(self):
        assert canonical_encode(True) != canonical_encode(1)
        assert canonical_encode(False) != canonical_encode(0)

    def test_negative_zero_collapses(self):
        assert canonical_encode(-0.0) == canonical_encode(0.0)

    def test_huge_int_distinct_path(self):
        # 2**53 + 1 is not float-representable; nearby odd ints must differ.
        assert canonical_encode(2**53 + 1) != canonical_encode(float(2**53))

    @given(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(2**62), max_value=2**62),
            st.floats(allow_nan=False, allow_infinity=True),
            st.text(max_size=20),
        ),
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(2**62), max_value=2**62),
            st.floats(allow_nan=False, allow_infinity=True),
            st.text(max_size=20),
        ),
    )
    def test_injective_up_to_declared_coercions(self, a, b):
        same_bytes = canonical_encode(a) == canonical_encode(b)
        # The only permitted collisions: int <-> float at equal value and
        # identical values.
        if same_bytes:
            if isinstance(a, bool) or isinstance(b, bool):
                assert a is b or a == b and type(a) is type(b)
            elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
                assert float(a) == float(b)
            else:
                assert a == b


_CELLS = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.booleans(),
    st.text(max_size=4),
)


class TestFingerprint:
    @given(
        st.lists(st.one_of(st.none(), st.floats()), min_size=1, max_size=20),
        st.lists(_CELLS, min_size=1, max_size=20),
        st.lists(st.integers(min_value=0, max_value=19), max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_cell_reference(self, floats, cells, rows):
        # The reference hashes `canonical_encode` cell by cell, the way the
        # README defines a column digest.
        n = min(len(floats), len(cells))
        df = DataFrame({"f": floats[:n], "c": cells[:n]})
        for frame in (df, df._take([r % n for r in rows])):
            expected = {}
            for name in frame.column_names:
                h = hashlib.sha256()
                for cell in frame.column(name):
                    h.update(canonical_encode(cell))
                expected[name] = h.digest()
            assert fingerprint(frame).column_digests == expected

    def test_equal_cells_of_different_kinds_encode_apart(self):
        # 1 == 1.0 == True in Python, but a bool encodes differently.
        cells = [1, True, 1.0, 0, False, -0.0, None, "1"]
        expected = hashlib.sha256(b"".join(map(canonical_encode, cells))).digest()
        assert fingerprint(DataFrame({"c": cells})).column_digests == {"c": expected}

    def test_deterministic_within_session(self, toy_frame):
        assert fingerprint(toy_frame) == fingerprint(toy_frame)
        rebuilt = DataFrame(toy_frame.columns())
        assert fingerprint(rebuilt) == fingerprint(toy_frame)

    def test_column_order_independent(self):
        a = DataFrame([("a", [1, 2]), ("b", [3, 4])])
        b = DataFrame([("b", [3, 4]), ("a", [1, 2])])
        assert fingerprint(a) == fingerprint(b)

    def test_tag_does_not_change_fingerprint(self, toy_frame):
        tagged = toy_frame._retag("train")
        assert fingerprint(tagged) == fingerprint(toy_frame)

    def test_row_swap_changes_digests(self):
        # Oracle: columns whose two swapped values differ must change digest;
        # columns with equal values at both rows must not.
        base = DataFrame({"a": [1.0, 2.0, 3.0], "b": [5.0, 5.0, 9.0], "c": ["x", "y", "z"]})
        swapped = DataFrame({"a": [2.0, 1.0, 3.0], "b": [5.0, 5.0, 9.0], "c": ["y", "x", "z"]})
        d0 = fingerprint(base).column_digests
        d1 = fingerprint(swapped).column_digests
        assert d0["a"] != d1["a"]
        assert d0["c"] != d1["c"]
        assert d0["b"] == d1["b"]  # values at rows 0,1 equal: content unchanged

    def test_row_count_in_identity(self):
        a = DataFrame({"x": [1.0]})
        b = DataFrame({"x": [1.0, 1.0]})
        assert fingerprint(a) != fingerprint(b)

    def test_cross_process_determinism(self, toy_frame):
        script = (
            "from holdout import DataFrame, fingerprint\n"
            "df = DataFrame({'x': [1, 2.5, None, True], 't': ['a', 'b', '', 'd']})\n"
            "print(fingerprint(df).hex())\n"
        )
        runs = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True
            ).stdout.strip()
            for _ in range(2)
        }
        local = fingerprint(
            DataFrame({"x": [1, 2.5, None, True], "t": ["a", "b", "", "d"]})
        ).hex()
        assert runs == {local}

    @given(
        data=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=2,
            max_size=8,
        ),
        edit_at=st.integers(min_value=0, max_value=7),
        delta=st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=200)
    def test_single_cell_edit_changes_exactly_one_digest(self, data, edit_at, delta):
        edit_at %= len(data)
        other = [float(i) for i in range(len(data))]
        before = DataFrame({"a": data, "b": other})
        edited_col = list(data)
        edited_col[edit_at] = edited_col[edit_at] + delta
        assume(edited_col[edit_at] != data[edit_at])  # float addition can no-op
        after = DataFrame({"a": edited_col, "b": other})
        d0, d1 = fingerprint(before).column_digests, fingerprint(after).column_digests
        assert d0["a"] != d1["a"]
        assert d0["b"] == d1["b"]


class TestSelectColumns:
    def test_digest_subset(self, toy_frame):
        sub = select_columns(toy_frame, ["x1"])
        full = fingerprint(toy_frame).column_digests
        assert fingerprint(sub).column_digests == {"x1": full["x1"]}

    def test_select_all_equals_original(self, toy_frame):
        sub = select_columns(toy_frame, list(toy_frame.column_names))
        assert fingerprint(sub) == fingerprint(toy_frame)

    def test_empty_projection_rejected(self, toy_frame):
        with pytest.raises(SchemaError):
            select_columns(toy_frame, [])

    def test_unknown_name_rejected(self, toy_frame):
        with pytest.raises(SchemaError, match="unknown"):
            select_columns(toy_frame, ["nope"])

    def test_tag_preserved(self, toy_frame):
        tagged = toy_frame._retag("valid")
        assert select_columns(tagged, ["x1"]).partition_tag == "valid"

    def test_plain_string_rejected(self):
        # A string is a sequence of one-letter names; "xy" is not ["x", "y"].
        df = DataFrame({"x": [1.0, 2.0], "y": [3.0, 4.0]})
        with pytest.raises(ConfigError, match="names must be a list of names, got 'xy'"):
            select_columns(df, "xy")


class TestFromCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "basic.csv"
        p.write_text("x,y\n1,2\n3,4\n5,6\n")
        df = from_csv(p)
        assert df.row_count == 3
        assert df.partition_tag == "none"
        assert df.column("x") == (1.0, 3.0, 5.0)  # numeric-looking -> float64

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            from_csv(p)

    def test_duplicate_header(self, tmp_path):
        p = tmp_path / "dupe.csv"
        p.write_text("x,x\n1,2\n")
        with pytest.raises(SchemaError):
            from_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("x,y\n1,2\n3\n")
        with pytest.raises(ParseError, match="line 3"):
            from_csv(p)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("a,b\n\n1,2\n3\n", 4),
            ('a,b\n"x\ny",1\n3\n', 4),
            ('\n\na,b\r\n"x\r\n\r\ny",1\r\n\r\n3\r\n', 8),
            ('\ufeffa,b\n1,2\n"x\ny"\n', 3),
        ],
        ids=["blank line", "quoted line break", "CRLF and blank lines",
             "BOM, ragged row spans lines"],
    )
    def test_ragged_row_names_its_physical_line(self, tmp_path, text, line):
        p = tmp_path / "ragged.csv"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError, match=rf"ragged row at line {line} "):
            from_csv(p)

    def test_text_inference_and_missing(self, tmp_path):
        p = tmp_path / "mixed.csv"
        p.write_text("x,name\n1,alice\n,bob\n3,\n")
        df = from_csv(p)
        assert df.column("x") == (1.0, None, 3.0)
        assert df.column("name") == ("alice", "bob", None)

    def test_hints(self, tmp_path):
        p = tmp_path / "hints.csv"
        p.write_text("n,flag,code\n1,true,7\n2,false,8\n")
        df = from_csv(p, schema_hints={"n": "int64", "flag": "bool", "code": "text"})
        assert df.column("n") == (1, 2)
        assert df.column("flag") == (True, False)
        assert df.column("code") == ("7", "8")

    def test_hint_for_absent_column(self, tmp_path):
        p = tmp_path / "absent.csv"
        p.write_text("x\n1\n")
        with pytest.raises(SchemaError, match="absent"):
            from_csv(p, schema_hints={"zz": "text"})

    def test_int_float_csv_same_fingerprint(self, tmp_path):
        a = tmp_path / "ints.csv"
        a.write_text("x\n1\n2\n")
        b = tmp_path / "floats.csv"
        b.write_text("x\n1.0\n2.0\n")
        assert fingerprint(from_csv(a)) == fingerprint(from_csv(b))

    def test_quoted_fields(self, tmp_path):
        p = tmp_path / "quoted.csv"
        p.write_text('x,t\n1,"hello, world"\n2,"line"\n')
        assert from_csv(p).column("t") == ("hello, world", "line")


class TestCsvTokenizers:
    """Files without a quote or a carriage return are split with numpy;
    the others go through csv.reader. Both give the same cells and the
    same errors."""

    QUOTING = pytest.mark.parametrize("quote", ["", '"'], ids=["bytes", "csv.reader"])

    @QUOTING
    def test_oversized_field_names_its_line(self, tmp_path, quote):
        limit = csv.field_size_limit()
        p = tmp_path / "big.csv"
        p.write_text(f"a,b\n\n1,{quote}2{quote}\n{'x' * (limit + 1)},3\n")
        message = rf"big.csv: field larger than field limit \({limit}\) at line 4$"
        with pytest.raises(ParseError, match=message):
            from_csv(p)

    @QUOTING
    def test_oversized_header_field_names_its_line(self, tmp_path, quote):
        limit = csv.field_size_limit()
        p = tmp_path / "big.csv"
        p.write_text(f"\n{quote}a{quote},{'b' * (limit + 1)}\n1,2\n")
        with pytest.raises(ParseError, match=r"limit \(\d+\) at line 2$"):
            from_csv(p)

    @QUOTING
    def test_field_at_the_limit_loads(self, tmp_path, quote):
        # The limit counts characters: 2-byte characters may take more bytes.
        limit = csv.field_size_limit()
        wide = "\u00e9" * limit
        p = tmp_path / "wide.csv"
        p.write_text(f"a,b\n{quote}1{quote},{'x' * limit}\n2,{wide}\n", encoding="utf-8")
        assert from_csv(p).column("b") == ("x" * limit, wide)

    @QUOTING
    def test_column_turning_text_in_a_late_block(self, tmp_path, quote):
        # x reads as floats for thousands of rows, then one text cell makes
        # it text: its cells are read again from the first block.
        rows = [f"{quote}{i * 0.25}{quote},{i % 3}" for i in range(60000)]
        rows[-2] = "oops,1"
        p = tmp_path / "late.csv"
        p.write_text("x,y\n" + "\n".join(rows) + "\n")
        df = from_csv(p)
        assert p.stat().st_size > 3 * frame._BLOCK_BYTES
        assert isinstance(df._col("x"), frame.Coded) and isinstance(df._col("y"), np.ndarray)
        assert df.column("x")[:3] == ("0.0", "0.25", "0.5")
        assert df.column("x")[-2:] == ("oops", "14999.75")
        assert _load(from_csv, p) == _load(_reference_from_csv, p)

    @QUOTING
    def test_ragged_row_in_a_late_block(self, tmp_path, quote):
        p = tmp_path / "ragged.csv"
        p.write_text(f"{quote}a{quote},b\n" + "1,2\n\n" * 20000 + "3\n")
        with pytest.raises(ParseError, match="ragged row at line 40002 "):
            from_csv(p)

    def test_header_after_blocks_of_blank_lines(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("\n" * (3 * frame._BLOCK_BYTES) + "a,b\n1,x\n")
        df = from_csv(p)
        assert df.columns() == {"a": (1.0,), "b": ("x",)}

    @QUOTING
    @pytest.mark.parametrize("rows", [1, 50000])
    def test_bad_utf8_names_its_offset_in_the_file(self, tmp_path, quote, rows):
        p = tmp_path / "latin1.csv"
        text = f"{quote}a{quote},b\n" + "1,2\n" * rows + "3,caf\u00e9\n"
        p.write_bytes(text.encode("latin-1"))
        with pytest.raises(UnicodeDecodeError) as error:
            from_csv(p)
        assert (error.value.start, error.value.reason) == (len(text) - 2, "invalid continuation byte")


def test_fixed_point_cells_read_as_float_reads_them(tmp_path):
    # The vectorized m / 10**k against Python's float, bit for bit, on
    # -?digits[.digits] cells of 1 to 17 digits, "1." and ".5" forms among
    # them: up to 15 digits take the fast path.
    rng = np.random.default_rng(17)
    n = 50000
    lengths = rng.integers(1, 18, size=n)
    points = rng.integers(-1, lengths + 1)  # -1: no decimal point
    digits = rng.integers(48, 58, size=(n, 17), dtype=np.uint8).tobytes().decode()
    cells = []
    for i, (size, point) in enumerate(zip(lengths.tolist(), points.tolist())):
        cell = digits[17 * i:17 * i + size]
        cell = f"{cell[:point]}.{cell[point:]}" if point >= 0 else cell
        cells.append("-" + cell if i % 3 == 0 else cell)
    p = tmp_path / "fixed.csv"
    p.write_text("x\n" + "\n".join(cells) + "\n")
    got = from_csv(p)._col("x")
    want = np.array([float(c) for c in cells])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_from_csv_peak_memory_at_20k_rows(tmp_path):
    # ROADMAP item 2's bound on perfbench's layout: 18 float columns with 2%
    # empty cells, two text columns and a float target, 20,000 rows.
    rng = np.random.default_rng(0)
    n = 20000
    floats = np.char.mod("%.6f", rng.normal(size=(n, 18)))
    floats[rng.random(size=(n, 18)) < 0.02] = ""
    cat_a = np.char.add("cat_a_l", rng.integers(0, 5, size=n).astype(str))
    cat_b = np.char.add("cat_b_l", rng.integers(0, 8, size=n).astype(str))
    y = np.char.mod("%.6f", rng.normal(size=n))
    table = np.column_stack([floats, cat_a, cat_b, y])
    header = [f"x{j}" for j in range(18)] + ["cat_a", "cat_b", "y"]
    p = tmp_path / "wide.csv"
    p.write_text("\n".join(map(",".join, [header, *table.tolist()])) + "\n")
    tracemalloc.start()
    try:
        df = from_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert df.row_count == n and df.column("cat_b")[0].startswith("cat_b_l")
    assert peak <= 12e6, f"from_csv peak {peak / 1e6:.1f} MB"


def test_numpy_scalars_normalize_to_python_cells():
    import numpy as np

    a = DataFrame({"x": np.array([1.0, 2.0]), "y": np.array([True, False])})
    b = DataFrame({"x": [1.0, 2.0], "y": [True, False]})
    assert fingerprint(a) == fingerprint(b)


# --- from_csv against the reader it replaced --------------------------------
#
# `_reference_from_csv` is a verbatim copy of `from_csv`'s body from before
# the byte tokenizer, with its two helpers: every file went through
# csv.reader and every cell through Python's `float`. The loader must give
# the same frame, or raise the same error, on any file either tokenizer
# takes.


def _reference_parse_column(cells, kind, where):
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


def _reference_record_line(path, index):
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


def _reference_from_csv(path, schema_hints=None):
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
                f"{path}: ragged row at line {_reference_record_line(path, index)} "
                f"({len(row)} fields, expected {width})"
            )
    raw_cols = list(zip(*rows[1:])) if len(rows) > 1 else [()] * width
    columns = [
        _reference_parse_column(cells, hints.get(name), f"{path}: column {name!r}")
        for name, cells in zip(header, raw_cols)
    ]
    return DataFrame._from_storage(header, columns, "none")


def _load(load, path, hints=None):
    """What a loader makes of a file: each column's kind, a coded column's
    codes and dictionary (in its order), and the frame's fingerprint, or
    the error's class and message."""
    try:
        df = load(path, hints)
    except (WorkflowError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    storage = [(c.codes.tolist(), c.values) if isinstance(c, frame.Coded) else "float"
               for c in df._columns]
    return df.column_names, storage, fingerprint(df), df.columns()


@st.composite
def _fixed_point_text(draw):
    """-?digits[.digits], with 1 to 19 digits, often around the 15-digit edge."""
    size = draw(st.one_of(st.integers(14, 19), st.integers(1, 19)))
    digits = draw(st.text(alphabet="0123456789", min_size=size, max_size=size))
    point = draw(st.integers(0, size - 1))  # 0: no decimal point
    sign = draw(st.sampled_from(["", "-"]))
    return sign + (f"{digits[:point]}.{digits[point:]}" if point else digits)


_ODD_CELLS = [
    "", "-0", "-0.0", "0", "007", "007.50", "-00.000", "1.", ".5", "-.5", "-0.", "-.", "+1",
    "1e-3", "2.5E10", "1e400", "-1e-400", "nan", "-nan", "NaN", "inf", "-inf",
    " 1.5", "2 ", "\t3", "1_0", "١٢", "0x10", "-", ".", "--1", "1-2", "1..2",
    "true", "FALSE", "\u00e9", "x\x00", "\ufeffa",
]
_NUMBER_TEXT = st.one_of(
    _fixed_point_text(),
    st.floats(allow_nan=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
)
# Cells the loader keys by their 16-byte window (up to 15 bytes) or slices
# (longer), either side of the edge: a NUL byte next to its NUL-free twin,
# ASCII of 14 to 17 bytes, multi-byte UTF-8 of about 15 bytes.
_NUL_TWINS = ["\x00", "\x00a", "a", "a\x00b", "ab", "\x00\x00", "b\x00"]


@st.composite
def _about_15_utf8_bytes(draw):
    """Text of 13 to 16 UTF-8 bytes that starts with a multi-byte character."""
    text = draw(st.characters(min_codepoint=0x80, exclude_categories=("Cs",)))
    while len(text.encode("utf-8")) < 13:
        text += draw(st.characters(exclude_categories=("Cs",)))
    return text


_CELL_TEXT = st.one_of(
    _NUMBER_TEXT,
    st.sampled_from(_ODD_CELLS),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=4),
    st.sampled_from(_NUL_TWINS),
    st.text(st.characters(max_codepoint=0x7F), min_size=14, max_size=17),
    _about_15_utf8_bytes(),
)
_COLUMN_CELLS = st.sampled_from([
    _NUMBER_TEXT,
    st.one_of(_NUMBER_TEXT, st.just("")),
    st.one_of(_NUMBER_TEXT, _NUMBER_TEXT, _NUMBER_TEXT, st.sampled_from(_ODD_CELLS)),
    _CELL_TEXT,
])



@pytest.mark.parametrize("cell", _ODD_CELLS + [
    "1.2.3", "1..2", "..", "-1-", "1-", "--", "-0.-", "12345678901234.5",
    "-12345678901234.5", "123456789012345.6", "1234567890123456", "-1234567890123456",
])
@pytest.mark.parametrize("quote", ["", '"'], ids=["bytes", "csv.reader"])
def test_odd_cell_matches_the_reference_reader(tmp_path, cell, quote):
    path = tmp_path / "odd.csv"
    path.write_text(f"x,y\n1.5,{quote}a{quote}\n{cell},b\n-2,c\n", encoding="utf-8")
    assert _load(from_csv, path) == _load(_reference_from_csv, path)

@pytest.mark.parametrize("quote", ["", '"'], ids=["bytes", "csv.reader"])
def test_nul_bytes_and_window_edges_match_the_reference_reader(tmp_path, quote):
    # t's cells have at most 15 bytes, so its block is keyed by window; u's
    # have 16, told apart only by their first byte, so its block is sliced.
    short = _NUL_TWINS + ["", "x" * 15, "y" + "x" * 14, "\u00e9" * 7 + "a", "\x00" * 15]
    wide = ["x" * 16, "y" + "x" * 15, "\u00e9" * 8, "\x00" + "x" * 15]
    rows = [(short[i % len(short)], wide[i % len(wide)]) for i in range(2 * len(short))]
    path = tmp_path / "edges.csv"
    path.write_text("t,u\n" + "".join(f"{quote}{t}{quote},{quote}{u}{quote}\n" for t, u in rows),
                    encoding="utf-8")
    got = _load(from_csv, path)
    assert got == _load(_reference_from_csv, path)
    (_, t_values), (_, u_values) = got[1]
    assert len(t_values) == len(short) and len(u_values) == len(wide) + 1  # "" is missing


@pytest.mark.parametrize("quote", ["", '"'], ids=["bytes", "csv.reader"])
def test_long_text_cell_in_a_late_block(tmp_path, quote):
    # Every block keys its cells by window but one, late in the file, whose
    # one cell of 16 bytes makes it slice them all: codes and dictionary
    # order are still those of first appearance.
    rows = [f"{quote}k{i % 7}{'é' * (i % 3)}{quote},{i}" for i in range(40000)]
    rows[-100] = f"{quote}{'long' * 4}{quote},0"
    path = tmp_path / "late_long.csv"
    path.write_text("t,n\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert path.stat().st_size > 3 * frame._BLOCK_BYTES
    got = _load(from_csv, path)
    assert got == _load(_reference_from_csv, path)
    codes, values = got[1][0]
    assert values[:3] == ("k0", "k1é", "k2éé") and values[-2:] == ("long" * 4, None)
    assert codes[-100] == len(values) - 2


@st.composite
def _csv_files(draw):
    """A CSV file's bytes and schema hints: numbers and odd cells, a BOM or
    not, blank lines, a final newline or not, header-only files, quoting or
    CRLF (which take csv.reader), the odd ragged row or duplicate name."""
    width = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "é", "", " a"]),
                          min_size=width, max_size=width, unique=True))
    if width > 1 and draw(st.integers(0, 9)) == 0:
        names[-1] = names[0]
    n = draw(st.integers(0, 25))
    columns = [draw(st.lists(draw(_COLUMN_CELLS), min_size=n, max_size=n)) for _ in names]
    rows = [list(row) for row in zip(*columns)]
    if rows and draw(st.integers(0, 9)) == 0:  # a ragged row
        row = draw(st.sampled_from(rows))
        row.append("1") if draw(st.booleans()) else row.pop()
    buffer = io.StringIO()
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    quoting = csv.QUOTE_ALL if draw(st.integers(0, 5)) == 0 else csv.QUOTE_MINIMAL
    csv.writer(buffer, lineterminator=newline, quoting=quoting).writerows([names, *rows])
    lines = buffer.getvalue().split(newline)[:-1]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")  # blank lines
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    kinds = st.sampled_from(sorted(_HINT_KINDS))
    hints = draw(st.dictionaries(st.sampled_from(names), kinds, max_size=2))
    return text.encode("utf-8"), hints


@given(_csv_files(), st.sampled_from([1 << 17, 64, 1]))
@settings(max_examples=300, deadline=None)
def test_from_csv_matches_the_reference_reader(tmp_path_factory, file, block_bytes):
    data, hints = file
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(data)
    # Small blocks make every file span many, as a large file does.
    with mock.patch.object(frame, "_BLOCK_BYTES", block_bytes):
        got = _load(from_csv, path, hints)
    assert got == _load(_reference_from_csv, path, hints)
