"""Non-float columns through storage, row takes, projections, copies and
pickling: every cell keeps its kind, value and sign of zero, fingerprints
equal the per-cell `canonical_encode` stream, and statistics fitted on a
taken frame depend only on the rows that frame holds."""

import copy
import hashlib
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holdout import ConfigError, DataFrame, SchemaError, canonical_encode, fingerprint
from holdout import select_columns
from holdout.frame import Coded, _classes, _column_bytes
from holdout.prepare import fit_transformer

_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    # Past 2**53 (encoded as 0x02) and past int64 (not encodable at all).
    st.integers(min_value=-(2**65), max_value=2**65),
    st.sampled_from([2**53 + 1, -(2**63), 2**63, 0, 1]),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0]),
    st.text(max_size=3),
)

_DUPLICATES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda df: pickle.loads(pickle.dumps(df)),
}


def _exact(cells):
    """Cells compared by kind and repr, so 1, 1.0 and True differ and so
    do 0.0 and -0.0."""
    return [(type(v), repr(v)) for v in cells]


def _reference_digest(cells):
    h = hashlib.sha256()
    for cell in cells:
        h.update(canonical_encode(cell))
    return h.digest()


def _check(frame, expected: dict):
    assert frame.column_names == tuple(expected)
    for name, cells in expected.items():
        col = frame.column(name)
        assert type(col) is tuple
        assert _exact(col) == _exact(cells)
    try:
        reference = {name: _reference_digest(cells) for name, cells in expected.items()}
    except SchemaError:
        with pytest.raises(SchemaError, match="64-bit"):
            fingerprint(frame)
        return
    assert fingerprint(frame).column_digests == reference


class TestCodedColumns:
    @given(
        st.lists(_CELLS, min_size=1, max_size=24),
        st.lists(st.integers(min_value=0, max_value=23), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_cells_and_fingerprints_survive_derivation(self, cells, rows):
        n = len(cells)
        rows = [r % n for r in rows] or [0]
        text = [None if v is None else str(v)[:2] for v in cells]
        df = DataFrame({"m": cells, "t": text})
        _check(df, {"m": cells, "t": text})
        taken = df._take(rows)
        expected = {"m": [cells[r] for r in rows], "t": [text[r] for r in rows]}
        _check(taken, expected)
        again = list(range(len(rows)))[::-1]
        _check(taken._take(again), {k: [v[i] for i in again] for k, v in expected.items()})
        _check(select_columns(taken, ["t", "m"]), {"t": expected["t"], "m": expected["m"]})
        for duplicate in _DUPLICATES.values():
            twin = duplicate(taken)
            assert twin == taken
            _check(twin, expected)

    @given(
        st.lists(st.sampled_from(["b", "a", "c", "dd", None]), min_size=2, max_size=30),
        st.lists(st.integers(min_value=0, max_value=29), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_hot_order_is_first_appearance_in_the_taken_frame(self, cells, rows):
        n = len(cells)
        rows = [r % n for r in rows]
        fold_cells = [cells[r] for r in rows]
        assume(any(v is not None for v in fold_cells))
        df = DataFrame({"c": cells, "y": [float(i) for i in range(n)]})
        fold = df._take(rows)
        prepared = fit_transformer(fold, "y", ["one_hot"], ("regression", None))
        expected = tuple(dict.fromkeys(v for v in fold_cells if v is not None))
        assert prepared.state.steps[0].params["c"] == expected
        for k, cat in enumerate(expected):
            indicator = prepared.data.column(f"c={cat}")
            assert indicator == tuple(float(v == cat) for v in fold_cells)

    @given(
        st.lists(
            st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0]), min_size=2, max_size=12
        ),
        st.permutations(range(12)),
    )
    @settings(max_examples=100, deadline=None)
    def test_target_classes_use_first_appearance_in_the_frame(self, target, order):
        # 1 == 1.0 == True: a class is named by the cell seen first in the
        # frame at hand, then classes sort by repr.
        n = len(target)
        order = [i for i in order if i < n]
        df = DataFrame({"x": [float(i) for i in range(n)], "y": target})
        for frame, cells in ((df, target), (df._take(order), [target[i] for i in order])):
            prepared = fit_transformer(frame, "y", ["standardize"])
            assert prepared.task == "classification"
            classes = sorted(set(cells), key=repr)
            expected = (classes[0], classes[0]) if len(classes) == 1 else tuple(classes)
            assert _exact(prepared.classes) == _exact(expected)
            y = prepared.data.column("y")
            if len(classes) == 2:
                assert y == tuple(float(v == classes[1]) for v in cells)


class TestCodedGathers:
    # Cells of a few encoded widths, so a column is often of one width
    # (the byte-table gather) and often not (the join).
    @given(
        st.lists(st.sampled_from(["ab", "cd", "ef", "é", True, False, 1, 2.5, None]),
                 min_size=1, max_size=30),
        st.lists(st.integers(min_value=0, max_value=29), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_match_the_per_cell_loops(self, cells, rows):
        n = len(cells)
        df = DataFrame({"c": cells})
        assume(isinstance(df._col("c"), Coded))
        for frame in (df, df._take([r % n for r in rows])):
            col, taken = frame._col("c"), frame.column("c")
            assert _column_bytes(col) == b"".join(map(canonical_encode, taken))
            # Classes by Python equality (True is 1), each named by its first cell.
            classes: dict = {}
            for cell in taken:
                if cell is not None:
                    classes.setdefault(cell, len(classes))
            codes, names = _classes(col)
            assert codes.tolist() == [-1 if v is None else classes[v] for v in taken]
            assert _exact(names) == _exact(classes)


class TestTakenFramesForgetDroppedRows:
    def test_out_of_range_int_only_fails_where_present(self):
        df = DataFrame({"x": [2**70 + 1, 1, 2**53 + 1]})
        with pytest.raises(SchemaError, match="64-bit"):
            fingerprint(df)
        taken = df._take([2, 1])
        reference = DataFrame({"x": [2**53 + 1, 1]})
        assert fingerprint(taken) == fingerprint(reference)

    def test_column_kind_follows_present_rows(self):
        df = DataFrame({"x": ["a", 1, 2, 4], "y": [0.0, 1.0, 2.0, 3.0]})
        with pytest.raises(ConfigError, match="mixes text and numeric"):
            fit_transformer(df, "y", ["standardize"], ("regression", None))
        numeric = fit_transformer(df._take([1, 2, 3]), "y", ["standardize"], ("regression", None))
        assert numeric.state.steps[0].params["x"] == (7 / 3, pytest.approx(1.247219128924647))
        text = fit_transformer(df._take([0, 0]), "y", ["one_hot"], ("regression", None))
        assert text.state.steps[0].params["x"] == ("a",)

    def test_int_columns_convert_present_values_only(self):
        # float(10**400) overflows; a frame without that row never converts it.
        df = DataFrame({"x": [10**400, 3, 5, 7], "y": [0.0, 1.0, 2.0, 4.0]})
        prepared = fit_transformer(df._take([1, 2, 3]), "y", ["standardize"], ("regression", None))
        assert prepared.state.steps[0].params["x"][0] == 5.0
        untouched = fit_transformer(df._take([3, 1]), "y", ["one_hot"], ("regression", None))
        assert _exact(untouched.data.column("x")) == _exact([7, 3])


def test_csv_dictionary_holds_parsed_distinct_cells(tmp_path):
    # Raw strings are coded first and each distinct one parsed once, so
    # spellings of one value ("1", "01") share a dictionary entry.
    from holdout import ParseError, from_csv

    path = tmp_path / "d.csv"
    path.write_text("i,b,t\n1,true,x\n01, TRUE ,\n,0,x\n-3,,y\n")
    df = from_csv(path, {"i": "int64", "b": "bool"})
    assert _exact(df.column("i")) == _exact([1, 1, None, -3])
    assert df._col("i").values == (1, -3, None)
    assert _exact(df.column("b")) == _exact([True, True, False, None])
    assert df._col("b").values == (True, False, None)
    assert df.column("t") == ("x", None, "x", "y")
    bad = tmp_path / "bad.csv"
    bad.write_text("i\n1\nx\n2\ny\n")
    with pytest.raises(ParseError, match="'x' is not an integer"):
        from_csv(bad, {"i": "int64"})
