"""Golden fingerprint vectors: content identity pinned across versions.

The digests below were produced by the reference per-cell encoder
(`canonical_encode` fed cell by cell into SHA-256). Any change to how
frames store or hash their cells must reproduce them exactly.
"""

import csv

import numpy as np
import pytest

from holdout import DataFrame, fingerprint, from_csv

INF = float("inf")

KINDS = {
    # missing, NaN (missing), -0.0 and +0.0 (one encoding), both infinities
    "f": [1.5, None, float("nan"), -0.0, 0.0, INF, -INF, 4.536],
    # exact ints encode as float64; 2**53 + 1 and -2**63 take the int path
    "i": [0, 7, -3, 2**53 + 1, -(2**63), 2**53, 1, -1],
    "b": [True, False, None, True, False, True, None, False],
    "t": ["", "a", "héllo", "日本語", None, "a", "Ω", "z"],
    "m": [1, 2.5, None, 3, -0.0, 2**60 + 1, 7.25, 0],
}

KINDS_DIGESTS = {
    "b": "3bf756521014d1b155bba4e388d493f2c477b8f6390a033aeae5c06f52bf64b4",
    "f": "83ac3c9d208db8c06dbb3bd9cdd3a98cea19f249f478dee7a121199d206c40a3",
    "i": "8ec920872865d9870ac35fd80e64027ade954cfd07eb10001ff5777e91035ade",
    "m": "add38ff6ccb96dd08343e92db61811dd4ec4a626584d1a8cca702d4ecd669111",
    "t": "e979bd1557337493b8261f67e775eeb7023b34e0765a5fd4a6339032fefe438e",
}
KINDS_HEX = "b9122d335be97f38fe3eeaae5a28484c54d65526f4acd6b4cf53f36e240f8151"

# Every value is exact in float32, so lists, float64 arrays, float32 arrays
# and CSV text all describe the same cells.
PORTABLE = {
    "a": [0.25, None, -0.0, 0.0, INF, -INF, 3.0, -1.5],
    "b": [1.0, 2.0, None, None, 0.5, 4.0, -8.0, 0.125],
}
PORTABLE_DIGESTS = {
    "a": "f0a0bd409bdd839af3cf8dd57bd5f8ac70f62ee520f02e1a6e202f3aeecb6dca",
    "b": "d330d8221f1cf0f7ccbaa571ac8d381d9767c4654d3ad2729bd5fdcdd3e40ada",
}
PORTABLE_HEX = "1f03a4116202bdb39edeafb4162368b671c5ed06f5dd44455d4a4b13898f43af"


def _hex_digests(df):
    return {name: d.hex() for name, d in fingerprint(df).column_digests.items()}


def _write_csv(path, columns, render):
    names = list(columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*(columns[n] for n in names)):
            writer.writerow([render(v) for v in row])


def test_every_cell_kind_pinned():
    df = DataFrame(KINDS)
    assert _hex_digests(df) == KINDS_DIGESTS
    assert fingerprint(df).hex() == KINDS_HEX
    assert fingerprint(df).row_count == 8


@pytest.mark.parametrize("name", sorted(KINDS))
def test_single_column_digest_independent_of_neighbours(name):
    df = DataFrame({name: KINDS[name]})
    assert _hex_digests(df) == {name: KINDS_DIGESTS[name]}


def _as_array(values, dtype):
    return np.array([np.nan if v is None else v for v in values], dtype=dtype)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DataFrame(PORTABLE),
        lambda: DataFrame({n: _as_array(v, np.float64) for n, v in PORTABLE.items()}),
        lambda: DataFrame({n: _as_array(v, np.float32) for n, v in PORTABLE.items()}),
        lambda: DataFrame(
            {n: [None if v is None else np.float64(v) for v in vals]
             for n, vals in PORTABLE.items()}
        ),
    ],
    ids=["lists", "float64_array", "float32_array", "numpy_scalars"],
)
def test_float_frames_digest_identically_across_constructions(build):
    df = build()
    assert _hex_digests(df) == PORTABLE_DIGESTS
    assert fingerprint(df).hex() == PORTABLE_HEX


def test_float_frame_from_csv_digests_identically(tmp_path):
    path = tmp_path / "portable.csv"
    _write_csv(path, PORTABLE, lambda v: "" if v is None else repr(v))
    df = from_csv(path)
    assert _hex_digests(df) == PORTABLE_DIGESTS
    assert fingerprint(df).hex() == PORTABLE_HEX


def test_int_column_from_int64_array_matches_list():
    df = DataFrame({"i": np.array(KINDS["i"], dtype=np.int64)})
    assert _hex_digests(df) == {"i": KINDS_DIGESTS["i"]}


def test_hinted_csv_columns_match_lists(tmp_path):
    path = tmp_path / "kinds.csv"
    subset = {"i": KINDS["i"], "b": KINDS["b"], "f": KINDS["f"]}

    def render(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return repr(v)

    _write_csv(path, subset, render)
    df = from_csv(path, schema_hints={"i": "int64", "b": "bool", "f": "float64"})
    assert _hex_digests(df) == {n: KINDS_DIGESTS[n] for n in subset}
