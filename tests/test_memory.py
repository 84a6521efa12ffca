"""Memory in proportion to the input: what `split` and `cv` keep at 200k
rows, and what a forest fit allocates beside a tree fit.

Dev is the one gathered copy of a split's train and valid rows, so train's
and valid's float columns are views of dev's, and a rotation keeps its fold
sides as intp arrays. Together `split` and a 5-fold `cv` then keep about
1.2 times the frame's column bytes: dev (0.8), test (0.2) and the folds'
row positions (0.2). Copying train and valid again, or storing positions
as Python ints, would keep more than twice the frame.

Trees search their splits in batches of at most X.size cells, the cells of
a decision tree's root search, so a 50-tree forest peaks at about 1.2
times the tree's peak (its bootstrap rows and pending nodes on top). A
forest that searched each round's frontier in one batch, all 50 roots
first, would peak at more than seven times.
"""

import gc
import tracemalloc

import numpy as np

from holdout import DataFrame, ProvenanceRegistry, cv, split
from holdout.frame import Coded
from holdout.learners import fit_decision_tree, fit_random_forest

ROWS = 200_000
KEPT_BOUND = 1.3  # times the frame's column bytes
FOREST_PEAK_BOUND = 2.0  # times a decision tree's peak on the same X


def _frame() -> DataFrame:
    # 18 float columns with 2% missing, two text columns, a float target.
    rng = np.random.default_rng(0)
    columns = {}
    for j in range(18):
        x = rng.normal(size=ROWS)
        x[rng.random(ROWS) < 0.02] = np.nan
        columns[f"x{j}"] = x
    for name, levels in (("c5", 5), ("c8", 8)):
        columns[name] = [f"{name}_{v}" for v in rng.integers(0, levels, ROWS).tolist()]
    columns["y"] = rng.normal(size=ROWS)
    return DataFrame(columns)


def _column_bytes(df: DataFrame) -> int:
    return sum(c.codes.nbytes if isinstance(c, Coded) else c.nbytes for c in df._columns)


def test_split_and_cv_keep_little_beyond_the_frame():
    df = _frame()
    gc.collect()
    tracemalloc.start()
    try:
        reg = ProvenanceRegistry()
        p = split(df, "y", seed=0, registry=reg)
        c = cv(p, 5, seed=0, registry=reg)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= KEPT_BOUND * _column_bytes(df), (
        f"split + cv keep {kept / _column_bytes(df):.2f}x the frame's column bytes"
    )
    for name in ("x0", "y"):
        assert np.shares_memory(p.train._col(name), p.dev._col(name))
        assert np.shares_memory(p.valid._col(name), p.dev._col(name))
    assert np.shares_memory(p.train._col("c5").codes, p.dev._col("c5").codes)
    assert c.k == 5 and sum(len(v) for _, v in c._folds) == p.dev.row_count


def _peak(fit, *args) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fit(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forest_fit_peaks_near_a_tree_fit():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2_000, 20))
    y = (X[:, 0] + rng.normal(size=2_000) > 0).astype(np.float64)
    tree = _peak(fit_decision_tree, X, y, 0, "classification")
    forest = _peak(fit_random_forest, X, y, 0, "classification")
    assert forest <= FOREST_PEAK_BOUND * tree, (
        f"a 50-tree forest peaks at {forest / tree:.2f}x a tree's {tree / 1e6:.2f} MB"
    )
