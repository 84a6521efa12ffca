import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holdout import (
    ConfigError,
    DataFrame,
    GuardError,
    PartitionError,
    SchemaError,
    apply,
    fingerprint,
    prepare,
    split,
)
from holdout.prepare import fit_transformer

from conftest import left_sum, make_classification_frame


@pytest.fixture
def partition(registry):
    return split(make_classification_frame(40), "y", seed=2, registry=registry)


class TestGuards:
    def test_unregistered_rejected(self, registry):
        df = make_classification_frame(20)
        with pytest.raises(PartitionError, match="split"):
            prepare(df, "y", registry=registry)

    def test_test_member_rejected(self, registry, partition):
        with pytest.raises(GuardError):
            prepare(partition.test, "y", registry=registry)

    def test_train_valid_dev_accepted(self, registry, partition):
        for member in (partition.train, partition.valid, partition.dev):
            prepared = prepare(member, "y", registry=registry)
            assert prepared.task == "classification"

    def test_guards_off_allows_unregistered(self, registry):
        registry.set_guards("off")
        prepared = prepare(make_classification_frame(20), "y", registry=registry)
        assert prepared.data.row_count == 20


class TestSteps:
    def test_standardize_population_stddev(self):
        df = DataFrame({"x": [1.0, 2.0, 3.0], "y": [0, 1, 0]})
        prepared = fit_transformer(df, "y", ["standardize"])
        got = prepared.data.column("x")
        expect = (-1.224744, 0.0, 1.224744)
        for g, e in zip(got, expect):
            assert math.isclose(g, e, abs_tol=1e-6)

    def test_impute_mean(self):
        df = DataFrame({"x": [1.0, None, 3.0], "y": [0, 1, 0]})
        prepared = fit_transformer(df, "y", ["impute_mean"])
        assert prepared.data.column("x") == (1.0, 2.0, 3.0)

    def test_one_hot_first_appearance_order(self):
        df = DataFrame({"c": ["b", "a", "b", "c"], "y": [0, 1, 0, 1]})
        prepared = fit_transformer(df, "y", ["one_hot"])
        assert prepared.state.feature_names == ("c=b", "c=a", "c=c")
        assert prepared.data.column("c=b") == (1.0, 0.0, 1.0, 0.0)

    def test_default_recipe_order(self):
        df = DataFrame(
            {"x": [1.0, None, 5.0], "c": ["u", "v", "u"], "y": [0, 1, 0]}
        )
        prepared = fit_transformer(df, "y", None)
        kinds = [s.kind for s in prepared.state.steps]
        assert kinds == ["impute_mean", "one_hot", "standardize"]
        for name in prepared.state.feature_names:
            for v in prepared.data.column(name):
                assert v is not None and not isinstance(v, str)

    def test_zero_variance_maps_to_zero(self):
        df = DataFrame({"x": [4.0, 4.0, 4.0], "y": [0, 1, 0]})
        prepared = fit_transformer(df, "y", ["standardize"])
        assert prepared.data.column("x") == (0.0, 0.0, 0.0)

    def test_bool_columns_coerce_numeric(self):
        df = DataFrame({"b": [True, False, True], "y": [0, 1, 0]})
        prepared = fit_transformer(df, "y", ["impute_mean"])
        assert prepared.data.column("b") == (1.0, 0.0, 1.0)

    def test_recipe_leaving_categoricals_rejected(self):
        df = DataFrame({"c": ["a", "b", "a"], "y": [0, 1, 0]})
        with pytest.raises(ConfigError, match="one_hot"):
            fit_transformer(df, "y", ["impute_mean"])

    def test_recipe_leaving_missing_rejected(self):
        df = DataFrame({"x": [1.0, None, 2.0], "y": [0, 1, 0]})
        with pytest.raises(ConfigError, match="impute"):
            fit_transformer(df, "y", ["standardize"])

    def test_unknown_step_rejected(self):
        df = DataFrame({"x": [1.0, 2.0], "y": [0, 1]})
        with pytest.raises(ConfigError, match="unknown"):
            fit_transformer(df, "y", ["scale_minmax"])

    def test_explicit_columns(self):
        df = DataFrame({"x": [1.0, 3.0], "z": [10.0, 20.0], "y": [0, 1]})
        prepared = fit_transformer(
            df, "y", [("impute_mean", None), ("standardize", ["x"])]
        )
        assert prepared.data.column("z") == (10.0, 20.0)
        assert prepared.data.column("x") == (-1.0, 1.0)

    def test_step_on_absent_column_rejected(self):
        df = DataFrame({"x": [1.0, 2.0], "y": [0, 1]})
        with pytest.raises(ConfigError, match="absent"):
            fit_transformer(df, "y", [("standardize", ["zz"])])

    def test_target_excluded_from_statistics(self):
        y = [float(100 + 7 * i) for i in range(25)]  # >20 distinct: regression
        df = DataFrame({"x": [float(i) for i in range(25)], "y": y})
        prepared = fit_transformer(df, "y", ["standardize"])
        assert prepared.data.column("y") == tuple(y)
        standardize = prepared.state.steps[0]
        assert "y" not in standardize.params

    def test_target_missing_rejected(self):
        df = DataFrame({"x": [1.0, 2.0], "y": [None, 1]})
        with pytest.raises(ConfigError, match="target"):
            fit_transformer(df, "y", None)


def _three_decimals(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return [round(float(v), 3) for v in rng.normal(3.0, 2.0, size=n)]


class TestExactStatistics:
    """Fitted statistics equal the per-cell Python formulas bit for bit."""

    @pytest.mark.parametrize(
        "values",
        [
            # 500 three-decimal values: numpy's pairwise mean rounds
            # differently from a left-to-right sum on this column.
            [4.536, None] + _three_decimals(498, seed=11),
            # Mean exactly 0.0: squaring 4.536 as `d * d` instead of `d ** 2`
            # moves the stddev by one ulp.
            [4.536, -4.536, None],
        ],
        ids=["mean", "variance"],
    )
    def test_mean_and_std_match_python_formulas(self, values):
        df = DataFrame({"x": values, "y": [i % 2 for i in range(len(values))]})
        prepared = fit_transformer(df, "y", ["impute_mean", "standardize"])
        params = {step.kind: step.params["x"] for step in prepared.state.steps}
        present = [v for v in values if v is not None]
        mean = left_sum(present) / len(present)
        imputed = [mean if v is None else v for v in values]
        m = left_sum(imputed) / len(imputed)
        std = math.sqrt(left_sum((v - m) ** 2 for v in imputed) / len(imputed))
        assert params["impute_mean"].hex() == mean.hex()
        got_m, got_std = params["standardize"]
        assert (got_m.hex(), got_std.hex()) == (m.hex(), std.hex())
        assert prepared.data.column("x") == tuple((v - m) / std for v in imputed)

    def test_nan_from_infinities_is_not_missing(self):
        # inf - inf is NaN: a present value, which validation lets through
        # (only missing cells are rejected) and the frame then stores as
        # missing.
        df = DataFrame({"x": [math.inf, 1.0, 2.0], "y": [0, 1, 0]})
        prepared = fit_transformer(df, "y", ["standardize"])
        assert prepared.data.column("x") == (None, None, None)


    def test_finite_values_whose_squares_overflow(self):
        # Deviations of 1e200 square past float64: a data error naming the
        # column, not Python's OverflowError.
        df = DataFrame({"x": [1.0, 2.0, 3.0], "big": [1e200, -1e200, 1e200],
                        "y": [0, 1, 0]})
        with pytest.raises(SchemaError, match="'big'"):
            fit_transformer(df, "y", None)
        # Without a standardize step no square is taken.
        prepared = fit_transformer(df, "y", ["impute_mean"])
        assert prepared.data.column("big") == (1e200, -1e200, 1e200)

    @pytest.mark.parametrize("recipe", [["impute_mean"], ["standardize"]])
    def test_finite_values_whose_sum_overflows(self, recipe):
        # The left-to-right sum overflows to inf: the mean would be inf and
        # every standardized value NaN, so this is a data error naming the
        # column for both steps.
        df = DataFrame({"x": [1.0, 2.0, 3.0, 4.0],
                        "big": [1e308, 1e308, -1e308, 1.0], "y": [0, 1, 0, 1]})
        with pytest.raises(SchemaError, match="'big'.*sum"):
            fit_transformer(df, "y", recipe)

    def test_infinite_values_keep_their_statistics(self):
        # A column that really holds inf is not an overflow: its mean is
        # inf as before, and only the steps' arithmetic yields NaN.
        df = DataFrame({"x": [math.inf, 1.0, None], "y": [0, 1, 0]})
        prepared = fit_transformer(df, "y", ["impute_mean", "standardize"])
        params = {step.kind: step.params["x"] for step in prepared.state.steps}
        assert params["impute_mean"] == math.inf
        assert params["standardize"][0] == math.inf
        assert math.isnan(params["standardize"][1])

    def test_variance_of_a_wide_column_matches_python_power(self):
        # 2,000 values over many magnitudes. Squaring some deviations as
        # `d * d` differs from `d ** 2`, and with this seed the difference
        # reaches the stddev, so only a C pow per deviation reproduces the
        # per-cell formula.
        rng = np.random.default_rng(7809)
        values = (rng.standard_normal(2000) * 10.0 ** rng.uniform(-3, 3, 2000)).tolist()
        m = left_sum(values) / len(values)
        deviations = [v - m for v in values]
        assert any(d * d != d ** 2 for d in deviations)
        std = math.sqrt(left_sum(d ** 2 for d in deviations) / len(values))
        assert math.sqrt(left_sum(d * d for d in deviations) / len(values)) != std
        df = DataFrame({"x": values, "y": [i % 2 for i in range(len(values))]})
        got = fit_transformer(df, "y", ["standardize"]).state.steps[0].params["x"]
        assert (got[0].hex(), got[1].hex()) == (m.hex(), std.hex())

    @pytest.mark.parametrize(
        "values, mean",
        [
            # Left to right gives 0.9999999999999999; a compensated sum
            # (builtin sum from Python 3.12) gives 1.0.
            ([0.1] * 10, 0.9999999999999999 / 10),
            # 0.0 + -0.0 is 0.0: a sum of negative zeros starts from 0.0.
            ([-0.0, -0.0], 0.0),
            # Left to right, 1e308 + 1e308 overflows (a compensated sum
            # would not): a finite column with no finite mean is a data error.
            ([1e308, 1e308, -1e308], SchemaError),
            ([math.inf, -math.inf], math.nan),
        ],
        ids=["tenths", "negative-zeros", "overflow", "infinities"],
    )
    def test_means_sum_left_to_right(self, values, mean):
        df = DataFrame({"x": values + [None], "y": [i % 2 for i in range(len(values) + 1)]})
        if mean is SchemaError:
            with pytest.raises(SchemaError, match="'x'"):
                fit_transformer(df, "y", ["impute_mean"])
            return
        got = fit_transformer(df, "y", ["impute_mean"]).state.steps[0].params["x"]
        assert got.hex() == mean.hex() or (math.isnan(got) and math.isnan(mean))
        assert math.copysign(1.0, got) == math.copysign(1.0, mean) or math.isnan(mean)


def _python_square(d: float) -> float:
    try:
        return d ** 2
    except OverflowError:
        return math.inf


def _same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))


class TestFloatPowerPremise:
    """`np.float_power(d, 2.0)` is the C `pow` loop: it equals Python's
    `d ** 2` bit for bit, while `d * d` and `np.power` do not. `prepare`'s
    variance rests on this; a numpy that vectorises `float_power` fails
    here by name."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_equals_python_power_on_finite_values(self, values):
        with np.errstate(all="ignore"):
            squares = np.float_power(np.array(values, dtype=np.float64), 2.0)
        for d, got in zip(values, squares.tolist()):
            assert _same_bits(got, _python_square(d)), d

    @pytest.mark.parametrize(
        "d",
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
         1.3407807929942596e154, 1.3407807929942597e154],
        ids=["zero", "negative-zero", "inf", "negative-inf", "nan",
             "smallest-subnormal", "negative-subnormal", "largest-finite-square",
             "first-overflow"],
    )
    def test_equals_python_power_on_edges(self, d):
        with np.errstate(all="ignore"):
            got = float(np.float_power(np.array([d]), 2.0)[0])
        assert _same_bits(got, _python_square(d))
        if d == 1.3407807929942597e154:
            assert got == math.inf  # a finite input whose square overflows
        if d == 1.3407807929942596e154:
            assert math.isfinite(got)


def _reference_default_recipe(columns: dict, target: str):
    """The default recipe written cell by cell in plain Python."""
    work = {
        name: [float(v) if isinstance(v, bool) else v for v in values]
        for name, values in columns.items()
        if name != target
    }

    def numeric(name):
        return not any(isinstance(v, str) for v in work[name])

    for name in list(work):
        if numeric(name):
            present = [float(v) for v in work[name] if v is not None]
            mean = left_sum(present) / len(present) if present else 0.0
            work[name] = [mean if v is None else float(v) for v in work[name]]
    order = []
    for name in list(work):
        if numeric(name):
            order.append(name)
            continue
        values = work.pop(name)
        categories = []
        for v in values:
            if v is not None and v not in categories:
                categories.append(v)
        for cat in categories:
            work[f"{name}={cat}"] = [1.0 if v == cat else 0.0 for v in values]
            order.append(f"{name}={cat}")
    for name in order:
        values = work[name]
        mean = left_sum(values) / len(values)
        std = math.sqrt(left_sum((v - mean) ** 2 for v in values) / len(values))
        work[name] = [0.0 if std == 0.0 else (v - mean) / std for v in values]
    return order, work


class TestReferenceEquivalence:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_default_recipe_matches_per_cell_reference(self, data):
        n = data.draw(st.integers(min_value=2, max_value=25))

        def column(cells):
            cells = st.one_of(st.none(), cells)
            return data.draw(st.lists(cells, min_size=n, max_size=n))

        columns = {
            "f": column(st.floats(-1e6, 1e6).map(lambda v: round(v, 3))),
            "i": column(st.integers(-1000, 1000)),
            "b": column(st.booleans()),
            "t": column(st.sampled_from(["a", "b", "ü"])),
            "y": [i % 2 for i in range(n)],
        }
        prepared = fit_transformer(DataFrame(columns), "y")
        order, expected = _reference_default_recipe(columns, "y")
        assert prepared.state.feature_names == tuple(order)
        for name in order:
            got = [v.hex() for v in prepared.data.column(name)]
            assert got == [v.hex() for v in expected[name]], name


class TestApply:
    def test_valid_transformed_with_train_statistics(self, registry, partition):
        prepared = prepare(partition.train, "y", registry=registry)
        transformed = apply(prepared.state, partition.valid)
        standardize = next(s for s in prepared.state.steps if s.kind == "standardize")
        for col, (mean, std) in standardize.params.items():
            raw = partition.valid.column(col)
            got = transformed.column(col)
            for r, g in zip(raw, got):
                assert math.isclose(g, (r - mean) / std, rel_tol=1e-12)

    def test_apply_to_fit_frame_centers(self, registry, partition):
        prepared = prepare(partition.train, "y", registry=registry)
        transformed = apply(prepared.state, partition.train)
        for name in prepared.state.feature_names:
            vals = transformed.column(name)
            assert abs(sum(vals) / len(vals)) < 1e-9

    def test_unseen_category_all_zeros(self):
        df = DataFrame({"c": ["a", "b", "a"], "y": [0, 1, 0]})
        prepared = fit_transformer(df, "y", ["one_hot"])
        fresh = DataFrame({"c": ["z", "a"], "y": [0, 1]})
        out = apply(prepared.state, fresh)
        assert out.column("c=a") == (0.0, 1.0)
        assert out.column("c=b") == (0.0, 0.0)

    def test_missing_imputed_with_fit_mean(self):
        df = DataFrame({"x": [2.0, 4.0], "y": [0, 1]})
        prepared = fit_transformer(df, "y", ["impute_mean"])
        out = apply(prepared.state, DataFrame({"x": [None, 10.0], "y": [0, 0]}))
        assert out.column("x") == (3.0, 10.0)

    def test_missing_fitted_column_rejected(self):
        df = DataFrame({"x": [1.0, 2.0], "z": [0.0, 1.0], "y": [0, 1]})
        prepared = fit_transformer(df, "y", None)
        with pytest.raises(SchemaError, match="fitted"):
            apply(prepared.state, DataFrame({"x": [1.0], "y": [0]}))

    def test_deterministic_byte_identical(self, registry, partition):
        prepared = prepare(partition.train, "y", registry=registry)
        a = apply(prepared.state, partition.valid)
        b = apply(prepared.state, partition.valid)
        assert fingerprint(a) == fingerprint(b)

    @pytest.mark.parametrize("text", ["a", "1"])
    def test_text_in_column_numeric_at_fit_rejected(self, text):
        # Every fit row of c is missing, so c is fitted as a numeric column.
        df = DataFrame({"c": [None, None], "x": [1.0, 2.0], "y": [0, 1]})
        prepared = fit_transformer(df, "y", None)
        with pytest.raises(SchemaError, match="'c'.*text"):
            apply(prepared.state, DataFrame({"c": [None, text], "x": [1.0, 2.0]}))

    def test_target_not_required_at_apply(self):
        df = DataFrame({"x": [1.0, 5.0], "y": [0, 1]})
        prepared = fit_transformer(df, "y", ["standardize"])
        out = apply(prepared.state, DataFrame({"x": [3.0]}))
        assert out.column_names == ("x",)


class TestLeakageFreedomOracle:
    def test_statistics_match_independent_recomputation(self, registry):
        # The oracle recomputes means/stddevs by a direct pass over only the
        # frame the transformer was fitted on, exact to 1e-12.
        df = make_classification_frame(50, seed=5)
        p = split(df, "y", seed=9, registry=registry)
        prepared = prepare(p.train, "y", registry=registry)
        standardize = next(s for s in prepared.state.steps if s.kind == "standardize")
        for col, (mean, std) in standardize.params.items():
            values = [float(v) for v in p.train.column(col)]
            m = left_sum(values) / len(values)
            var = left_sum((v - m) ** 2 for v in values) / len(values)
            assert abs(mean - m) < 1e-12
            assert abs(std - math.sqrt(var)) < 1e-12


class TestTaskInference:
    def test_classification_by_distinct_values(self):
        df = DataFrame({"x": [1.0] * 25, "y": [i % 3 for i in range(25)]})
        with pytest.raises(ConfigError, match="2 classes"):
            fit_transformer(df, "y", None)

    def test_binary_numeric(self):
        df = DataFrame({"x": [1.0, 2.0, 3.0], "y": [0, 1, 0]})
        assert fit_transformer(df, "y", None).task == "classification"

    def test_text_target_classification(self):
        df = DataFrame({"x": [1.0, 2.0, 3.0], "y": ["no", "yes", "no"]})
        prepared = fit_transformer(df, "y", None)
        assert prepared.task == "classification"
        assert prepared.classes == ("'no'", "'yes'") or prepared.classes == ("no", "yes")
        assert prepared.data.column("y") == (0.0, 1.0, 0.0)

    def test_regression_many_values(self):
        df = DataFrame(
            {"x": [float(i) for i in range(30)], "y": [float(i) * 1.5 for i in range(30)]}
        )
        prepared = fit_transformer(df, "y", None)
        assert prepared.task == "regression"
        assert prepared.classes is None
