import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progtab.data import (
    ColumnSchema,
    DataError,
    SplitSpec,
    SyntheticSpec,
    TabularDataset,
    apply_scaler,
    fit_scaler,
    load_csv,
    make_split,
    synthesize_dataset,
)


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_first_occurrence_indexing(self, tmp_path):
        p = write_csv(tmp_path, "color\na\nb\na\n")
        ds = load_csv(p)
        assert ds.schema[0].kind == "categorical"
        assert ds.schema[0].cardinality == 2
        assert ds.schema[0].domain == ("a", "b")
        assert ds.rows[:, 0].tolist() == [0.0, 1.0, 0.0]

    def test_numerical_column(self, tmp_path):
        p = write_csv(tmp_path, "x\n1.5\n2.5\n")
        ds = load_csv(p)
        assert ds.schema[0].kind == "numerical"
        assert ds.rows[:, 0].tolist() == [1.5, 2.5]

    def test_missing_categorical_cell(self, tmp_path):
        p = write_csv(tmp_path, "color,x\na,1\n,2\nb,3\n")
        ds = load_csv(p)
        dom = ds.schema[0].domain
        assert "__missing__" in dom
        assert ds.rows[1, 0] == dom.index("__missing__")

    def test_missing_numerical_cell_gets_mean(self, tmp_path):
        p = write_csv(tmp_path, "x,c\n1.0,a\n,b\n3.0,a\n")
        ds = load_csv(p)
        assert ds.rows[1, 0] == 2.0

    def test_date_to_days_since_epoch(self, tmp_path):
        p = write_csv(tmp_path, "d\n1970-01-01\n1970-01-11\n")
        ds = load_csv(p)
        assert ds.schema[0].kind == "date"
        assert ds.rows[:, 0].tolist() == [0.0, 10.0]

    @pytest.mark.parametrize("cells", [("5", "2020-01-01"), ("2020-01-01", "5")],
                             ids=["number-first", "date-first"])
    def test_numbers_and_dates_mixed_are_categorical(self, tmp_path, cells):
        # a column is a date only if every present cell parses as one
        p = write_csv(tmp_path, "a\n" + "\n".join(cells) + "\n")
        ds = load_csv(p)
        assert ds.schema[0].kind == "categorical"
        assert ds.schema[0].domain == cells

    def test_date_override_names_the_row_of_a_bad_cell(self, tmp_path):
        p = write_csv(tmp_path, "a\n2020-01-01\n5\n")
        with pytest.raises(DataError, match=re.escape("row 3: unparseable date '5' in 'a'")):
            load_csv(p, kind_overrides={"a": "date"})

    def test_label_column(self, tmp_path):
        p = write_csv(tmp_path, "x,y\n1.0,0\n2.0,1\n3.0,1\n")
        ds = load_csv(p, label_column="y")
        assert ds.labels.tolist() == [0, 1, 1]
        assert ds.num_classes == 2
        assert ds.n_cols == 1

    def test_bad_label_names_row(self, tmp_path):
        p = write_csv(tmp_path, "x,y\n1.0,0\n2.0,oops\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p, label_column="y")

    @pytest.mark.parametrize("header,repeated", [("a,a,y", "a"), ("a,y,y", "y")])
    def test_repeated_column_name_rejected(self, tmp_path, header, repeated):
        # count tables and encoded blocks are keyed by column name
        p = write_csv(tmp_path, f"{header}\nu,v,0\nw,x,1\n")
        with pytest.raises(DataError, match=re.escape(f"repeated column names ['{repeated}']")):
            load_csv(p, label_column="y")

    def test_row_width_mismatch_names_row(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1,2\n1\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    def test_kind_override(self, tmp_path):
        p = write_csv(tmp_path, "z\n1\n2\n1\n")
        ds = load_csv(p, kind_overrides={"z": "categorical"})
        assert ds.schema[0].kind == "categorical"
        assert ds.schema[0].cardinality == 2

    @pytest.mark.parametrize("name", ["nn", "y", "d"], ids=["typo", "label", "dropped"])
    def test_kind_override_of_no_feature_rejected(self, tmp_path, name):
        p = write_csv(tmp_path, "z,d,y\n1,a,0\n2,b,1\n")
        message = f"kind_overrides names no feature column: ['{name}']"
        with pytest.raises(DataError, match=re.escape(message)):
            load_csv(p, label_column="y", drop_columns=["d"],
                     kind_overrides={name: "categorical"})

    @pytest.mark.parametrize("cells", ["a\nb", "1\n2"], ids=["text", "numeric"])
    def test_unknown_override_kind_named_before_cells_are_read(self, tmp_path, cells):
        p = write_csv(tmp_path, f"z\n{cells}\n")
        message = "kind_overrides: unknown column kind 'cat' for 'z'"
        with pytest.raises(DataError, match=re.escape(message)):
            load_csv(p, kind_overrides={"z": "cat"})

    def test_domain_bijection(self, tmp_path):
        p = write_csv(tmp_path, "c\n" + "\n".join("abcabdbe") + "\n")
        ds = load_csv(p)
        dom = ds.schema[0].domain
        assert len(set(dom)) == len(dom)
        # index -> value -> index round trip
        for i, v in enumerate(dom):
            assert dom.index(v) == i


class TestTabularDataset:
    def test_repeated_column_name_rejected(self):
        schema = (ColumnSchema("a", "numerical"), ColumnSchema("a", "numerical"))
        with pytest.raises(DataError, match=re.escape("repeated column names ['a']")):
            TabularDataset(schema, np.zeros((2, 2)), None, 0)

    @pytest.mark.parametrize("cell", [np.nan, 1.5, np.inf, -np.inf])
    def test_categorical_cell_must_be_an_index(self, cell):
        # NaN passes a range check, and 1.5 would be truncated to category 1
        schema = (ColumnSchema("n", "numerical"), ColumnSchema("c", "categorical", 3, tuple("abc")))
        rows = np.array([[0.5, 0.0], [1.5, cell], [2.5, 2.0]])
        with pytest.raises(DataError, match="column 'c': non-finite or fractional cell"):
            TabularDataset(schema, rows, np.array([0, 1, 0]), 2)


class TestScaler:
    def test_mean_std_simple(self):
        ds = TabularDataset((ColumnSchema("x", "numerical"),), np.array([[1.0], [3.0]]), None, 0)
        sc = fit_scaler(ds, np.array([0, 1]))
        assert sc.means[0] == 2.0
        assert sc.stddevs[0] == 1.0

    def test_constant_column_maps_to_zero(self):
        ds = TabularDataset((ColumnSchema("x", "numerical"),), np.array([[5.0]] * 3), None, 0)
        sc = fit_scaler(ds, np.arange(3))
        out = apply_scaler(ds, sc)
        assert np.all(out.rows == 0.0)

    def test_population_stddev(self):
        # oracle: direct arithmetic on [0, 0, 4]
        vals = np.array([0.0, 0.0, 4.0])
        ds = TabularDataset((ColumnSchema("x", "numerical"),), vals[:, None], None, 0)
        sc = fit_scaler(ds, np.arange(3))
        assert sc.means[0] == pytest.approx(4.0 / 3.0)
        assert sc.stddevs[0] == pytest.approx(np.sqrt(32.0 / 9.0))

    def test_apply_examples(self):
        ds = TabularDataset((ColumnSchema("x", "numerical"),), np.array([[2.0], [3.0]]), None, 0)
        from progtab.data import ScalerState

        sc = ScalerState((0,), np.array([2.0]), np.array([1.0]))
        assert apply_scaler(ds, sc).rows[0, 0] == 0.0
        sc2 = ScalerState((0,), np.array([1.0]), np.array([2.0]))
        assert apply_scaler(ds, sc2).rows[1, 0] == 1.0

    def test_scaled_columns_standardized(self):
        rng = np.random.default_rng(1)
        ds = TabularDataset(
            (ColumnSchema("x", "numerical"),), rng.normal(10, 4, size=(200, 1)), None, 0
        )
        rows = np.arange(200)
        out = apply_scaler(ds, fit_scaler(ds, rows))
        assert abs(out.rows[:, 0].mean()) < 1e-9
        assert abs(out.rows[:, 0].std() - 1.0) < 1e-9

    def test_empty_rows_rejected(self):
        ds = TabularDataset((ColumnSchema("x", "numerical"),), np.array([[1.0]]), None, 0)
        with pytest.raises(DataError):
            fit_scaler(ds, np.array([], dtype=np.int64))


def toy_dataset(n, num_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return TabularDataset(
        (ColumnSchema("x", "numerical"),),
        rng.normal(size=(n, 1)),
        rng.integers(0, num_classes, size=n),
        num_classes,
    )


class TestSplit:
    def test_sizes(self):
        ds = toy_dataset(100)
        sp = make_split(ds, SplitSpec(0.8, 0.1, 3))
        assert sp.test_idx.size == 20
        assert sp.labeled_idx.size == 8
        assert sp.unlabeled_idx.size == 72

    def test_deterministic(self):
        ds = toy_dataset(100)
        a = make_split(ds, SplitSpec(0.8, 0.1, 5))
        b = make_split(ds, SplitSpec(0.8, 0.1, 5))
        assert np.array_equal(a.labeled_idx, b.labeled_idx)
        assert np.array_equal(a.unlabeled_idx, b.unlabeled_idx)
        assert np.array_equal(a.test_idx, b.test_idx)

    def test_seeds_differ(self):
        ds = toy_dataset(100)
        a = make_split(ds, SplitSpec(0.8, 0.1, 5))
        b = make_split(ds, SplitSpec(0.8, 0.1, 6))
        assert not np.array_equal(a.labeled_idx, b.labeled_idx)

    def test_labeled_rows_have_labels(self):
        ds = toy_dataset(60, num_classes=3, seed=2)
        sp = make_split(ds, SplitSpec(0.8, 0.25, 1))
        assert np.all(ds.labels[sp.labeled_idx] >= 0)

    def test_stratified_when_feasible(self):
        # strongly imbalanced two-class labels: stratification keeps both classes
        labels = np.array([0] * 90 + [1] * 10)
        ds = TabularDataset(
            (ColumnSchema("x", "numerical"),), np.arange(100, dtype=float)[:, None], labels, 2
        )
        for seed in range(10):
            sp = make_split(ds, SplitSpec(0.8, 0.2, seed))
            present = set(ds.labels[sp.labeled_idx].tolist())
            assert present == {0, 1}

    @given(
        n=st.integers(20, 300),
        train_frac=st.floats(0.5, 0.9),
        lab_frac=st.floats(0.1, 0.5),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, train_frac, lab_frac, seed):
        ds = toy_dataset(n, seed=seed % 17)
        try:
            sp = make_split(ds, SplitSpec(train_frac, lab_frac, seed))
        except DataError:
            return  # degenerate fraction for this n
        parts = [sp.labeled_idx, sp.unlabeled_idx, sp.test_idx]
        merged = np.concatenate(parts)
        assert merged.size == n
        assert np.array_equal(np.sort(merged), np.arange(n))


class TestSynthesize:
    def test_deterministic(self):
        spec = SyntheticSpec(500, 2, 10, 1, 3, 1.0, 99)
        a = synthesize_dataset(spec)
        b = synthesize_dataset(spec)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.labels, b.labels)

    def test_high_signal_single_column_is_deterministic_labeling(self):
        # signal_strength -> inf: labels become a function of the single column
        spec = SyntheticSpec(2000, 1, 10, 0, 3, 100.0, 4)
        ds = synthesize_dataset(spec)
        values = ds.rows[:, 0].astype(int)
        majority = {}
        for v in range(10):
            sel = values == v
            if sel.any():
                majority[v] = np.bincount(ds.labels[sel]).argmax()
        bayes_acc = np.mean([ds.labels[i] == majority[values[i]] for i in range(ds.n_rows)])
        assert bayes_acc > 0.99

    def test_zero_signal_means_independent_labels(self):
        # chance-rate agreement between labels and the best single-value predictor
        spec = SyntheticSpec(10000, 1, 5, 1, 4, 0.0, 11)
        ds = synthesize_dataset(spec)
        counts = np.bincount(ds.labels, minlength=4) / ds.n_rows
        sigma = np.sqrt(0.25 * 0.75 / ds.n_rows)
        assert np.all(np.abs(counts - 0.25) < 3 * sigma + 1e-9)
        # per-value label distribution stays near uniform
        values = ds.rows[:, 0].astype(int)
        for v in range(5):
            sel = values == v
            p = np.bincount(ds.labels[sel], minlength=4) / sel.sum()
            s = np.sqrt(0.25 * 0.75 / sel.sum())
            assert np.all(np.abs(p - 0.25) < 4 * s)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(DataError):
            SyntheticSpec(100, 1, 2, 0, 4, 1.0, 0)  # cardinality < n_classes

    @pytest.mark.parametrize("strength", [-1.0, float("nan")])
    def test_signal_strength_must_be_non_negative(self, strength):
        with pytest.raises(DataError, match="signal_strength must be >= 0"):
            SyntheticSpec(100, 1, 5, 0, 4, strength, 0)


class TestDropColumns:
    def test_drop_column(self, tmp_path):
        p = write_csv(tmp_path, "a,b,y\n1,x,0\n2,z,1\n")
        ds = load_csv(p, label_column="y", drop_columns=["b"])
        assert [c.name for c in ds.schema] == ["a"]

    def test_unknown_drop_rejected(self, tmp_path):
        p = write_csv(tmp_path, "a\n1\n")
        with pytest.raises(DataError):
            load_csv(p, drop_columns=["nope"])
