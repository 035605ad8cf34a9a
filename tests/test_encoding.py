import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import progtab
from progtab.data import ColumnSchema, SyntheticSpec, TabularDataset, synthesize_dataset
from progtab.encoding import (
    HUGE_PAGE_ADVICE_BYTES,
    CountTable,
    EncodingError,
    encode,
    fit_cpr,
    fit_target_encoding,
    label_encoding,
    one_hot_encoding,
    update_counts,
)


def brute_force_counts(ds, rows, labels):
    """Independent nested-loop (value, class) counter."""
    out = {}
    for m in ds.categorical_columns():
        col = ds.schema[m]
        counts = np.zeros((col.cardinality, ds.num_classes), dtype=np.int64)
        for r, y in zip(rows, labels):
            v = int(ds.rows[r, m])
            counts[v][int(y)] += 1
        out[col.name] = counts
    return out


def cat_dataset(cells, num_classes, labels=None):
    cells = np.asarray(cells, dtype=float)
    k = int(cells.max()) + 1
    schema = (ColumnSchema("c", "categorical", k, tuple(f"v{i}" for i in range(k))),)
    return TabularDataset(schema, cells[:, None], labels, num_classes)


class TestFitCpr:
    def test_direct_formula(self):
        # cells [a, a, b], labels [0, 1, 1], C=2, alpha=0
        ds = cat_dataset([0, 0, 1], 2)
        t = fit_cpr(ds, np.arange(3), np.array([0, 1, 1]), alpha=0.0)
        p = t.probabilities("c")
        assert np.allclose(p[0], [0.5, 0.5])
        assert np.allclose(p[1], [0.0, 1.0])

    def test_unseen_value_laplace_uniform(self):
        ds = cat_dataset([0, 0, 1], 2)  # value 1 exists in domain but is unseen below
        t = fit_cpr(ds, np.array([0, 1]), np.array([0, 1]), alpha=1.0)
        assert np.allclose(t.probabilities("c")[1], [0.5, 0.5])

    def test_matches_brute_force(self):
        ds = synthesize_dataset(SyntheticSpec(500, 3, 17, 1, 4, 1.0, 21))
        rows = np.arange(ds.n_rows)
        t = fit_cpr(ds, rows, ds.labels, alpha=1.0)
        expected = brute_force_counts(ds, rows, ds.labels)
        for name, c in expected.items():
            assert np.array_equal(t.counts[name], c)

    def test_label_out_of_range(self):
        ds = cat_dataset([0, 1], 2)
        with pytest.raises(EncodingError):
            fit_cpr(ds, np.arange(2), np.array([0, 2]))

    def test_every_domain_value_has_entry(self):
        ds = cat_dataset([0, 3, 1, 2], 2)
        t = fit_cpr(ds, np.array([0]), np.array([1]))
        assert t.counts["c"].shape == (4, 2)
        assert t.counts["c"].sum(axis=1).tolist() == [1, 0, 0, 0]


class TestCountTableSettings:
    @pytest.mark.parametrize("setting,problem", [
        ({"laplace_alpha": float("nan")}, "laplace_alpha must be >= 0 and finite"),
        ({"laplace_alpha": float("inf")}, "laplace_alpha must be >= 0 and finite"),
        ({"laplace_alpha": -1.0}, "laplace_alpha must be >= 0 and finite"),
        ({"smoothing": float("inf")}, "smoothing must be > 0 and finite"),
        ({"smoothing": float("nan")}, "smoothing must be > 0 and finite"),
        ({"smoothing": 0.0}, "smoothing must be > 0 and finite"),
    ], ids=["alpha-nan", "alpha-inf", "alpha-negative", "smoothing-inf", "smoothing-nan",
            "smoothing-zero"])
    def test_setting_must_be_in_range_and_finite(self, setting, problem):
        with pytest.raises(EncodingError, match=problem):
            CountTable({"c": np.ones((2, 3), dtype=np.int64)}, 3, **setting)


class TestUpdateCounts:
    def test_increment_formula(self):
        ds = cat_dataset([0, 0, 0], 2)
        base = CountTable({"c": np.array([[1, 1]])}, 2, laplace_alpha=0.0)
        t = update_counts(base, ds, np.array([0]), np.array([0]))
        assert t.counts["c"].tolist() == [[2, 1]]
        assert np.allclose(t.probabilities("c")[0], [2 / 3, 1 / 3])
        # pure: input unchanged
        assert base.counts["c"].tolist() == [[1, 1]]

    def test_empty_update_is_identity(self):
        ds = cat_dataset([0, 1], 3)
        base = fit_cpr(ds, np.arange(2), np.array([0, 2]))
        t = update_counts(base, ds, np.array([], dtype=int), np.array([], dtype=int))
        assert np.array_equal(t.counts["c"], base.counts["c"])

    def test_fit_then_update_equals_fit_union(self):
        ds = synthesize_dataset(SyntheticSpec(400, 2, 11, 1, 3, 0.8, 5))
        rng = np.random.default_rng(0)
        for _ in range(10):
            perm = rng.permutation(ds.n_rows)
            cut = rng.integers(1, ds.n_rows - 1)
            a, b = perm[:cut], perm[cut:]
            merged = update_counts(
                fit_cpr(ds, a, ds.labels[a]), ds, b, ds.labels[b]
            )
            direct = fit_cpr(ds, perm, ds.labels[perm])
            for name in merged.counts:
                assert np.array_equal(merged.counts[name], direct.counts[name])

    def test_batch_order_independence(self):
        ds = synthesize_dataset(SyntheticSpec(300, 2, 7, 0, 3, 1.0, 9))
        rng = np.random.default_rng(3)
        batches = np.array_split(rng.permutation(ds.n_rows), 5)
        empty = fit_cpr(ds, np.array([], dtype=int), np.array([], dtype=int))
        t1 = empty
        for b in batches:
            t1 = update_counts(t1, ds, b, ds.labels[b])
        t2 = empty
        for b in reversed(batches):
            t2 = update_counts(t2, ds, b, ds.labels[b])
        for name in t1.counts:
            assert np.array_equal(t1.counts[name], t2.counts[name])


class TestEncode:
    def test_zero_total_alpha_zero_uniform_fallback(self):
        ds = cat_dataset([0, 1], 4)
        t = CountTable({"c": np.zeros((2, 4), dtype=np.int64)}, 4, laplace_alpha=0.0)
        em = encode(ds, np.arange(2), t)
        assert np.allclose(em.matrix, 0.25)

    def test_one_hot(self):
        ds = TabularDataset(
            (ColumnSchema("c", "categorical", 4, ("a", "b", "c", "d")),),
            np.array([[2.0], [0.0]]),
            None,
            2,
        )
        em = encode(ds, np.arange(2), one_hot_encoding(ds))
        assert em.matrix[0].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_label_encoding_scalar(self):
        ds = cat_dataset([7, 0], 2)
        em = encode(ds, np.array([0]), label_encoding(ds))
        assert em.matrix[0, 0] == 7.0

    def test_numeric_passthrough_and_block_map(self):
        schema = (
            ColumnSchema("n", "numerical"),
            ColumnSchema("c", "categorical", 2, ("a", "b")),
        )
        ds = TabularDataset(schema, np.array([[1.5, 0.0], [2.5, 1.0]]), None, 3)
        t = fit_cpr(ds, np.arange(2), np.array([0, 1]))
        em = encode(ds, np.arange(2), t)
        assert em.blocks == {"n": (0, 1), "c": (1, 4)}
        assert em.matrix[:, 0].tolist() == [1.5, 2.5]

    def test_width_independent_of_cardinality(self):
        small = cat_dataset(np.arange(5) % 3, 4)
        big = cat_dataset(np.arange(200) % 150, 4)
        lab_small = np.zeros(5, dtype=int)
        lab_big = np.zeros(200, dtype=int)
        w_small = encode(small, np.arange(5), fit_cpr(small, np.arange(5), lab_small)).width
        w_big = encode(big, np.arange(200), fit_cpr(big, np.arange(200), lab_big)).width
        assert w_small == w_big == 4

    @pytest.mark.parametrize("kind", ["cpr", "target", "onehot", "label"])
    def test_blocks_follow_schema_order(self, kind):
        # numeric and categorical columns interleave, so a block written at
        # the wrong offset lands on another column's values
        rng = np.random.default_rng(7)
        n, num_classes = 60, 3
        schema = (
            ColumnSchema("a", "numerical"),
            ColumnSchema("c1", "categorical", 5, tuple("vwxyz")),
            ColumnSchema("b", "numerical"),
            ColumnSchema("c2", "categorical", 4, tuple("pqrs")),
        )
        cells = {"c1": rng.integers(0, 5, n), "c2": rng.integers(0, 4, n)}
        a, b = rng.normal(size=n), rng.normal(size=n)
        ds = TabularDataset(schema, np.column_stack([a, cells["c1"], b, cells["c2"]]),
                            rng.integers(0, num_classes, n), num_classes)
        fit_rows, rows = np.arange(40), rng.permutation(n)[:25]
        y = ds.labels[fit_rows]
        counts = {name: np.zeros((k, num_classes)) for name, k in (("c1", 5), ("c2", 4))}
        for name, c in counts.items():
            for v, label in zip(cells[name][fit_rows], y):
                c[v, label] += 1
        prior = np.bincount(y, minlength=num_classes) / y.size

        def block(name):
            c, v = counts[name], cells[name][rows]
            total = c.sum(axis=1, keepdims=True)
            if kind == "cpr":
                return ((c + 1.0) / (total + num_classes))[v]
            if kind == "target":
                estimate = c / np.maximum(total, 1)
                return (total / (total + 2.0) * estimate + 2.0 / (total + 2.0) * prior)[v]
            if kind == "onehot":
                return np.eye(c.shape[0])[v]
            return v[:, None].astype(float)

        table = {"cpr": lambda: fit_cpr(ds, fit_rows, y, alpha=1.0),
                 "target": lambda: fit_target_encoding(ds, fit_rows, y, smoothing=2.0),
                 "onehot": lambda: one_hot_encoding(ds),
                 "label": lambda: label_encoding(ds)}[kind]()
        em = encode(ds, rows, table)
        expected = np.hstack([a[rows, None], block("c1"), b[rows, None], block("c2")])
        assert em.matrix.shape == expected.shape
        assert np.allclose(em.matrix, expected, rtol=0.0, atol=1e-12)
        w1, w2 = block("c1").shape[1], block("c2").shape[1]
        assert em.blocks == {"a": (0, 1), "c1": (1, 1 + w1), "b": (1 + w1, 2 + w1),
                             "c2": (2 + w1, 2 + w1 + w2)}
        if kind == "onehot":
            for name in ("c1", "c2"):
                lo, hi = em.blocks[name]
                part = em.matrix[:, lo:hi]
                assert np.isin(part, (0.0, 1.0)).all()
                assert (part.sum(axis=1) == 1.0).all()


def zeros_reference(ds, rows, table, blocks):
    """The encoded matrix built on ``np.zeros``, block by block."""
    out = np.zeros((rows.size, max(hi for _, hi in blocks.values())))
    for m, col in enumerate(ds.schema):
        lo, hi = blocks[col.name]
        if col.kind == "categorical":
            table.write_block(col.name, ds.rows[rows, m].astype(np.int64), out[:, lo:hi])
        else:
            out[:, lo] = ds.rows[rows, m]
    return out


class TestEncodeAllocation:
    """Matrices of HUGE_PAGE_ADVICE_BYTES and more live in an anonymous
    mapping without huge pages; the values never depend on that."""

    @pytest.fixture(scope="class")
    def wide_ds(self):
        # 1,201 one-hot columns, 9 CPR and target columns and 3 label columns:
        # enough rows to place every encoding on both sides of the threshold
        rng = np.random.default_rng(3)
        n, k, num_classes = 180_000, 600, 4
        schema = (ColumnSchema("c1", "categorical", k, tuple(f"v{i}" for i in range(k))),
                  ColumnSchema("x", "numerical"),
                  ColumnSchema("c2", "categorical", k, tuple(f"w{i}" for i in range(k))))
        rows = np.column_stack([rng.integers(0, k, n), rng.normal(size=n),
                                rng.integers(0, k, n)])
        return TabularDataset(schema, rows, rng.integers(0, num_classes, n), num_classes)

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("kind", ["cpr", "target", "onehot", "label"])
    def test_bit_identical_to_zeros_reference(self, wide_ds, kind, side):
        fit_rows = np.arange(5_000)
        y = wide_ds.labels[fit_rows]
        table = {"cpr": lambda: fit_cpr(wide_ds, fit_rows, y),
                 "target": lambda: fit_target_encoding(wide_ds, fit_rows, y),
                 "onehot": lambda: one_hot_encoding(wide_ds),
                 "label": lambda: label_encoding(wide_ds)}[kind]()
        width = 1 + sum(table.block_widths().values())
        n = HUGE_PAGE_ADVICE_BYTES // (8 * width) + (1 if side == "above" else -1)
        rows = np.random.default_rng(5).permutation(wide_ds.n_rows)[:n]
        em = encode(wide_ds, rows, table)
        assert em.matrix.shape == (n, width)
        assert (em.matrix.nbytes >= HUGE_PAGE_ADVICE_BYTES) == (side == "above")
        # np.zeros owns its memory; the mapping is the array's base
        assert em.matrix.flags.owndata == (side == "below")
        expected = zeros_reference(wide_ds, rows, table, em.blocks)
        assert em.matrix.tobytes() == expected.tobytes()

    def test_mapped_matrix_is_an_ordinary_array(self, wide_ds):
        rows = np.arange(1_000)
        matrix = encode(wide_ds, rows, one_hot_encoding(wide_ds)).matrix
        assert matrix.nbytes >= HUGE_PAGE_ADVICE_BYTES and not matrix.flags.owndata
        assert matrix.dtype == np.float64
        assert matrix.flags.c_contiguous and matrix.flags.writeable
        matrix[0, 0] = 2.5
        assert matrix[0, 0] == 2.5
        parts = np.split(matrix, [100, 700])
        assert all(p.base is matrix for p in parts)
        assert parts[0].base.ndim == 2 and parts[0].base.shape == matrix.shape
        assert np.array_equal(np.concatenate(parts), matrix)

    def test_one_hot_memory_is_the_touched_pages(self):
        # 6,000 x 10,002 float64 is 458 MiB nominal; each row writes two ones
        # into its 80 KB, so about three 4 KiB pages per row are touched
        script = """
import resource
import numpy as np
from progtab.data import ColumnSchema, TabularDataset
from progtab.encoding import encode, one_hot_encoding
rng = np.random.default_rng(0)
n, k = 6000, 5000
schema = tuple(ColumnSchema(f"c{j}", "categorical", k, tuple(range(k))) for j in range(2)) + (
    ColumnSchema("x", "numerical"), ColumnSchema("z", "numerical"))
ds = TabularDataset(schema, np.column_stack([rng.integers(0, k, (n, 2)), rng.normal(size=(n, 2))]),
                    None, 2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
matrix = encode(ds, np.arange(n), one_hot_encoding(ds)).matrix
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(matrix.nbytes, grown, int(matrix[:, :2 * k].sum()))
"""
        src = str(Path(progtab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        nbytes, grown_kib, ones = map(int, out.split())
        assert nbytes == 6000 * 10002 * 8 and ones == 2 * 6000
        assert grown_kib * 1024 < nbytes / 4


class TestTargetEncoding:
    def test_count_zero_gives_prior(self):
        ds = cat_dataset([0, 0, 1], 2)
        t = fit_target_encoding(ds, np.array([0, 1]), np.array([0, 1]), smoothing=5.0)
        em = encode(ds, np.array([2]), t)  # value 1 is never fit: fit rows use value 0 only
        assert np.array_equal(em.matrix[0], np.bincount([0, 1], minlength=2) / 2)
        # several columns, each with unseen values: every column's prior is
        # the share of each class among the fit rows
        ds = synthesize_dataset(SyntheticSpec(400, 3, 60, 0, 4, 1.0, 13))
        rows = np.random.default_rng(1).permutation(ds.n_rows)[:90]
        labels = ds.labels[rows]
        t = fit_target_encoding(ds, rows, labels, smoothing=4.0)
        share = np.bincount(labels, minlength=4) / labels.size
        for name, counts in t.counts.items():
            unseen = counts.sum(axis=1) == 0
            assert unseen.any()
            assert np.array_equal(t.probabilities(name)[unseen],
                                  np.tile(share, (unseen.sum(), 1)))

    def test_count_equals_smoothing_midpoint(self):
        # 2 observations of value 0 (both class 0), smoothing 2 -> midpoint
        ds = cat_dataset([0, 0, 1], 2)
        t = fit_target_encoding(ds, np.arange(3), np.array([0, 0, 1]), smoothing=2.0)
        estimate = np.array([1.0, 0.0])
        prior = np.array([2 / 3, 1 / 3])
        assert np.allclose(t.probabilities("c")[0], 0.5 * estimate + 0.5 * prior)

    def test_large_count_approaches_estimate(self):
        n = 100000
        cells = np.zeros(n)
        labels = (np.arange(n) % 4 == 0).astype(int)  # 25% class 1
        ds = cat_dataset(cells, 2)
        t = fit_target_encoding(ds, np.arange(n), labels, smoothing=10.0)
        enc = t.probabilities("c")[0]
        assert np.allclose(enc, [0.75, 0.25], atol=1e-3)

    def test_convex_combination_property(self):
        ds = synthesize_dataset(SyntheticSpec(300, 1, 9, 0, 3, 1.0, 2))
        t = fit_target_encoding(ds, np.arange(300), ds.labels, smoothing=7.0)
        enc = t.probabilities("cat0")
        assert np.all(enc >= 0)
        assert np.allclose(enc.sum(axis=1), 1.0)


class TestInvariants:
    @given(
        n=st.integers(2, 200),
        k=st.integers(2, 12),
        c=st.integers(2, 5),
        alpha=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 10000),
    )
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, n, k, c, alpha, seed):
        rng = np.random.default_rng(seed)
        ds = cat_dataset(rng.integers(0, k, size=n), c)
        labels = rng.integers(0, c, size=n)
        t = fit_cpr(ds, np.arange(n), labels, alpha=alpha)
        p = t.probabilities("c")
        totals = t.counts["c"].sum(axis=1)
        live = (totals + c * alpha) > 0
        assert np.all(np.abs(p[live].sum(axis=1) - 1.0) < 1e-12)
        # the zero-information fallback is also a distribution
        assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)

    @given(
        k=st.integers(1, 12),
        c=st.integers(2, 5),
        alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.5]),
        smoothing=st.sampled_from([None, 0.5, 2.0, 10.0]),
        seed=st.integers(0, 10000),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_read_rule(self, k, c, alpha, smoothing, seed):
        """Laplace and target encoding both read (counts + pseudo) /
        (n + strength) for a counted value, and its prior for an uncounted one."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 6, size=(k, c)) * (rng.random((k, 1)) < 0.7)
        t = CountTable({"c": counts}, c, laplace_alpha=alpha, smoothing=smoothing)
        got = t.probabilities("c")
        rows = counts.tolist()
        total = sum(map(sum, rows))
        if smoothing is None:
            prior = [1 / c] * c
            pseudo, strength = [alpha] * c, c * alpha
        else:
            prior = [sum(r[j] for r in rows) / max(1, total) for j in range(c)]
            pseudo, strength = [smoothing * p for p in prior], smoothing
        for v, row in enumerate(rows):
            n = sum(row)
            if n == 0:
                assert got[v].tolist() == prior
            else:
                want = [(row[j] + pseudo[j]) / (n + strength) for j in range(c)]
                assert np.allclose(got[v], want, rtol=1e-14, atol=0.0)

    @given(seed=st.integers(0, 10000))
    @settings(max_examples=25, deadline=None)
    def test_oracle_equivalence_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        spec = SyntheticSpec(
            int(rng.integers(10, 400)),
            int(rng.integers(1, 4)),
            int(rng.integers(5, 40)),
            0,
            int(rng.integers(2, 6)),
            1.0,
            seed,
        )
        ds = synthesize_dataset(spec)
        rows = rng.permutation(ds.n_rows)[: ds.n_rows // 2 + 1]
        t = fit_cpr(ds, rows, ds.labels[rows])
        expected = brute_force_counts(ds, rows, ds.labels[rows])
        for name, cnt in expected.items():
            assert np.array_equal(t.counts[name], cnt)

