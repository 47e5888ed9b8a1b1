import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minifair.data import (
    BUILTIN_SPECS,
    DatasetSpec,
    ParseError,
    SchemaError,
    builtin_spec,
    load_csv,
    preprocess,
    split,
)
from minifair.synthdata import generate_compas_csv, generate_law_csv


@pytest.fixture
def law_csv(tmp_path):
    path = tmp_path / "law.csv"
    generate_law_csv(path, n=120, seed=3)
    return path


@pytest.fixture
def law_raw(law_csv):
    return load_csv(law_csv, builtin_spec("law"))


class TestLoadCsv:
    def test_compas_row_count_before_filtering(self, tmp_path):
        path = tmp_path / "compas.csv"
        generate_compas_csv(path, n=6167, seed=0)
        raw = load_csv(path, builtin_spec("compas"))
        assert raw.n_rows + raw.n_dropped == 6167

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("race,gender,lsat,ugpa,fya\n")
        raw = load_csv(path, builtin_spec("law"))
        assert raw.n_rows == 0
        assert raw.target.size == 0

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("race,gender,lsat,ugpa\nwhite,male,1.0,2.0\n")
        with pytest.raises(SchemaError, match="fya"):
            load_csv(path, builtin_spec("law"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv", builtin_spec("law"))

    def test_rows_with_missing_cells_dropped_and_counted(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(
            "race,gender,lsat,ugpa,fya\n"
            "white,male,1.0,2.0,0.5\n"
            "black,female,,2.0,0.1\n"
            "white,male,1.0,2.0,?\n"
            "black,male,0.3,1.0,0.2\n"
        )
        raw = load_csv(path, builtin_spec("law"))
        assert raw.n_rows == 2
        assert raw.n_dropped == 2

    def test_unparseable_continuous_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad_cell.csv"
        path.write_text(
            "race,gender,lsat,ugpa,fya\n"
            "white,male,1.0,2.0,0.5\n"
            "black,female,oops,2.0,0.1\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path, builtin_spec("law"))

    def test_positive_label_mapping(self, tmp_path):
        spec = DatasetSpec(
            name="tiny",
            task="classification",
            target_column="label",
            sensitive_columns=("g",),
            continuous_columns=("x",),
            categorical_columns=(),
            positive_label="yes",
            negative_label="no",
        )
        path = tmp_path / "tiny.csv"
        path.write_text("g,x,label\na,1.0,yes\nb,2.0,no\na,3.0,yes\n")
        raw = load_csv(path, spec)
        assert raw.target.tolist() == [1.0, 0.0, 1.0]

    def test_numeric_classification_target_must_be_binary(self, tmp_path):
        spec = BUILTIN_SPECS["compas"]
        path = tmp_path / "c.csv"
        path.write_text(
            "race,sex,age,priors_count,charge_degree,two_year_recid\n"
            "a,m,30,1,felony,2\n"
        )
        with pytest.raises(ParseError):
            load_csv(path, spec)


class TestSplit:
    def test_sizes_disjoint_covering(self):
        s = split(10, seed=0)
        assert s.train_indices.size == 8
        assert s.test_indices.size == 2
        combined = np.concatenate([s.train_indices, s.test_indices])
        assert sorted(combined.tolist()) == list(range(10))

    def test_deterministic(self):
        a = split(100, seed=7)
        b = split(100, seed=7)
        assert np.array_equal(a.train_indices, b.train_indices)
        assert np.array_equal(a.test_indices, b.test_indices)

    def test_different_seeds_differ(self):
        a = split(1000, seed=1)
        b = split(1000, seed=2)
        assert not np.array_equal(a.train_indices, b.train_indices)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            split(4, seed=0)

    def test_partition_property_many_sizes(self):
        for n in [5, 17, 64, 321]:
            s = split(n, seed=n)
            train = set(s.train_indices.tolist())
            test = set(s.test_indices.tolist())
            assert not train & test
            assert train | test == set(range(n))
            assert len(train) == int(round(0.8 * n))


class TestPreprocess:
    def test_standardization_hand_case(self, tmp_path):
        spec = DatasetSpec(
            name="tiny",
            task="regression",
            target_column="y",
            sensitive_columns=("g",),
            continuous_columns=("x",),
            categorical_columns=(),
        )
        path = tmp_path / "t.csv"
        path.write_text("g,x,y\na,0.0,1.0\na,2.0,2.0\nb,4.0,3.0\n")
        raw = load_csv(path, spec)
        ds = preprocess(raw, spec, train_indices=[0, 1])
        # train values [0, 2]: mean 1, population std 1 -> [-1, 1]
        assert ds.X[:2, 0].tolist() == [-1.0, 1.0]
        assert ds.X[2, 0] == pytest.approx(3.0)

    def test_train_stats_near_zero_mean_unit_std(self, law_raw):
        spec = builtin_spec("law")
        train_idx = np.arange(90)
        ds = preprocess(law_raw, spec, train_idx)
        for j, name in enumerate(ds.column_names):
            col = ds.X[train_idx, j]
            assert abs(col.mean()) < 1e-9
            assert abs(col.std() - 1.0) < 1e-9

    def test_constant_column_gets_unit_std(self, tmp_path):
        spec = DatasetSpec(
            name="tiny",
            task="regression",
            target_column="y",
            sensitive_columns=("g",),
            continuous_columns=("x",),
            categorical_columns=(),
        )
        path = tmp_path / "t.csv"
        path.write_text("g,x,y\na,5.0,1.0\na,5.0,2.0\nb,5.0,3.0\n")
        raw = load_csv(path, spec)
        ds = preprocess(raw, spec, train_indices=[0, 1, 2])
        assert np.all(ds.X[:, 0] == 0.0)

    def test_one_hot_rows_sum_to_one_per_attribute(self, law_raw):
        spec = builtin_spec("law")
        ds = preprocess(law_raw, spec, train_indices=np.arange(90))
        start = 0
        for size in map(len, ds.sensitive_categories):
            block = ds.S_onehot[:, start : start + size]
            assert np.all(block.sum(axis=1) == 1.0)
            start += size

    def test_sensitive_columns_excluded_from_x(self, law_raw):
        spec = builtin_spec("law")
        ds = preprocess(law_raw, spec, train_indices=np.arange(90))
        for name in ds.column_names:
            assert not name.startswith("race")
            assert not name.startswith("gender")

    def test_categorical_one_hot(self, tmp_path):
        spec = DatasetSpec(
            name="tiny",
            task="regression",
            target_column="y",
            sensitive_columns=("g",),
            continuous_columns=(),
            categorical_columns=("c",),
        )
        path = tmp_path / "t.csv"
        path.write_text("g,c,y\nx,a,1\nx,b,2\nz,c,3\nz,a,4\nx,b,5\n")
        raw = load_csv(path, spec)
        ds = preprocess(raw, spec, train_indices=[0, 1, 2])
        assert ds.column_names == ("c=a", "c=b", "c=c")
        assert np.all(ds.X.sum(axis=1) == 1.0)

    def test_transforms_depend_only_on_train_rows(self, tmp_path):
        spec = DatasetSpec(
            name="tiny",
            task="regression",
            target_column="y",
            sensitive_columns=("g",),
            continuous_columns=("x",),
            categorical_columns=(),
        )
        base = "g,x,y\na,0.0,1.0\na,2.0,2.0\nb,9.0,3.0\n"
        other = "g,x,y\na,0.0,1.0\na,2.0,2.0\nb,-4.0,0.0\n"
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        p1.write_text(base)
        p2.write_text(other)
        ds1 = preprocess(load_csv(p1, spec), spec, [0, 1])
        ds2 = preprocess(load_csv(p2, spec), spec, [0, 1])
        assert np.array_equal(ds1.X[:2], ds2.X[:2])

    def test_empty_train_rejected(self, law_raw):
        with pytest.raises(ValueError):
            preprocess(law_raw, builtin_spec("law"), train_indices=[])

    def test_take_slices_rows(self, law_raw):
        spec = builtin_spec("law")
        ds = preprocess(law_raw, spec, train_indices=np.arange(90))
        sub = ds.take([3, 5, 7])
        assert sub.n_rows == 3
        assert np.array_equal(sub.X, ds.X[[3, 5, 7]])
        assert np.array_equal(sub.y, ds.y[[3, 5, 7]])
        assert sub.column_names == ds.column_names

    def test_labels_match_onehot(self, law_raw):
        spec = builtin_spec("law")
        ds = preprocess(law_raw, spec, train_indices=np.arange(90))
        start = 0
        for attr_i, size in enumerate(map(len, ds.sensitive_categories)):
            block = ds.S_onehot[:, start : start + size]
            assert np.array_equal(block.argmax(axis=1), ds.S_labels[:, attr_i])
            start += size


@st.composite
def mixed_tables(draw):
    """A spec with 1-2 sensitive columns among 0-2 continuous and 0-2
    categorical ones, rows of cells for it, and a second draw of the
    sensitive cells."""
    n_sens = draw(st.integers(1, 2))
    n_cont = draw(st.integers(0, 2))
    n_cat = draw(st.integers(0, 2))
    n = draw(st.integers(5, 30))
    cells = st.sampled_from(["a", "b", "c", "1", "2.5"])
    spec = DatasetSpec(
        name="mixed",
        task="regression",
        target_column="y",
        sensitive_columns=tuple(f"s{i}" for i in range(n_sens)),
        continuous_columns=tuple(f"c{i}" for i in range(n_cont)),
        categorical_columns=tuple(f"k{i}" for i in range(n_cat)),
    )
    floats = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    rows = []
    for _ in range(n):
        row = {c: draw(floats) for c in spec.continuous_columns + ("y",)}
        row.update({c: draw(cells) for c in spec.categorical_columns + spec.sensitive_columns})
        rows.append(row)
    # sensitive cells may copy a categorical column, so X must not pick them by value
    redraw = [{c: draw(cells) for c in spec.sensitive_columns} for _ in range(n)]
    return spec, rows, redraw


def _process(spec, rows, train):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return preprocess(load_csv(path, spec), spec, train)


@given(mixed_tables())
@settings(max_examples=60, deadline=None)
def test_sensitive_columns_never_reach_x(table):
    spec, rows, redraw = table
    train = split(len(rows), seed=0).train_indices
    ds = _process(spec, rows, train)
    for name in ds.column_names:
        assert name.split("=")[0] not in spec.sensitive_columns
    n_cats = sum(len({r[c] for r in rows}) for c in spec.categorical_columns)
    assert ds.X.shape == (len(rows), len(spec.continuous_columns) + n_cats)
    n_sens = sum(len({r[c] for r in rows}) for c in spec.sensitive_columns)
    assert ds.S_onehot.shape == (len(rows), n_sens)
    # new sensitive cells change S but leave X bit for bit as it was
    other = _process(spec, [{**r, **s} for r, s in zip(rows, redraw)], train)
    assert other.X.tobytes() == ds.X.tobytes()
    assert other.column_names == ds.column_names


NON_FINITE = st.one_of(
    st.sampled_from(["inf", "-inf", "+inf", "Infinity", "-nan", "+nan"]),
    st.integers(309, 5000).map(lambda k: f"{'-' if k % 2 else ''}1e{k}"),
)


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@given(
    rows=st.lists(st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 3), min_size=1,
                  max_size=12),
    where=st.tuples(st.integers(0, 11), st.sampled_from(["lsat", "ugpa", "fya"])),
    cell=NON_FINITE,
)
@settings(max_examples=60, deadline=None)
def test_non_finite_cell_rejected_with_its_line(rows, where, cell):
    row_i, column = where[0] % len(rows), where[1]
    header = ["race", "gender", "lsat", "ugpa", "fya"]
    table = [["a", "m"] + [repr(v) for v in row] for row in rows]
    table[row_i][header.index(column)] = cell
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "law.csv"
        _write_rows(path, header, table)
        with pytest.raises(ParseError, match=f"{column!r} as a finite number at line {row_i + 2}$"):
            load_csv(path, builtin_spec("law"))


@given(
    labels=st.lists(st.sampled_from([">50K", "<=50K"]), min_size=1, max_size=12),
    row_i=st.integers(0, 11),
    label=st.one_of(
        st.sampled_from([">50K.", "<=50K.", "garbage", ">50k", "1", "0"]),
        st.text("<=>.50Kkx", min_size=1),
    ).filter(lambda t: t not in (">50K", "<=50K")),
)
@settings(max_examples=60, deadline=None)
def test_unknown_class_label_rejected_with_its_line(labels, row_i, label):
    spec = builtin_spec("adult")
    row_i %= len(labels)
    labels[row_i] = label
    header = list(spec.used_columns)
    cells = {c: "1" for c in spec.continuous_columns}
    table = [[cells.get(c, "a") for c in header[:-1]] + [y] for y in labels]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "adult.csv"
        _write_rows(path, header, table)
        with pytest.raises(ParseError, match=re.escape(f"got {label!r} at line {row_i + 2}")):
            load_csv(path, spec)


def test_spec_names_both_labels_or_neither():
    with pytest.raises(ValueError, match="both target labels"):
        DatasetSpec(
            name="half",
            task="classification",
            target_column="y",
            sensitive_columns=("g",),
            continuous_columns=(),
            categorical_columns=(),
            positive_label="yes",
        )


def test_builtin_spec_unknown_name():
    with pytest.raises(ValueError):
        builtin_spec("mystery")


def test_spec_rejects_overlapping_columns():
    with pytest.raises(ValueError):
        DatasetSpec(
            name="bad",
            task="regression",
            target_column="x",
            sensitive_columns=("x",),
            continuous_columns=(),
            categorical_columns=(),
        )
