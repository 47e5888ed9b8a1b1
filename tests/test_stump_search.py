"""The presorted, vectorised split search against the per-boundary loop of
tests/stump_reference.py: the same stump, compared with ==, on random,
tied, constant and one-hot columns, and the same whole ensembles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import stump_reference
from minifair.baselines import _best_stump, _presort, fit_stumps

SETTINGS = settings(max_examples=150, deadline=None)

rows = st.integers(2, 30)
cols = st.integers(1, 4)
finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def assert_same_stump(f, residual):
    f = np.asarray(f, dtype=float)
    residual = np.asarray(residual, dtype=float)
    stump = _best_stump(_presort(f), residual)
    assert stump == stump_reference.best_stump(f, residual)
    return stump


@st.composite
def matrix_and_residual(draw, elements):
    n, d = draw(rows), draw(cols)
    return draw(arrays(np.float64, (n, d), elements=elements)), draw(arrays(np.float64, n, elements=finite))


@SETTINGS
@given(matrix_and_residual(finite))
def test_random_float_columns(case):
    assert_same_stump(*case)


@SETTINGS
@given(matrix_and_residual(st.sampled_from([-1.0, 0.0, 0.5, 2.0])))
def test_few_distinct_values(case):
    assert_same_stump(*case)


@SETTINGS
@given(matrix_and_residual(finite), st.data())
def test_constant_columns(case, data):
    f, residual = case
    for j in data.draw(st.sets(st.integers(0, f.shape[1] - 1))):
        f[:, j] = f[0, j]
    assert_same_stump(f, residual)


@SETTINGS
@given(rows, cols, finite, arrays(np.float64, 30, elements=finite))
def test_all_constant_matrix_falls_back_to_one_leaf(n, d, value, residual):
    j, threshold, left, right = assert_same_stump(np.full((n, d), value), residual[:n])
    assert (j, threshold) == (0, float("inf")) and left == right


@SETTINGS
@given(rows, st.integers(1, 5), st.data())
def test_one_hot_columns(n, k, data):
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    continuous = data.draw(arrays(np.float64, (n, 1), elements=finite))
    residual = data.draw(arrays(np.float64, n, elements=finite))
    assert_same_stump(np.hstack([np.eye(k)[labels], continuous]), residual)


@SETTINGS
@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=8),
    st.booleans(),
    st.integers(0, 15),
    st.sampled_from([0.0, 1e-16, 4e-16, 1e-15, 1.5e-15, 3e-15]),
)
def test_exact_and_near_ties(half, odd, nudged, nudge):
    # Integer residuals over 16 mirrored about the middle make the splits
    # after k and after n - 2 - k score exactly the same gain, a duplicate
    # column ties every split with its twin, and the nudge moves one gain
    # away from its tie by about 1e-15.
    residual = np.array(half + half[::-1][int(odd):], dtype=float) / 16.0
    n = residual.size
    residual[nudged % n] += nudge
    x = np.arange(n, dtype=float)
    assert_same_stump(np.column_stack([x, x[::-1], x]), residual)


@pytest.mark.parametrize("residual", [
    # gains near 0.5, about 1e-15 apart
    [0.26455115536856416, 0.37105419667681594, 0.47755723798507665],
    [0.26227783172444186, 0.0619159537972214, -0.13844592413000403],
    [0.26227783172444186, 0.0619159537972214, 0.26227783172444685],
    # gains above 20, where 1e-15 is under half an ulp: one ulp decides
    [2.887777281741311, 3.259319154490438, 2.887777281741298],
    [6.207933620311229, 6.161953559991746, 6.115973499671806],
    [2.3190490464233964, 3.277579955747736, 4.236110865072082],
])
def test_last_bit_of_the_square_decides_a_near_tie(residual):
    # Ranking these splits by x * x instead of the loop's scalar x**2, which
    # calls C pow, picks a different one.
    assert_same_stump(np.arange(3.0)[:, None], residual)


@SETTINGS
@given(
    matrix_and_residual(st.one_of(finite, st.sampled_from([0.0, 1.0]))),
    st.sampled_from(["regression", "classification"]),
    st.integers(1, 8),
    st.sampled_from([0.1, 0.5, 1.0]),
)
def test_whole_ensembles_match(case, task, rounds, learning_rate):
    f, y = case
    if task == "classification":
        y = (y > 0).astype(float)
    model = fit_stumps(f, y, task, rounds, learning_rate)
    reference = stump_reference.fit_stumps(f, y, task, rounds, learning_rate)
    assert model.stumps == reference.stumps
    assert model.base_score == reference.base_score


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_ensemble_on_continuous_codes_matches(task):
    rng = np.random.default_rng(7)
    f = np.tanh(rng.normal(size=(300, 4)))
    y = f[:, 0] - f[:, 1] ** 2 + rng.normal(scale=0.3, size=300)
    if task == "classification":
        y = (y > 0).astype(float)
    model = fit_stumps(f, y, task, rounds=25, learning_rate=0.3)
    reference = stump_reference.fit_stumps(f, y, task, rounds=25, learning_rate=0.3)
    assert model.stumps == reference.stumps
    assert model.base_score == reference.base_score
