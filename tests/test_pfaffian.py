"""The generated Pfaffian kernels against the memoized recursion they
write out: equal bits on floats and on batched rows, one compile per size
and zero pattern, a bounded cache."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binoether.spectral import _absent, _pfaffian, _pfaffian_kernel
from helpers import reference_pfaffian

# the entries the zero test treats specially, non-finite values, and
# magnitudes whose products overflow or underflow
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 5e-324, -1.0, 1.0]


@st.composite
def entry_lists(draw, size: int) -> list[float]:
    """size entries: about half of them uniform in [-2, 2] with full
    mantissas, whose sums round differently in another order, the others
    zeros of either sign, special values or any float."""
    values = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-2.0, 2.0, size)
    other = st.one_of(st.just(0.0), st.just(-0.0), st.sampled_from(SPECIAL), st.floats())
    return [draw(st.one_of(st.just(float(v)), other)) for v in values]


def same_bits(a, b) -> bool:
    """Equal bits (so the same sign of zero) wherever a is not NaN, and NaN
    wherever it is."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    equal = a.view(np.int64) == b.view(np.int64)
    return a.shape == b.shape and bool(np.all(np.where(np.isnan(a), np.isnan(b), equal)))


def skew_rows(N: int, upper: list) -> list[list]:
    """Rows of the N x N skew matrix with the given entries above the
    diagonal, row by row (float 0.0 on the diagonal)."""
    rows: list[list] = [[0.0] * N for _ in range(N)]
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    for (i, j), v in zip(pairs, upper):
        rows[i][j], rows[j][i] = v, -v
    return rows


@st.composite
def point_rows(draw):
    N = draw(st.sampled_from([0, 2, 4, 6, 8]))
    return skew_rows(N, draw(entry_lists(N * (N - 1) // 2)))


@st.composite
def batched_rows(draw):
    """Batched rows: an array over m states per present entry, some of its
    elements zero at some states only, and the float 0.0 for an absent one."""
    N = draw(st.sampled_from([0, 2, 4, 6]))
    m = draw(st.integers(1, 4))
    arrays = entry_lists(m).map(np.array)
    upper = [draw(st.one_of(st.just(0.0), arrays)) for _ in range(N * (N - 1) // 2)]
    return skew_rows(N, upper)


@settings(max_examples=400, deadline=None)
@given(point_rows())
def test_point_kernel_matches_the_recursion_bit_for_bit(rows):
    assert same_bits(_pfaffian(rows), reference_pfaffian(rows))


@settings(max_examples=200, deadline=None)
@given(batched_rows())
def test_batched_kernel_matches_the_recursion_bit_for_bit(rows):
    with np.errstate(all="ignore"):
        got, want = _pfaffian(rows, _absent), reference_pfaffian(rows, _absent)
    assert type(got) is type(want) and same_bits(got, want)


def pattern_12x12(rng, zero_share: float) -> list[list]:
    upper = rng.uniform(-2.0, 2.0, size=66)
    cut = rng.random(66)
    upper[cut < zero_share] = 0.0
    upper[cut < zero_share / 2] = -0.0
    return skew_rows(12, upper.tolist())


@pytest.mark.parametrize("case", ["dense", "sparse", "canonical", "special"])
def test_fixed_12x12_cases(case):
    rng = np.random.default_rng(12)
    if case == "canonical":  # the pattern of the dissipative builtin at n = 6
        rows = skew_rows(12, [0.0] * 66)
        for i in range(6):
            rows[i][6 + i], rows[6 + i][i] = -(i + 1.5), i + 1.5
    else:
        rows = pattern_12x12(rng, {"dense": 0.0, "sparse": 0.5, "special": 0.2}[case])
    if case == "special":
        for (i, j), v in zip([(0, 5), (3, 4), (7, 11)], [math.nan, 1e300, -math.inf]):
            rows[i][j], rows[j][i] = v, -v
    assert same_bits(_pfaffian(rows), reference_pfaffian(rows))
    # the same matrix as batched rows, two states
    batched = [[v if i == j or v == 0.0 else np.array([v, 2.0 * v]) for j, v in enumerate(row)]
               for i, row in enumerate(rows)]
    with np.errstate(all="ignore"):
        assert same_bits(_pfaffian(batched, _absent), reference_pfaffian(batched, _absent))


def test_a_pattern_compiles_once():
    rng = np.random.default_rng(3)
    first, second = pattern_12x12(rng, 0.0), pattern_12x12(rng, 0.0)
    _pfaffian(first)
    before = _pfaffian_kernel.cache_info()
    assert same_bits(_pfaffian(second), reference_pfaffian(second))
    after = _pfaffian_kernel.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 1


def test_a_new_zero_pattern_compiles_a_new_kernel():
    rows = skew_rows(10, np.linspace(1.0, 2.0, 45).tolist())
    rows[0][3] = rows[3][0] = 0.0
    rows[2][7], rows[7][2] = -0.0, 0.0
    before = _pfaffian_kernel.cache_info()
    assert same_bits(_pfaffian(rows), reference_pfaffian(rows))
    assert _pfaffian_kernel.cache_info().misses == before.misses + 1
    # the zero tests see +-0.0 alike: the same kernel serves the other signs
    rows[2][7], rows[7][2] = 0.0, -0.0
    assert same_bits(_pfaffian(rows), reference_pfaffian(rows))
    assert _pfaffian_kernel.cache_info().misses == before.misses + 1


def test_the_cache_is_bounded():
    maxsize = _pfaffian_kernel.cache_parameters()["maxsize"]
    assert maxsize is not None
    for k in range(maxsize + 1):
        # distinct zero patterns of a 6 x 6 matrix: the bits of k
        upper = [0.0 if k >> b & 1 else 1.0 + b for b in range(15)]
        rows = skew_rows(6, upper)
        assert same_bits(_pfaffian(rows), reference_pfaffian(rows))
    assert _pfaffian_kernel.cache_info().currsize == maxsize
