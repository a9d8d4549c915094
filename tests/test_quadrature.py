"""The left-point running sum every integral and envelope of the library is built on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rangebound as rb
from rangebound import CoefficientSpec
from rangebound.transforms import prefix_sum

from checks import seeded_path

const = CoefficientSpec.constant


@pytest.fixture(scope="module")
def noisy_path():
    grid = rb.build_grid(5.0, 2000)
    return seeded_path(const(2), const(1), const(1), grid, seed=4)


def test_unit_integrand_telescopes(noisy_path):
    series = prefix_sum(np.diff(noisy_path.x))
    expected = noisy_path.x - noisy_path.x[0]
    assert np.max(np.abs(series - expected)) < 1e-12 * (1 + np.max(np.abs(expected)))


def test_zero_integrand_is_exactly_zero(noisy_path):
    series = prefix_sum(np.zeros(noisy_path.grid.n_steps) * np.diff(noisy_path.x))
    assert np.all(series == 0.0)


def test_first_value_is_zero_or_the_carry(noisy_path):
    terms = np.linspace(-1, 1, noisy_path.grid.n_steps) * np.diff(noisy_path.x)
    assert prefix_sum(terms)[0] == 0.0
    assert prefix_sum(terms, 2.5)[0] == 2.5
    assert prefix_sum(1j * terms, 1 - 2j)[0] == 1 - 2j


@pytest.mark.parametrize("length", [0, 1, 5, 2001])
def test_length_and_dtype(length):
    for dtype in (np.float64, np.complex128):
        values = prefix_sum(np.ones(length, dtype=dtype))
        assert len(values) == length + 1 and values.dtype == dtype
        assert values[-1] == length


def test_a_negative_zero_first_term_stays_negative_zero():
    values = prefix_sum(np.array([-0.0, -0.0]))
    assert np.signbit(values[1:]).all()
    # a carry of 0.0 is a value: 0.0 + -0.0 is +0.0
    assert not np.signbit(prefix_sum(np.array([-0.0]), 0.0)[1])


@settings(deadline=None, max_examples=60)
@given(
    cuts=st.lists(st.integers(0, 300), max_size=6),
    seed=st.integers(0, 2**32 - 1),
    complex_terms=st.booleans(),
)
def test_blocks_continued_from_the_carry_give_the_whole_sum_bit_for_bit(cuts, seed, complex_terms):
    rng = np.random.default_rng(seed)
    terms = rng.standard_normal(300) * 10.0 ** rng.integers(-8, 8, size=300)
    if complex_terms:
        terms = terms + 1j * rng.standard_normal(300)
    terms[rng.integers(0, 300, size=20)] = -0.0
    whole = prefix_sum(terms)
    carry, parts = None, [whole[:1]]
    edges = sorted(set(cuts) | {0, 300})
    for k0, k1 in zip(edges, edges[1:]):
        block = prefix_sum(terms[k0:k1], carry)
        carry = block[-1]
        parts.append(block[1:])
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_non_anticipation(noisy_path):
    n = noisy_path.grid.n_steps
    dx = np.diff(noisy_path.x)
    f = np.ones(n)
    g = f.copy()
    g[n // 2] = 100.0
    base = prefix_sum(f * dx)
    bumped = prefix_sum(g * dx)
    assert np.array_equal(base[: n // 2 + 1], bumped[: n // 2 + 1])
    assert base[n // 2 + 1] != bumped[n // 2 + 1]


def test_nonnegative_terms_are_nondecreasing():
    grid = rb.build_grid(2.0, 500)
    values = prefix_sum(np.abs(np.sin(7.0 * grid.nodes[:-1])) * grid.dt)
    assert np.all(np.diff(values) >= 0)
