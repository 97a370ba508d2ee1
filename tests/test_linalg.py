"""Lattice reduction: exact LLL conditions, agreement with a textbook
rational LLL, and rejection of dependent rows."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pfisterinv import linalg
from pfisterinv.linalg import lll_reduce

DELTA = Fraction(3, 4)
HALF = Fraction(1, 2)


def dot(u, v):
    return sum(Fraction(x) * y for x, y in zip(u, v))


def gram_schmidt(rows):
    """(mu, squared norms of the Gram-Schmidt vectors), in exact arithmetic."""
    stars, mu, norms = [], [], []
    for i, b in enumerate(rows):
        star = [Fraction(x) for x in b]
        mu.append([Fraction(0)] * len(rows))
        for j in range(i):
            mu[i][j] = dot(b, stars[j]) / norms[j]
            star = [x - mu[i][j] * y for x, y in zip(star, stars[j])]
        stars.append(star)
        norms.append(dot(star, star))
    return mu, norms


def reference_lll(rows):
    """Textbook rational LLL (delta = 3/4) in sympy's reduce/swap order.

    ``math.floor`` of a ``Fraction`` is exact, so this is the reduction that
    ``lll_reduce`` must reproduce bit for bit.
    """
    b = [[Fraction(x) for x in r] for r in rows]
    mu, norms = gram_schmidt(b)
    m = len(b)

    def reduce(k, l):
        if abs(mu[k][l]) <= HALF:
            return
        r = math.floor(mu[k][l] + HALF)
        b[k] = [x - r * y for x, y in zip(b[k], b[l])]
        for j in range(l):
            mu[k][j] -= r * mu[l][j]
        mu[k][l] -= r

    k = 1
    while k < m:
        reduce(k, k - 1)
        if norms[k] >= (DELTA - mu[k][k - 1] ** 2) * norms[k - 1]:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
            continue
        nu = mu[k][k - 1]
        alpha = norms[k] + nu * nu * norms[k - 1]
        beta = norms[k - 1] / alpha
        mu[k][k - 1] = nu * beta
        norms[k] *= beta
        norms[k - 1] = alpha
        b[k], b[k - 1] = b[k - 1], b[k]
        mu[k][: k - 1], mu[k - 1][: k - 1] = mu[k - 1][: k - 1], mu[k][: k - 1]
        for i in range(k + 1, m):
            xi = mu[i][k]
            mu[i][k] = mu[i][k - 1] - nu * xi
            mu[i][k - 1] = mu[k][k - 1] * mu[i][k] + xi
        k = max(k - 1, 1)
    return [tuple(r) for r in b]


def gram_det(rows):
    return linalg.det(linalg.mat_mul(linalg.matrix(rows), linalg.transpose(linalg.matrix(rows))))


def assert_reduced_basis_of(out, rows):
    mu, norms = gram_schmidt(out)
    for i in range(len(out)):
        for j in range(i):
            assert abs(mu[i][j]) <= HALF
    for k in range(1, len(out)):
        assert norms[k] >= (DELTA - mu[k][k - 1] ** 2) * norms[k - 1]
    assert gram_det(out) == gram_det(rows)
    # each output row is an integer combination of the input rows
    columns = linalg.transpose(linalg.matrix(rows))
    for row in out:
        coeffs = linalg.solve(columns, row)
        assert coeffs is not None
        assert all(c.denominator == 1 for c in coeffs)


@st.composite
def skewed_bases(draw):
    """Independent integer rows whose Gram-Schmidt coefficients exceed 2^53.

    A small independent basis is sheared by elementary row operations; the
    last one adds at least 2^60 times row 0 to row 1, which shifts mu[1][0]
    by that multiple.
    """
    m = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=m, max_value=m + 2))
    small = st.integers(min_value=-9, max_value=9)
    rows = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=m, max_size=m))
    assume(linalg.rank(linalg.matrix(rows)) == m)
    shears = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        shears.append((i, j, draw(st.integers(min_value=-(2**100), max_value=2**100))))
    big = st.integers(min_value=2**60, max_value=2**150)
    shears.append((1, 0, draw(big) * draw(st.sampled_from((1, -1)))))
    for i, j, c in shears:
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    mu, _ = gram_schmidt(rows)
    assume(max(abs(x) for r in mu for x in r) > 2**53)
    return rows


class TestLLLReduce:
    @given(skewed_bases())
    @settings(max_examples=60, deadline=None)
    def test_exact_conditions_and_reference_order(self, rows):
        out = lll_reduce(rows)
        assert_reduced_basis_of(out, rows)
        assert out == reference_lll(rows)

    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([[1, 0], [2**60 + 1, 1]], [(1, 0), (0, 1)]),
            ([[0, 1], [-3, 848828170294690849626]], [(0, 1), (-3, 0)]),
            ([[1, 0, 0], [0, 1, 0], [3**40 + 1, 5**25 + 1, 1]], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        ],
    )
    def test_coefficients_beyond_double_precision(self, rows, expected):
        out = lll_reduce(rows)
        assert out == expected
        assert_reduced_basis_of(out, rows)

    def test_rational_rows_are_scaled_back(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(2**70 + 1, 6), Fraction(5, 2)]]
        scaled = [[6 * x for x in r] for r in rows]
        out = lll_reduce(rows)
        assert [tuple(6 * x for x in r) for r in out] == reference_lll(scaled)

    def test_empty_and_single_row(self):
        assert lll_reduce([]) == []
        assert lll_reduce([[3, -4]]) == [(3, -4)]

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 0, 0]],
            [[1, 2, 3], [2, 4, 6]],
            [[1, 0], [0, 1], [1, 1]],
            [[1, 0, 0], [2**80, 1, 0], [2**80 + 3, 1, 0]],
        ],
    )
    def test_dependent_rows_raise_value_error(self, rows):
        with pytest.raises(ValueError, match="independent"):
            lll_reduce(rows)


def bezout_solution(f):
    """An integer x with f . x = gcd(f), by a chain of extended gcds."""

    def egcd(a, b):
        if b == 0:
            return (1 if a >= 0 else -1), 0, abs(a)
        q, r = divmod(a, b)
        s, t, g = egcd(b, r)
        return t, s - q * t, g

    x, g = [0] * len(f), 0
    for i, fi in enumerate(f):
        s, t, g = egcd(g, fi)
        x = [s * xj for xj in x]
        x[i] += t
    return x, g


@st.composite
def primitive_functionals(draw):
    entry = st.one_of(st.just(0), st.integers(-60, 60), st.integers(-10**9, 10**9))
    f = draw(st.lists(entry, min_size=1, max_size=16).filter(any))
    g = math.gcd(*f)
    return [x // g for x in f]


class TestPrimitiveKernelBasis:
    @given(primitive_functionals())
    @settings(max_examples=60, deadline=None)
    def test_basis_is_saturated(self, f):
        basis = linalg.primitive_kernel_basis(f)
        assert all(dot(f, b) == 0 for b in basis)
        x0, g = bezout_solution(f)
        assert dot(f, x0) == g == 1
        assert abs(linalg.det([x0] + basis)) == 1

    @pytest.mark.parametrize("f", [[2, 4], [0, 0, -6], [0, 0]])
    def test_non_primitive_functional_is_rejected(self, f):
        with pytest.raises(ValueError, match="primitive|zero"):
            linalg.primitive_kernel_basis(f)
