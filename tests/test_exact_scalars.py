"""The scalar rule: every value the exact kernel returns is an int or a Fraction.

In Python ``int / int`` is a float, so a division that forgets to go through
``linalg.div`` would leak one as soon as both operands are integral. These
tests feed integer (and some rational) inputs to the kernel's entry points
and walk the full reports of one hyperbolic and one definite scenario.
"""

import dataclasses
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pfisterinv
from pfisterinv import arith, linalg, quat, shapiro4
from pfisterinv.qform import DegenerateFormError, QuadraticForm, _round_div
from pfisterinv.quat import QuaternionAlgebra

small_ints = st.integers(min_value=-4, max_value=4)
entries = st.one_of(
    small_ints, st.fractions(min_value=-4, max_value=4, max_denominator=3)
)
symbols = st.sampled_from(shapiro4.SYMBOL_POOL)


def exact_leaves(value):
    """Every scalar leaf of nested tuples, lists, dicts and dataclasses."""
    if isinstance(value, (list, tuple)):
        for x in value:
            yield from exact_leaves(x)
    elif isinstance(value, dict):
        for x in value.values():
            yield from exact_leaves(x)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from exact_leaves(getattr(value, f.name))
    else:
        yield value


def assert_exact(value):
    for x in exact_leaves(value):
        assert type(x) in (int, Fraction), f"{x!r} is a {type(x).__name__}"


def square_matrices(elements, max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def algebra_D(a1, b1, a2, b2):
    return shapiro4.build_D(QuaternionAlgebra(a1, b1), QuaternionAlgebra(a2, b2))


vectors16 = st.lists(small_ints, min_size=16, max_size=16)
vectors4 = st.lists(small_ints, min_size=4, max_size=4)


class TestLinalg:
    def test_div_is_exact_and_normalized(self):
        assert type(linalg.div(6, 3)) is int and linalg.div(6, 3) == 2
        assert linalg.div(1, 2) == Fraction(1, 2)
        assert type(linalg.div(Fraction(4, 3), Fraction(2, 3))) is int
        assert type(linalg.scalar(Fraction(8, 4))) is int
        assert linalg.vector(["1/2", 3]) == (Fraction(1, 2), 3)
        with pytest.raises(TypeError):
            linalg.vector([3.0])

    @given(square_matrices(entries))
    @settings(max_examples=60, deadline=None)
    def test_det_rref_nullspace(self, rows):
        a = linalg.matrix(rows)
        assert_exact(linalg.det(a))
        assert_exact(linalg.rref(a))
        assert_exact(linalg.nullspace(a))

    @given(square_matrices(small_ints))
    @settings(max_examples=60, deadline=None)
    def test_integer_matrices_stay_integral(self, rows):
        # determinant and characteristic polynomial of an integer matrix are
        # integers, and integers are what comes back
        a = linalg.matrix(rows)
        assert type(linalg.det(a)) is int
        assert all(type(c) is int for c in linalg.charpoly(a))

    @given(square_matrices(entries, max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_lll_reduce(self, rows):
        assume(linalg.rank(linalg.matrix(rows)) == len(rows))
        assert_exact(linalg.lll_reduce(rows))

    @given(
        st.lists(small_ints, min_size=1, max_size=3),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_poly_nth_root(self, tail, k):
        q = [1] + tail
        p = [1]
        for _ in range(k):
            p = linalg.poly_mul(p, q)
        root = linalg.poly_nth_root(p, k)
        assert root == q
        assert_exact(root)


class TestStructureAlgebra:
    @given(symbols, symbols, symbols, symbols, vectors16, vectors16)
    @settings(max_examples=30, deadline=None)
    def test_mul_trd_nrd_inverse(self, a1, b1, a2, b2, x, y):
        alg = algebra_D(a1, b1, a2, b2).algebra
        x, y = linalg.vector(x), linalg.vector(y)
        product = alg.mul(x, y)
        assert all(type(c) is int for c in product)
        assert_exact((alg.trd(x), alg.nrd(x)))
        if alg.is_invertible(x):
            assert_exact(alg.inverse(x))

    @pytest.mark.parametrize("slots", [(-1, -1, 2, 3), (1, 5, 7, -11)])
    def test_trace_form(self, slots):
        assert_exact(algebra_D(*slots).algebra.trace_form())


class TestForms:
    @given(symbols, symbols, symbols, symbols, vectors16)
    @settings(max_examples=15, deadline=None)
    def test_q_u_form(self, a1, b1, a2, b2, u):
        try:
            q = shapiro4.q_u_form(algebra_D(a1, b1, a2, b2), linalg.vector(u))
        except DegenerateFormError:
            assume(False)
        assert_exact(q.gram)

    @given(square_matrices(small_ints, max_n=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_pairing_and_evaluate(self, rows, data):
        n = len(rows)
        gram = [[rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        try:
            q = QuadraticForm(gram)
        except DegenerateFormError:
            assume(False)
        vecs = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4))
        assert_exact(q.pairing(vecs, vecs))
        assert_exact([q.evaluate(v) for v in vecs])


@pytest.mark.parametrize("seed", [36, 58])  # hyperbolic, definite
def test_scenario_reports_hold_no_float(seed):
    report = shapiro4.run_scenario(shapiro4.sample_scenario(seed))
    assert report.branch == ("hyperbolic" if seed == 36 else "definite-pfister")
    for x in exact_leaves(report):
        assert not isinstance(x, float), f"{x!r} in the report of seed {seed}"
    assert_exact(report.u)
    for v in (report.isotropic_subspace or []) + (report.lagrangian or []):
        assert_exact(v)


class TestOneCoercion:
    def test_one_function_two_names(self):
        assert linalg.scalar is arith.rat

    @pytest.mark.parametrize("bad", [0.5, 3.0, None, 1j, [1]])
    def test_float_and_other_types_raise(self, bad):
        with pytest.raises(TypeError):
            arith.rat(bad)
        with pytest.raises(TypeError):
            linalg.vector([bad])

    def test_strings_and_fractions_follow_the_rule(self):
        assert type(arith.rat("6/3")) is int and arith.rat("6/3") == 2
        assert arith.rat(" -3/4 ") == Fraction(-3, 4)
        assert type(arith.rat(Fraction(10, 5))) is int
        assert type(arith.rat(True)) is int
        assert type(arith.sqrt_rational(Fraction(36, 4))) is int
        assert arith.sqrt_rational(Fraction(9, 4)) == Fraction(3, 2)
        assert arith._val_unit(Fraction(12, 5), 2) == (2, Fraction(3, 5))
        assert type(arith._val_unit(Fraction(12, 1), 2)[1]) is int

    @given(symbols, symbols, vectors4, vectors4)
    @settings(max_examples=40, deadline=None)
    def test_quaternions_of_integral_symbols_are_ints(self, a, b, x, y):
        q = QuaternionAlgebra(f"{a}/1", Fraction(b))
        assert type(q.a) is int and type(q.b) is int
        x, y = q.element(x), q.element(y)
        products = (x * y).coords + (3 * x).coords
        for value in (*x.coords, *products, quat.nrd(x), quat.trd(x)):
            assert type(value) is int, value

    def test_splitting_map_of_an_integral_symbol_is_exact(self):
        sm = quat.splitting_isomorphism(QuaternionAlgebra(1, 5))
        assert_exact(sm.images)
        assert_exact(sm.apply(QuaternionAlgebra(1, 5).element([1, 2, 3, 4])))


@given(st.integers(-10**6, 10**6), st.integers(-50, 50).filter(bool))
@settings(max_examples=400, deadline=None)
def test_round_div_is_round_of_the_fraction(a, b):
    assert _round_div(a, b) == round(Fraction(a, b))
    assert type(_round_div(a, b)) is int


@pytest.mark.parametrize("b", [2, -2, 4, -4, 6, -6])
def test_round_div_ties_go_to_even(b):
    for k in range(-7, 8):
        a = k * b + b // 2  # exactly halfway between k and k + 1
        assert _round_div(a, b) == round(Fraction(a, b))
        assert _round_div(a, b) % 2 == 0


def test_source_guard():
    """No AssertionError or bare assert in the package; Fraction built only in
    arith and linalg; no construction-time ``validate=`` switch."""
    src = pathlib.Path(pfisterinv.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "AssertionError" not in text, path.name
        assert not re.search(r"^\s*assert\b", text, re.M), path.name
        assert "validate=" not in text, path.name
        if path.name not in ("arith.py", "linalg.py"):
            assert "Fraction(" not in text, path.name
