"""Rational arithmetic, square classes, places, Hilbert symbols, Brauer classes."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfisterinv.arith import (
    BrauerClass,
    Place,
    ZeroInputError,
    brauer_class_of_symbol,
    factorize,
    hilbert_symbol,
    is_prime,
    rat,
    rat_str,
    relevant_places,
    sqrt_mod_prime,
    sqrt_rational,
    square_class,
    square_classes,
)
from pfisterinv.arith import _RHO_LIMIT, _brent_rho, _coprime_basis, _power_root

nonzero_small = st.integers(min_value=-50, max_value=50).filter(lambda n: n != 0)


class TestRationalIO:
    def test_rat_parses_fraction_strings(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat("-7") == Fraction(-7)
        assert rat(5) == Fraction(5)

    def test_rat_rejects_a_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            rat("1/0")

    def test_rat_str_omits_unit_denominator(self):
        assert rat_str(Fraction(5)) == "5"
        assert rat_str(Fraction(-3, 4)) == "-3/4"

    @given(st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6))
    def test_round_trip(self, x):
        assert rat(rat_str(x)) == x


class TestFactorize:
    def test_small(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}

    def test_negative_uses_absolute_value(self):
        assert factorize(-12) == {2: 2, 3: 1}

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            factorize(0)

    def test_large_semiprime(self):
        # beyond the trial-division bound; both factors prime
        p, q = 1000003, 1000033
        assert factorize(p * q) == {p: 1, q: 1}

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=60)
    def test_product_reconstructs(self, n):
        factors = factorize(n)
        prod = 1
        for p, e in factors.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n

    @given(
        st.lists(
            st.tuples(st.integers(4, 2**31), st.integers(1, 3)), min_size=1, max_size=4
        )
    )
    @example([(1009, 2)])
    @example([(1048573, 2)])
    @example([(2**61 - 1, 1)])
    @example([(1031, 1), (2**61 - 1, 1)])
    @settings(max_examples=120, deadline=None)
    def test_matches_sympy_factorint(self, powers):
        # primes of 3 to 31 bits, most of them past the trial-division limit
        from sympy import factorint, nextprime

        n = 1
        for base, exp in powers:
            n *= (base if is_prime(base) else int(nextprime(base))) ** exp
        assert factorize(n) == {int(p): e for p, e in factorint(n).items()}

    @pytest.mark.parametrize(
        "n",
        [
            # the composites above 10^18 that sample_scenario(7..31) factor
            2901616322458327139,
            34355148826532327597,
            101478380190524457228091,
            7988586164357593291973513,
            102108156651361208722466578232909,
            58387245605320609531127696467161643,
            1223703710817585769706520108778198801843,
            113245262299810634008880789493219553210205098363,
            10156239780979532227604897933572355713270997462629243,
        ],
    )
    def test_large_cofactors_match_sympy_factorint(self, n):
        from sympy import factorint

        assert list(factorize(n).items()) == sorted((int(p), e) for p, e in factorint(n).items())
        # each loses a factor to the bounded rho; what is left may need sympy
        assert 1 < _brent_rho(n, _RHO_LIMIT) < n

    def test_bounded_rho_gives_up_on_two_large_primes(self):
        assert _brent_rho(326717368880593 * 12302794429196026709, _RHO_LIMIT) == 0


class TestSquareClass:
    def test_spec_examples(self):
        assert square_class(18) == 2
        assert square_class(Fraction(4, 9)) == 1
        assert square_class(Fraction(-75, 2)) == -6

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            square_class(0)

    @given(nonzero_small, nonzero_small)
    def test_invariant_under_square_scaling(self, x, y):
        assert square_class(Fraction(x) * y * y) == square_class(x)

    @given(st.lists(nonzero_small, min_size=1, max_size=6))
    def test_batch_agrees_with_single(self, values):
        assert square_classes(values) == [square_class(v) for v in values]


class TestPowerRoot:
    @given(
        st.lists(
            st.tuples(st.integers(2, 10**6), st.integers(1, 12)), min_size=1, max_size=3
        ),
        st.integers(1, 7),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy_perfect_power(self, factors, outer):
        from sympy.ntheory import perfect_power

        n = 1
        for base, exp in factors:
            n *= base**exp
        n = n**outer
        pp = perfect_power(n)
        assert _power_root(n) == (int(pp[0]) if pp else n)

    def test_small_cases(self):
        assert [_power_root(n) for n in (2, 4, 8, 12, 36, 64, 3**10 * 5**10)] == [
            2, 2, 2, 12, 6, 2, 15,
        ]

    def test_coprime_basis_keeps_roots(self):
        assert sorted(_coprime_basis([2**6 * 3**4, 3**2 * 7**9])) == [2, 3, 7]


class TestSqrtHelpers:
    def test_sqrt_rational(self):
        assert sqrt_rational(Fraction(9, 4)) == Fraction(3, 2)
        with pytest.raises(ValueError):
            sqrt_rational(Fraction(2))

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 10007, 2**31 - 1])
    def test_sqrt_mod_prime(self, p):
        for n in range(1, 12):
            r = n * n % p
            s = sqrt_mod_prime(r, p)
            assert s * s % p == r

    def test_sqrt_mod_prime_nonresidue(self):
        with pytest.raises(ValueError):
            sqrt_mod_prime(2, 5)


class TestPlace:
    def test_labels_round_trip(self):
        for place in (Place.real(), Place.finite(2), Place.finite(97)):
            assert Place.from_label(place.label) == place

    def test_finite_requires_prime(self):
        with pytest.raises(ValueError):
            Place.finite(6)


class TestHilbertSymbol:
    def test_one_is_always_plus(self):
        for place in (Place.real(), Place.finite(2), Place.finite(5)):
            assert hilbert_symbol(1, -7, place) == 1

    def test_real_definite(self):
        assert hilbert_symbol(-1, -1, Place.real()) == -1

    def test_spec_example_2_3_at_3(self):
        assert hilbert_symbol(2, 3, Place.finite(3)) == -1

    def test_oracle_small_primes(self):
        # oracle: z^2 = a x^2 + b y^2 solvable mod p^3 with a primitive triple
        # (enough to detect solvability for odd p and unit/prime inputs here)
        def solvable(a, b, p):
            m = p**3
            for x in range(m):
                for y in range(m):
                    if x % p == 0 and y % p == 0:
                        continue
                    z2 = (a * x * x + b * y * y) % m
                    for z in range(m):
                        if z * z % m == z2:
                            break
                    else:
                        continue
                    return True
            return False

        for a, b, p in [(2, 3, 3), (2, 5, 5), (3, 5, 5), (1, 3, 3), (-1, 3, 3)]:
            expect = solvable(a, b, p)
            got = hilbert_symbol(a, b, Place.finite(p)) == 1
            assert got == expect, (a, b, p)

    @given(nonzero_small, nonzero_small)
    @settings(max_examples=100)
    def test_reciprocity(self, a, b):
        signs = [hilbert_symbol(a, b, v) for v in relevant_places(a, b)]
        prod = 1
        for s in signs:
            prod *= s
        assert prod == 1

    @given(nonzero_small, nonzero_small)
    def test_symmetry(self, a, b):
        for v in relevant_places(a, b):
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)

    @given(nonzero_small, nonzero_small, nonzero_small)
    @settings(max_examples=60)
    def test_bimultiplicative(self, a, b1, b2):
        for v in relevant_places(a, b1, b2):
            assert hilbert_symbol(a, b1 * b2, v) == hilbert_symbol(
                a, b1, v
            ) * hilbert_symbol(a, b2, v)

    @given(nonzero_small)
    def test_norm_identities(self, a):
        for v in relevant_places(a):
            assert hilbert_symbol(a, -a, v) == 1
        if a != 1:
            for v in relevant_places(a, 1 - a):
                assert hilbert_symbol(a, 1 - a, v) == 1


class TestBrauerClass:
    def test_trivial_symbol(self):
        assert brauer_class_of_symbol(1, 5).is_trivial

    def test_minus_one_minus_one(self):
        cls = brauer_class_of_symbol(-1, -1)
        assert cls.labels() == ["real", "p2"]

    def test_reciprocity_enforced(self):
        with pytest.raises(ValueError):
            BrauerClass(frozenset({Place.real()}))

    def test_serialization_round_trip(self):
        cls = brauer_class_of_symbol(-1, 3)
        assert BrauerClass.from_labels(cls.labels()) == cls

    @given(nonzero_small, nonzero_small)
    @settings(max_examples=50)
    def test_local_signs_match_symbols(self, a, b):
        cls = brauer_class_of_symbol(a, b)
        for v in relevant_places(a, b):
            assert cls.local_sign(v) == hilbert_symbol(a, b, v)

    @given(nonzero_small, nonzero_small, nonzero_small, nonzero_small)
    @settings(max_examples=40)
    def test_group_laws(self, a, b, c, d):
        x = brauer_class_of_symbol(a, b)
        y = brauer_class_of_symbol(c, d)
        assert (x + x).is_trivial
        assert BrauerClass.trivial() + y == y
        assert x + y == y + x
        assert (x + y) + x == y
