"""Structure-constant algebras with involution: tensor products, adjoint
forms, the invariants e0/e1/e2, and Clifford algebras."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfisterinv import csa, linalg, qform, quat, shapiro4
from pfisterinv.arith import brauer_class_of_symbol, square_class
from pfisterinv.csa import (
    AlgebraError,
    adjoint_algebra,
    adjoint_form,
    adjoint_gram,
    clifford_brauer_class,
    e0,
    e1,
    e2,
    from_quaternion,
    is_pfister_involution,
    split_isomorphism,
    tensor,
    twist_involution,
)
from pfisterinv.qform import QuadraticForm
from pfisterinv.quat import QuaternionAlgebra

Q_HAMILTON = QuaternionAlgebra(Fraction(-1), Fraction(-1))
Q_SPLIT = QuaternionAlgebra(Fraction(1), Fraction(5))


nonzero_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=6).filter(bool)


def canonical(a, b):
    return from_quaternion(QuaternionAlgebra(Fraction(a), Fraction(b)), "canonical")


class TestFromQuaternion:
    def test_canonical_is_symplectic(self):
        assert canonical(-1, -1).sigma.type_tag == "symplectic"

    def test_twisted_is_orthogonal(self):
        q = QuaternionAlgebra(Fraction(2), Fraction(3))
        a = from_quaternion(q, q.i())
        assert a.sigma.type_tag == "orthogonal"

    def test_unit_fixed(self):
        a = canonical(2, 3)
        assert a.sigma.apply(a.algebra.unit) == a.algebra.unit

    def test_bad_descriptor_rejected(self):
        with pytest.raises(AlgebraError):
            from_quaternion(Q_SPLIT, "weird")


class TestTensor:
    def test_degree_and_type(self):
        d = tensor(canonical(-1, -1), canonical(2, 3))
        assert d.algebra.dim == 16 and d.degree == 4
        assert d.sigma.type_tag == "orthogonal"

    def test_type_product_rules(self):
        q = QuaternionAlgebra(Fraction(2), Fraction(3))
        sympl = from_quaternion(q, "canonical")
        orth = from_quaternion(q, q.i())
        assert tensor(sympl, sympl).sigma.type_tag == "orthogonal"
        assert tensor(orth, orth).sigma.type_tag == "orthogonal"
        assert tensor(sympl, orth).sigma.type_tag == "symplectic"

    def test_involution_is_tensor_of_involutions(self):
        x, y = canonical(2, 3), canonical(-1, 5)
        d = tensor(x, y)
        rng = random.Random(2)
        for _ in range(4):
            u = linalg.vector([rng.randint(-2, 2) for _ in range(4)])
            v = linalg.vector([rng.randint(-2, 2) for _ in range(4)])
            uv = tuple(a * b for a in u for b in v)
            gu, gv = x.sigma.apply(u), y.sigma.apply(v)
            assert d.sigma.apply(uv) == tuple(a * b for a in gu for b in gv)

    def test_tensor_products_pass_the_exhaustive_check(self):
        # tensor products and their involutions are not validated at
        # construction; associativity, the unit law and the anti-automorphism
        # law hold by construction, and the checks confirm it
        products = [
            tensor(canonical(-1, -1), canonical(2, 3)),  # non-split canonical pair
            tensor(canonical(1, 5), canonical(4, -3)),  # split pair
            tensor(
                tensor(canonical(-1, -1), canonical(2, 3)),
                tensor(canonical(-1, 5), canonical(3, 7)),
            ),
        ]
        for d in products:
            d.algebra._validate()
            d.sigma._validate()
            csa.Involution(d.algebra, d.sigma.matrix, d.sigma.type_tag)
        alg = products[0].algebra
        # e_1 e_2 = e_0 instead of a scaled e_3: monomial, not associative
        index, const = list(alg.index), list(alg.const)
        index[1 * alg.dim + 2], const[1 * alg.dim + 2] = 0, Fraction(1)
        with pytest.raises(AlgebraError):
            csa.StructureAlgebra(alg.labels, index, const, alg.unit)
        # gamma (x) identity squares to the identity but reverses no products
        x = canonical(-1, -1)
        not_anti = linalg.kron(x.sigma.matrix, linalg.identity(4))
        with pytest.raises(AlgebraError, match="anti-automorphism"):
            csa.Involution(alg, not_anti, "orthogonal")


def _symmetric_units(d):
    """The sigma-symmetric invertible basis elements other than 1."""
    basis = [d.algebra.basis_vector(t) for t in range(1, d.algebra.dim)]
    return [u for u in basis if d.sigma.apply(u) == u and d.algebra.is_invertible(u)]


def _twists(d):
    """d twisted by each symmetric invertible basis element, and one twisted twice."""
    out = [twist_involution(d, u) for u in _symmetric_units(d)]
    out.append(twist_involution(out[0], _symmetric_units(out[0])[-1]))
    return out


class TestHoldsByConstruction:
    # quaternion tables, matrix units, the canonical involution, twists by a
    # checked symmetric invertible u and adjoint involutions are built with
    # validate=False; the full checks confirm that they are algebras and
    # involutions
    def test_every_pool_symbol_and_its_gamma(self):
        for a in shapiro4.SYMBOL_POOL:
            for b in shapiro4.SYMBOL_POOL:
                x = from_quaternion(QuaternionAlgebra(a, b), "canonical")
                x.algebra._validate()
                x.sigma._validate()

    @settings(max_examples=60, deadline=None)
    @given(nonzero_rationals, nonzero_rationals)
    def test_drawn_symbols_and_their_gamma(self, a, b):
        x = from_quaternion(QuaternionAlgebra(a, b), "canonical")
        x.algebra._validate()
        x.sigma._validate()

    @pytest.mark.parametrize(
        "symbols", [((1, 5), (4, -3)), ((-1, -1), (2, 3)), ((-3, 2), (5, 11)), ((1, 1), (-1, -1))]
    )
    def test_twisted_products(self, symbols):
        d = tensor(*(canonical(a, b) for a, b in symbols))
        twisted = _twists(d)
        assert len(twisted) >= 3
        for t in twisted:
            t.sigma._validate()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_adjoint_involutions(self, n):
        # X -> G^{-1} X^T G for a diagonal G and a tridiagonal G whose
        # inverse is not integral
        diagonal = [[(-1) ** i * (i + 2) if i == j else 0 for j in range(n)] for i in range(n)]
        tridiagonal = [
            [2 if i == j else 1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)
        ]
        for gram in (diagonal, tridiagonal):
            a, _ = adjoint_algebra(QuadraticForm(gram))
            a.sigma._validate()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matrix_units(self, n):
        csa.matrix_structure(n)._validate()

    def test_corrupted_twist_is_rejected(self):
        t = _twists(tensor(canonical(1, 5), canonical(4, -3)))[0]
        broken = [list(row) for row in t.sigma.matrix]
        broken[1], broken[2] = broken[2], broken[1]
        with pytest.raises(AlgebraError):
            csa.Involution(t.algebra, linalg.matrix(broken), t.sigma.type_tag)


class TestAdjoint:
    def test_transpose_gives_identity_gram(self):
        q = QuadraticForm.from_diagonal([1, 1, 1])
        a, iso = adjoint_algebra(q)
        g = adjoint_gram(a, iso)
        assert g.gram == tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(3))
            for i in range(3)
        )

    def test_recovers_form_up_to_scalar(self):
        for entries in ([2, -3], [1, 2, 3], [1, 1, 1, -7]):
            q = QuadraticForm.from_diagonal(entries)
            a, iso = adjoint_algebra(q)
            g = adjoint_gram(a, iso)
            ratios = {
                g.gram[i][j] / q.gram[i][j]
                for i in range(q.dim)
                for j in range(q.dim)
                if q.gram[i][j] != 0
            }
            assert len(ratios) == 1

    def test_symplectic_detected(self):
        d = tensor(
            from_quaternion(Q_SPLIT, "canonical"),
            from_quaternion(Q_SPLIT, Q_SPLIT.i()),
        )
        with pytest.raises(AlgebraError):
            adjoint_gram(d, split_isomorphism(d))

    def test_canonical_pair_has_trivial_disc(self):
        # tensor of two canonical quaternion involutions, both split
        d = tensor(
            from_quaternion(Q_SPLIT, "canonical"),
            from_quaternion(QuaternionAlgebra(Fraction(1), Fraction(2)), "canonical"),
        )
        form = adjoint_form(d)
        assert form.dim == 4
        assert form.invariants().disc == 1


class TestE0E1:
    def test_e0(self):
        assert e0(tensor(canonical(-1, -1), canonical(2, 3))) == 0
        a3, _ = adjoint_algebra(QuadraticForm.from_diagonal([1, 2, 3]))
        assert e0(a3) == 1

    def test_e0_rejects_symplectic(self):
        with pytest.raises(AlgebraError):
            e0(canonical(2, 3))

    def test_e1_canonical_tensor_trivial(self):
        assert e1(tensor(canonical(-1, -1), canonical(2, 3))) == 1

    def test_e1_adjoint_route(self):
        a, _ = adjoint_algebra(QuadraticForm.from_diagonal([1, 1, 1, -7]))
        assert e1(a) == -7

    def test_e1_quaternion_route(self):
        q = QuaternionAlgebra(Fraction(2), Fraction(3))
        a = from_quaternion(q, q.i())
        # disc of Int(s) o gamma is the square class of s^2 = -nrd(s)
        assert e1(a) == square_class(quat.nrd(q.i()) * -1)

    def test_e1_twist_route_matches_adjoint(self):
        # Int(u) o (gamma x gamma) on a split product: nrd(u) route vs the
        # discriminant of the adjoint form under the split isomorphism
        d = tensor(
            from_quaternion(Q_SPLIT, "canonical"),
            from_quaternion(QuaternionAlgebra(Fraction(1), Fraction(2)), "canonical"),
        )
        # pure x pure tensors are symmetric under gamma x gamma
        candidates = [
            d.algebra.basis_vector(4 * i + j)
            for i, j in [(1, 1), (2, 2), (3, 3), (1, 2)]
        ]
        checked = 0
        for u in candidates:
            assert d.sigma.apply(u) == u
            if not d.algebra.is_invertible(u):
                continue
            t = twist_involution(d, u)
            structural = e1(t)
            g = adjoint_gram(t, split_isomorphism(t))
            assert structural == square_class(Fraction(g.invariants().disc))
            checked += 1
        assert checked >= 2


class TestE2:
    def test_four_canonical_factors_trivial(self):
        a = tensor(
            tensor(canonical(-1, -1), canonical(2, 3)),
            tensor(canonical(-1, 5), canonical(3, 7)),
        )
        assert e1(a) == 1
        assert e2(a).is_trivial

    def test_split_pfister_adjoint_trivial(self):
        a, _ = adjoint_algebra(qform.pfister([2, 3, 5]))
        assert e2(a).is_trivial

    def test_dim8_nontrivial_clifford(self):
        # disc-1 8-dim form with clifford class (-1,-1): the pair contains it
        base = QuadraticForm.from_diagonal([1, 1, 1, 1, 1, 1, 2, 2])
        inv = base.invariants()
        assert inv.disc == 1
        a, _ = adjoint_algebra(base)
        pair = e2(a)
        assert inv.clifford in pair.classes
        assert pair.is_trivial == inv.clifford.is_trivial

    def test_degree4_canonical_components_are_the_factors(self):
        a = tensor(canonical(-1, -1), canonical(2, 3))
        pair = e2(a)
        assert brauer_class_of_symbol(-1, -1) in pair.classes
        assert brauer_class_of_symbol(2, 3) in pair.classes

    @pytest.mark.parametrize(
        "first, second", [((-1, -1), (-1, -1)), ((-1, -1), (2, 3)), ((1, 5), (-1, -1))]
    )
    def test_degree4_symbol_classes_computed_once(self, monkeypatch, first, second):
        # the all-split test, the algebra class and the components share one
        # class per factor
        a = tensor(canonical(*first), canonical(*second))
        calls = []

        def spy(x, y):
            calls.append((x, y))
            return brauer_class_of_symbol(x, y)

        monkeypatch.setattr(csa, "brauer_class_of_symbol", spy)
        monkeypatch.setattr(quat, "brauer_class_of_symbol", spy)
        pair = e2(a)
        assert sorted(calls) == sorted([first, second])
        assert pair.algebra_class == brauer_class_of_symbol(*first) + brauer_class_of_symbol(*second)


class TestSplitAgreement:
    def test_structural_vs_adjoint_on_split_products(self):
        # the two computation routes agree on split tensor products
        rng = random.Random(13)
        split_pool = [(1, 1), (1, 5), (4, -3), (2, -1), (-1, 2), (1, -6)]
        done = 0
        while done < 5:
            s1 = rng.choice(split_pool)
            s2 = rng.choice(split_pool)
            d = tensor(
                from_quaternion(QuaternionAlgebra(*map(Fraction, s1)), "canonical"),
                from_quaternion(QuaternionAlgebra(*map(Fraction, s2)), "canonical"),
            )
            form = adjoint_form(d)
            assert e0(d) == form.dim % 2
            assert e1(d) == form.invariants().disc
            assert e2(d).is_trivial == form.invariants().clifford.is_trivial
            done += 1


class TestClifford:
    def test_rank1(self):
        alg = csa.clifford_algebra(QuadraticForm.from_diagonal([3]))
        e = alg.generator(0)
        assert alg.mul(e, e) == alg.scalar(Fraction(3))

    def test_rank2_is_quaternion_symbol(self):
        q = QuadraticForm.from_diagonal([2, 3])
        alg = csa.clifford_algebra(q)
        a, b = alg.generator(0), alg.generator(1)
        anti = linalg.vec_add(alg.mul(a, b), alg.mul(b, a))
        assert linalg.is_zero_vector(anti)
        assert clifford_brauer_class(q) == brauer_class_of_symbol(2, 3)

    def test_even_part_of_sum_of_three_squares(self):
        q = QuadraticForm.from_diagonal([1, 1, 1])
        assert clifford_brauer_class(q) == brauer_class_of_symbol(-1, -1)

    def test_dimension_guard(self):
        with pytest.raises(AlgebraError):
            csa.clifford_algebra(QuadraticForm.from_diagonal([1] * 7))

    def test_matches_invariant_convention(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(2, 4)
            entries = [rng.choice([1, 2, 3, 5, -1, -2, -7, 6]) for _ in range(n)]
            q = QuadraticForm.from_diagonal(entries)
            assert clifford_brauer_class(q) == q.invariants().clifford


class TestPfisterInvolution:
    def test_degree2_always(self):
        q = QuaternionAlgebra(Fraction(2), Fraction(3))
        assert is_pfister_involution(from_quaternion(q, q.i()))

    def test_canonical_pair(self):
        assert is_pfister_involution(tensor(canonical(-1, -1), canonical(2, 3)))

    def test_split_deg4_with_nontrivial_disc(self):
        a, _ = adjoint_algebra(QuadraticForm.from_diagonal([1, 1, 1, -7]))
        assert not is_pfister_involution(a)

    def test_deg8_canonical_triple(self):
        a = tensor(
            tensor(canonical(-1, -1), canonical(2, 3)),
            from_quaternion(Q_SPLIT, Q_SPLIT.i()),
        )
        # symplectic x orthogonal is symplectic; build a fully orthogonal one:
        if a.sigma.type_tag == "orthogonal":
            assert is_pfister_involution(a) in (True, False)
        a8, _ = adjoint_algebra(qform.pfister([2, 3, 5]))
        assert is_pfister_involution(a8)


def _random_element(rng, dim):
    return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))


def _regular_matrix(alg, x):
    """Matrix of left multiplication by x (the reference for ``inverse``)."""
    cols = [alg.mul(x, alg.basis_vector(j)) for j in range(alg.dim)]
    return linalg.transpose(linalg.matrix(cols))


def _regular_trd(alg, x):
    m = _regular_matrix(alg, x)
    return linalg.div(sum(m[i][i] for i in range(alg.dim)), alg.degree())


def _q_u_gram_reference(d, u):
    """The per-entry formula (Trd(e_s r_t) + Trd(e_t r_s))/2, r_t = u gamma(e_t)."""
    alg, g = d.algebra, d.sigma
    n = alg.dim
    trace_row = [_regular_trd(alg, alg.basis_vector(t)) for t in range(n)]
    right = [alg.mul(u, g.apply(alg.basis_vector(t))) for t in range(n)]
    gram = [[Fraction(0)] * n for _ in range(n)]
    for s in range(n):
        for t in range(s, n):
            a = alg.mul(alg.basis_vector(s), right[t])
            b = alg.mul(alg.basis_vector(t), right[s])
            val = linalg.div(linalg.vec_dot(trace_row, a) + linalg.vec_dot(trace_row, b), 2)
            gram[s][t] = gram[t][s] = val
    return linalg.matrix(gram)


class TestReducedTraceNorm:
    ALGEBRAS = {
        "split D": lambda: tensor(canonical(1, 5), canonical(2, -2)).algebra,
        "non-split D": lambda: tensor(canonical(-1, -1), canonical(2, 3)).algebra,
        "quaternion": lambda: csa.quaternion_structure(Q_HAMILTON),
        "M_3": lambda: csa.matrix_structure(3),
    }

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_newton_matches_the_regular_char_poly(self, name):
        alg = self.ALGEBRAS[name]()
        deg = alg.degree()
        rng = random.Random(name)
        elements = [alg.unit, linalg.zero_vector(alg.dim)]
        elements += [_random_element(rng, alg.dim) for _ in range(2)]
        for x in elements:
            reference = linalg.poly_nth_root(
                linalg.charpoly(_regular_matrix(alg, x)), deg
            )
            p = alg.reduced_char_poly(x)
            assert p == reference
            assert alg.nrd(x) == (reference[-1] if deg % 2 == 0 else -reference[-1])
            assert alg.trd(x) == _regular_trd(alg, x) == -reference[1]

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_inverse_matches_the_regular_solve(self, name):
        alg = self.ALGEBRAS[name]()
        rng = random.Random(f"{name} inverse")
        elements = [alg.unit, linalg.zero_vector(alg.dim), alg.basis_vector(1)]
        elements += [_random_element(rng, alg.dim) for _ in range(3)]
        for x in elements:
            m = _regular_matrix(alg, x)
            assert alg.is_invertible(x) == (linalg.det(m) != 0)
            if alg.is_invertible(x):
                assert alg.inverse(x) == linalg.solve(m, alg.unit)
                assert alg.mul(x, alg.inverse(x)) == alg.unit
            else:
                assert linalg.solve(m, alg.unit) is None
                with pytest.raises(ZeroDivisionError):
                    alg.inverse(x)

    def test_zero_divisor_of_split_D(self):
        alg = self.ALGEBRAS["split D"]()
        i = alg.basis_vector(4)  # i (x) 1 with i^2 = 1 in (1, 5)
        x = linalg.vec_add(alg.unit, i)
        assert alg.mul(x, linalg.vec_sub(alg.unit, i)) == linalg.zero_vector(alg.dim)
        assert linalg.det(_regular_matrix(alg, x)) == 0
        assert not alg.is_invertible(x)
        with pytest.raises(ZeroDivisionError):
            alg.inverse(x)

    def test_odd_degree_norm_is_the_determinant(self):
        alg = csa.matrix_structure(3)
        rng = random.Random(3)
        unit_e00 = alg.basis_vector(0)
        nilpotent = alg.basis_vector(1)
        for x in [unit_e00, nilpotent] + [_random_element(rng, 9) for _ in range(3)]:
            m = linalg.matrix([x[3 * r : 3 * r + 3] for r in range(3)])
            assert alg.nrd(x) == linalg.det(m)
            assert alg.trd(x) == m[0][0] + m[1][1] + m[2][2]

    def test_quaternion_matches_quat(self):
        alg = csa.quaternion_structure(Q_SPLIT)
        rng = random.Random(5)
        for _ in range(4):
            x = _random_element(rng, 4)
            elem = Q_SPLIT.element(x)
            assert alg.trd(x) == quat.trd(elem)
            assert alg.nrd(x) == quat.nrd(elem)

    def test_commutative_algebra_is_rejected(self):
        # four orthogonal idempotents: L_x has four distinct eigenvalues,
        # which no monic quadratic annihilates
        index = [i if i == j else -1 for i in range(4) for j in range(4)]
        const = [1 if i == j else 0 for i in range(4) for j in range(4)]
        alg = csa.StructureAlgebra(["e0", "e1", "e2", "e3"], index, const, [1, 1, 1, 1])
        x = linalg.vector([1, 2, 3, 4])
        with pytest.raises(ValueError):
            alg.reduced_char_poly(x)
        with pytest.raises(ValueError):
            alg.nrd(x)
        with pytest.raises(ValueError):
            linalg.poly_nth_root(linalg.charpoly(_regular_matrix(alg, x)), 2)

    def test_trace_form_rows(self):
        alg = tensor(canonical(-1, -1), canonical(2, 3)).algebra
        tf = alg.trace_form()
        for s in range(alg.dim):
            for k in range(alg.dim):
                product = alg.mul(alg.basis_vector(s), alg.basis_vector(k))
                assert tf[s][k] == _regular_trd(alg, product)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_q_u_form_matches_the_per_entry_formula(self, seed):
        from pfisterinv.shapiro4 import build_D, make_u, q_u_form, sample_scenario

        s = sample_scenario(seed)
        d = build_D(s.q1, s.q2)
        u, _ = make_u(s)
        assert q_u_form(d, u.coords).gram == _q_u_gram_reference(d, u.coords)

    def test_pairing_matches_bilinear(self):
        rng = random.Random(11)
        n = 5
        while True:
            g = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
            if linalg.det(linalg.matrix(g)) != 0:
                break
        q = QuadraticForm(g)
        us = [_random_element(rng, n) for _ in range(3)]
        vs = [_random_element(rng, n) for _ in range(4)]
        table = q.pairing(us, vs)
        assert len(table) == 3 and all(len(row) == 4 for row in table)
        for a, u in enumerate(us):
            for b, v in enumerate(vs):
                assert table[a][b] == q.bilinear(u, v)
        assert q.restrict(vs).gram == q.pairing(vs, vs)
