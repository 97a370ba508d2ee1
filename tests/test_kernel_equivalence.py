"""The faster kernels against the straightforward versions they replaced.

Each reference below is the earlier implementation, kept here (not in the
package) as the specification the current code must reproduce exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pfisterinv import cli, csa, linalg, qform, quat, shapiro4
from pfisterinv.arith import BrauerClass, brauer_class_of_symbol
from pfisterinv.quat import QuaternionAlgebra


def form_reduce_reference(gram, basis):
    """Greedy form reduction recomputing b(b_i, b_j) from the Gram per pair."""
    g_int, _ = linalg.integer_rows(gram)
    work = [[x.numerator for x in v] for v in basis]
    m = len(work)

    def bil(u, v):
        total = 0
        for a, row in zip(u, g_int):
            if a:
                total += a * sum(r * b for r, b in zip(row, v))
        return total

    vals = [bil(v, v) for v in work]
    improved = True
    while improved:
        improved = False
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                bij = bil(work[i], work[j])
                if vals[i] != 0:
                    t0 = round(Fraction(bij, vals[i]))
                elif bij != 0:
                    t0 = round(Fraction(vals[j], 2 * bij))
                else:
                    continue
                best = None
                for t in (t0 - 1, t0, t0 + 1):
                    if t == 0:
                        continue
                    cand = [x - t * y for x, y in zip(work[j], work[i])]
                    vv = vals[j] - 2 * t * bij + t * t * vals[i]
                    if abs(vv) < abs(vals[j]) and (best is None or abs(vv) < abs(best[1])):
                        best = (cand, vv)
                if best is not None:
                    work[j], vals[j] = best
                    improved = True
    order = sorted(range(m), key=lambda t: (abs(vals[t]), work[t]))
    return [tuple(work[t]) for t in order]


def diagonal_hasse_reference(diag):
    """The Hasse class as the sum of (d_i, d_j) over all pairs i < j."""
    hasse = BrauerClass.trivial()
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            hasse = hasse + brauer_class_of_symbol(diag[i], diag[j])
    return hasse


@st.composite
def symmetric_grams(draw, max_dim=16):
    n = draw(st.integers(min_value=2, max_value=max_dim))
    cells = draw(
        st.lists(st.integers(-6, 6), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
    )
    it = iter(cells)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = next(it)
    # some diagonal entries forced to zero: the isotropic-pivot branch
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        g[i][i] = 0
    return linalg.matrix(g)


class TestFormReduce:
    @settings(max_examples=60, deadline=None)
    @given(symmetric_grams())
    def test_matches_reference_on_the_standard_basis(self, gram):
        basis = linalg.identity(len(gram))
        assert qform._form_reduce(gram, basis) == form_reduce_reference(gram, basis)

    @settings(max_examples=40, deadline=None)
    @given(symmetric_grams(), st.data())
    def test_matches_reference_on_integer_vectors(self, gram, data):
        n = len(gram)
        m = data.draw(st.integers(1, n))
        basis = data.draw(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(linalg.vector),
                min_size=m,
                max_size=m,
            )
        )
        assert qform._form_reduce(gram, basis) == form_reduce_reference(gram, basis)

    def test_rational_gram(self):
        gram = linalg.matrix([[Fraction(1, 2), 3, 0], [3, Fraction(-5, 3), 1], [0, 1, 0]])
        basis = linalg.identity(3)
        assert qform._form_reduce(gram, basis) == form_reduce_reference(gram, basis)


def congruence_diagonalize_reference(gram):
    """Diagonalization re-reading values and cross terms through the ambient Gram."""
    n = len(gram)

    def bil(u, v):
        return linalg.vec_dot(u, linalg.mat_vec(gram, v))

    remaining = list(linalg.identity(n))
    cols, diag = [], []
    while remaining:
        basis = form_reduce_reference(gram, remaining)
        values = [bil(v, v) for v in basis]
        choices = [(abs(val), t) for t, val in enumerate(values) if val != 0]
        best = min(choices) if choices else None
        hyp = None
        for a, va in enumerate(values):
            if va != 0:
                continue
            for b, wv in enumerate(basis):
                bz = bil(basis[a], wv)
                if bz == 0:
                    continue
                t = round(Fraction(-(values[b] + 2 * bz), 2 * bz))
                cand_val = values[b] + 2 * (t + 1) * bz
                if cand_val == 0:
                    cand_val = values[b] + 2 * (t + 2) * bz
                    t += 1
                cand = linalg.vec_add(wv, linalg.vec_scale(t + 1, basis[a]))
                if hyp is None or abs(cand_val) < abs(hyp[0]):
                    hyp = (cand_val, cand)
        if hyp is not None and (best is None or abs(hyp[0]) < best[0]):
            v = hyp[1]
        elif best is not None:
            v = basis[best[1]]
        else:
            for v in basis:
                diag.append(0)
                cols.append(v)
            break
        gv = linalg.mat_vec(gram, v)
        diag.append(linalg.vec_dot(v, gv))
        cols.append(v)
        remaining = linalg.saturated_constrained_lattice([gv], lattice=basis)
    return tuple(diag), linalg.transpose(linalg.matrix(cols))


def cheap_zeros_reference(q):
    """Zero Gram diagonal entries, then the reduced vectors that q evaluates to 0."""
    units = list(linalg.identity(q.dim))
    zeros = [e for i, e in enumerate(units) if q.gram[i][i] == 0]
    return zeros + [v for v in form_reduce_reference(q.gram, units) if q.evaluate(v) == 0]


def witt_decompose_reference(q):
    """Witt decomposition in rational arithmetic, restricting q at every step."""
    n = q.dim
    current = list(linalg.identity(n))
    pairs = []
    while current:
        res = qform.is_isotropic(q.restrict(current))
        if not res.isotropic:
            break
        u = linalg.zero_vector(n)
        for c, vec in zip(res.witness, current):
            if c:
                u = linalg.vec_add(u, linalg.vec_scale(c, vec))
        partner = next(v for v in current if q.bilinear(u, v) != 0)
        v = linalg.vec_scale(Fraction(1) / q.bilinear(u, partner), partner)
        v = linalg.vec_sub(v, linalg.vec_scale(Fraction(q.evaluate(v), 2), u))
        if q.evaluate(u) != 0 or q.evaluate(v) != 0 or q.bilinear(u, v) != 1:
            raise qform.CertificateError("split-off plane is not hyperbolic")
        pairs.append((u, v))
        constraints = [linalg.mat_vec(q.gram, u), linalg.mat_vec(q.gram, v)]
        current = linalg.saturated_constrained_lattice(constraints, lattice=current)
    return qform.WittDecomposition(len(pairs), tuple(pairs), tuple(current))


def nondegenerate(gram):
    assume(linalg.det(gram) != 0)
    return gram


# a multiplier with a denominator, so the Gram's denominator D exceeds 1
scalings = st.tuples(st.integers(-7, 7).filter(bool), st.integers(2, 9)).map(
    lambda nd: Fraction(*nd)
)


def scaled(gram, c):
    return linalg.matrix([[c * x for x in row] for row in gram])


class TestIntegerGramReuse:
    """Diagonalization, cheap zeros and Witt planes on the reduced integer
    Gram give what the rational recomputation gives, printed alike; the
    reference may hold an integral Fraction where the scalar rule has an int."""

    @staticmethod
    def assert_same(got, expected):
        diag, basis = got
        assert got == expected
        assert [str(x) for x in diag] == [str(x) for x in expected[0]]
        assert all(type(x) is int or x.denominator != 1 for x in diag + sum(basis, ()))

    @settings(max_examples=60, deadline=None)
    @given(symmetric_grams())
    def test_diagonalize(self, gram):
        gram = nondegenerate(gram)
        self.assert_same(
            qform._congruence_diagonalize(gram), congruence_diagonalize_reference(gram)
        )

    @settings(max_examples=30, deadline=None)
    @given(symmetric_grams(), scalings)
    def test_diagonalize_rational_multiples(self, gram, c):
        gram = scaled(nondegenerate(gram), c)
        self.assert_same(
            qform._congruence_diagonalize(gram), congruence_diagonalize_reference(gram)
        )

    @settings(max_examples=60, deadline=None)
    @given(symmetric_grams(), st.one_of(st.just(Fraction(1)), scalings))
    def test_cheap_zeros(self, gram, c):
        q = qform.QuadraticForm(scaled(nondegenerate(gram), c))
        assert list(qform._cheap_zeros(q)) == cheap_zeros_reference(q)

    @settings(max_examples=40, deadline=None)
    @given(symmetric_grams(max_dim=6), st.one_of(st.just(Fraction(1)), scalings))
    def test_witt_decompose(self, gram, c):
        q = qform.QuadraticForm(scaled(nondegenerate(gram), c))
        got = qform.witt_decompose(q)
        assert got == witt_decompose_reference(q)
        assert got.to_json() == witt_decompose_reference(q).to_json()

    @pytest.mark.parametrize(
        "diag", [[7, -1, 7, 11], [Fraction(7, 3), Fraction(-1, 2), 7, Fraction(11, 5)]]
    )
    def test_witt_decompose_binary_splitting_diagonal(self, diag):
        # qf witt --diag=7,-1,7,11: no cheap zero, a witness by binary splitting
        q = qform.QuadraticForm.from_diagonal(diag)
        got = qform.witt_decompose(q)
        assert got.witt_index == 1
        assert got.to_json() == witt_decompose_reference(q).to_json()
        assert qform._congruence_diagonalize(q.gram) == congruence_diagonalize_reference(q.gram)


def extend_to_lagrangian_reference(q, basis):
    """Lagrangian growth re-imposing every constraint on Z^n at each step."""
    n = q.dim
    span = [linalg.clear_denominators(v) for v in linalg.row_space_basis(basis)]
    while len(span) < n // 2:
        constraints = [linalg.mat_vec(q.gram, v) for v in span]
        perp = linalg.saturated_constrained_lattice(
            constraints, lattice=list(linalg.identity(n))
        )
        target = n - 2 * len(span)
        quot = []
        for v in perp:
            if len(quot) == target:
                break
            stacked = list(span) + quot + [v]
            if len(linalg.row_space_basis(stacked)) == len(stacked):
                quot.append(v)
        res = qform.is_isotropic(q.restrict(quot))
        lifted = linalg.zero_vector(n)
        for c, vec in zip(res.witness, quot):
            if c:
                lifted = linalg.vec_add(lifted, linalg.vec_scale(c, vec))
        span.append(linalg.clear_denominators(lifted))
    return span


def constraint_lists(n):
    return st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), max_size=3)


class TestCarriedLattice:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.just(n), constraint_lists(n), constraint_lists(n), constraint_lists(n)
    )))
    def test_constraints_may_be_imposed_in_two_calls(self, case):
        n, c0, c1, c2 = case
        # a saturated lattice: Z^n, or the annihilator of c0 inside it
        lattice = linalg.saturated_constrained_lattice(c0, lattice=list(linalg.identity(n)))
        once = linalg.saturated_constrained_lattice(c1 + c2, lattice=lattice)
        first = linalg.saturated_constrained_lattice(c1, lattice=lattice)
        assert once == linalg.saturated_constrained_lattice(c2, lattice=first)

    @pytest.mark.parametrize("seed", [7, 36, 83])
    def test_extend_to_lagrangian_matches_reference_on_q_u(self, seed):
        s = shapiro4.sample_scenario(seed)
        d = shapiro4.build_D(s.q1, s.q2)
        u, y = shapiro4.make_u(s)
        qu = shapiro4.q_u_form(d, u.coords)
        subspace, failures = shapiro4.check_claim_3_and_assemble(s, d, u, y, qu)
        assert failures == []
        assert shapiro4.extend_to_lagrangian(qu, subspace) == (
            extend_to_lagrangian_reference(qu, subspace)
        )

    def test_extend_to_lagrangian_matches_reference_from_a_line(self):
        q = qform.QuadraticForm.from_diagonal([1, -1, 2, -2, 3, -3, 5, -5])
        line = [linalg.vector([1, 1, 0, 0, 0, 0, 0, 0])]
        assert shapiro4.extend_to_lagrangian(q, line) == (
            extend_to_lagrangian_reference(q, line)
        )


def independent_extension_reference(rows, candidates, count):
    """Keep a candidate when the RREF of rows, the kept ones and it has full rank."""
    kept = []
    for v in candidates:
        if len(kept) == count:
            break
        stacked = list(rows) + kept + [v]
        if len(linalg.row_space_basis(stacked)) == len(stacked):
            kept.append(v)
    return kept


def build_V_q_reference(d, u, w_basis):
    """V_q through the 15-vector kernel of Trd(u gamma(z)) and a 16 x 18 nullspace."""
    alg, g = d.algebra, d.sigma
    functional = [
        alg.trd(alg.mul(u.coords, g.apply(alg.basis_vector(t)))) for t in range(alg.dim)
    ]
    t_basis = linalg.nullspace(linalg.matrix([functional]))
    assert len(t_basis) == 15
    gw = [g.apply(w) for w in w_basis]
    # the 16 x 18 relations between gamma(W_q) and T, as intersect_row_spaces had them
    relations = linalg.nullspace(linalg.transpose(linalg.matrix(gw + t_basis)))
    vecs = []
    for rel in relations:
        v = linalg.zero_vector(16)
        for coeff, row in zip(rel[:3], gw):
            if coeff != 0:
                v = linalg.vec_add(v, linalg.vec_scale(coeff, row))
        if not linalg.is_zero_vector(v):
            vecs.append(v)
    meet = linalg.row_space_basis(vecs)
    assert meet == linalg.intersect_row_spaces(gw, t_basis)
    return [linalg.vector(z) for z in meet[:2]]


def small_rationals():
    return st.one_of(
        st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
    )


class TestSizedElimination:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(small_rationals(), min_size=n, max_size=n), max_size=4),
        st.lists(st.lists(small_rationals(), min_size=n, max_size=n), max_size=8),
        st.integers(0, n),
    )))
    def test_independent_extension(self, case):
        rows, candidates, count = case
        rows, candidates = linalg.matrix(rows), linalg.matrix(candidates)
        got = linalg.independent_extension(rows, candidates, count)
        assert got == independent_extension_reference(rows, candidates, count)
        assert all(any(v is c for c in candidates) for v in got)

    def test_build_V_q_on_the_pool_scenarios(self):
        pures = ([0, 1, 0, 0], [0, 0, 1, 0])
        used = []
        for seed in (36, 39, 66, 67, 83):
            s = shapiro4.sample_scenario(seed)
            d = shapiro4.build_D(s.q1, s.q2)
            u, y = shapiro4.make_u(s)
            qu = shapiro4.q_u_form(d, u.coords)
            c_adj = d.algebra.adjugate(s.c)
            gy_adj = d.algebra.adjugate(d.sigma.apply(y))
            span = list(shapiro4.Q1_BASIS)
            for pure in pures:
                w_basis = shapiro4.w_subspace(s, d, u, y, pure, c_adj, gy_adj)
                v_basis = shapiro4.build_V_q(d, u, w_basis, qu)
                assert v_basis == build_V_q_reference(d, u, w_basis)
                used.append(pure)
                span = linalg.row_space_basis(span + v_basis)
                if len(span) >= 5:
                    break
        # at least one scenario needs the second pure quaternion j
        assert pures[1] in used

    @settings(max_examples=80, deadline=None)
    @given(st.lists(small_rationals(), min_size=1, max_size=8))
    def test_from_diagonal(self, entries):
        n = len(entries)
        gram = linalg.matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])
        if linalg.det(gram) == 0:  # the Bareiss test that the entries replace
            with pytest.raises(qform.DegenerateFormError):
                qform.QuadraticForm.from_diagonal(entries)
            return
        q = qform.QuadraticForm.from_diagonal(entries)
        assert q.gram == gram
        assert [list(map(type, row)) for row in q.gram] == [list(map(type, row)) for row in gram]

    def test_qf_invariants_rejects_a_zero_entry(self, capsys):
        assert cli.main(["qf", "invariants", "--diag", "0,1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad diagonal '0,1': degenerate form rejected\n"


class TestGroupedHasse:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 5, -6, 7, -10, 15]), min_size=1, max_size=14))
    def test_matches_the_pairwise_sum(self, diag):
        assert qform.diagonal_invariants(diag).hasse == diagonal_hasse_reference(diag)

    def test_split_model_needs_no_symbol(self):
        inv = qform.diagonal_invariants((1, -1) * 8)
        assert inv.hasse.is_trivial and inv.clifford.is_trivial
        assert (inv.dim, inv.disc, inv.signature) == (16, 1, 0)


class TestScalarTraceForm:
    @pytest.mark.parametrize(
        "symbols",
        [
            ((1, 1), (1, 1)),  # split
            ((-1, -1), (-1, -1)),  # Hamilton (x) Hamilton
            ((-3, 2), (5, 11)),  # seed 7's symbols
            ((2, 3), (-1, -7)),
        ],
    )
    @pytest.mark.parametrize("mu", [1, -3, 10])
    def test_equals_the_trace_form_of_mu(self, symbols, mu):
        (a1, b1), (a2, b2) = symbols
        d = shapiro4.build_D(QuaternionAlgebra(a1, b1), QuaternionAlgebra(a2, b2))
        expected = shapiro4.q_u_form(d, d.algebra.scalar(mu)).gram
        assert shapiro4.scalar_trace_form(d, mu).gram == expected

    @pytest.mark.parametrize("seed", [7, 8, 36, 58])
    def test_make_u_congruence(self, seed):
        # right multiplication by gamma(c) carries q_{u0} onto q_small
        s = shapiro4.sample_scenario(seed)
        d = shapiro4.build_D(s.q1, s.q2)
        alg, g = d.algebra, d.sigma
        cgc = alg.mul(s.c, g.apply(s.c))
        u0 = alg.adjugate(cgc)  # Nrd(c gamma(c)) (c gamma(c))^{-1}
        mu = alg.mul(u0, cgc)[0]
        rows = [alg.mul(alg.basis_vector(t), g.apply(s.c)) for t in range(16)]
        congruent = shapiro4.q_u_form(d, u0).pairing(rows, rows)
        assert congruent == shapiro4.scalar_trace_form(d, mu).gram


def nullspace_reference(a):
    """Kernel basis read off the RREF: per free column fc, 1 at fc and minus
    column fc of the reduced rows at the pivots."""
    if not a:
        return []
    ncols = len(a[0])
    reduced, pivots = linalg.rref(a)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return basis


def solve_reference(a, b):
    """The solution read off the RREF of [a | b], free variables 0."""
    if not a:
        return None
    ncols = len(a[0])
    reduced, pivots = linalg.rref([list(row) + [bb] for row, bb in zip(a, b)])
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None  # pivot in the constant column
        x[pc] = reduced[r][ncols]
    return tuple(x)


def rank_reference(a):
    return len(linalg.rref(a)[1])


def adjoint_gram_reference(a, iso):
    """G . iso(sigma(x)) = iso(x)^T . G imposed on every basis element."""
    n = iso.degree
    alg = a.algebra
    rows = []
    for t in range(alg.dim):
        x = alg.basis_vector(t)
        m = iso.apply(x)
        s = iso.apply(a.sigma.apply(x))
        for r in range(n):
            for c in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[r * n + k] += s[k][c]
                    row[k * n + c] -= m[k][r]
                rows.append(row)
    kernel = nullspace_reference(linalg.matrix(rows))
    if len(kernel) != 1:
        raise csa.AlgebraError("solution space is not 1-dimensional")
    flat = kernel[0]
    if any(flat[r * n + c] != flat[c * n + r] for r in range(n) for c in range(n)):
        raise csa.AlgebraError("adjoint Gram is not symmetric")
    flat_int = linalg.clear_denominators(flat)
    return tuple(tuple(flat_int[r * n + c] for c in range(n)) for r in range(n))


SPLIT_SYMBOLS = [
    (a, b)
    for a in shapiro4.SYMBOL_POOL
    for b in shapiro4.SYMBOL_POOL
    if quat.is_split(QuaternionAlgebra(a, b))
]


@st.composite
def split_products(draw):
    """A split degree-4 canonical product, twisted by a drawn symmetric unit or not."""
    (a1, b1), (a2, b2) = draw(st.lists(st.sampled_from(SPLIT_SYMBOLS), min_size=2, max_size=2))
    d = csa.tensor(
        csa.from_quaternion(QuaternionAlgebra(a1, b1), "canonical"),
        csa.from_quaternion(QuaternionAlgebra(a2, b2), "canonical"),
    )
    for _ in range(draw(st.integers(0, 2))):
        basis = [d.algebra.basis_vector(t) for t in range(1, 16)]
        units = [u for u in basis if d.sigma.apply(u) == u and d.algebra.is_invertible(u)]
        d = csa.twist_involution(d, draw(st.sampled_from(units)))
    return d


@st.composite
def nondegenerate_grams(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    cells = draw(
        st.lists(st.integers(-5, 5), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
    )
    it = iter(cells)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = next(it)
    assume(linalg.det(g) != 0)
    return g


class TestAdjointGram:
    """Equations on generators give the Gram of the equations on every basis element."""

    @settings(max_examples=30, deadline=None)
    @given(split_products())
    def test_split_products_plain_and_twisted(self, d):
        iso = csa.split_isomorphism(d)
        assert csa.adjoint_gram(d, iso).gram == adjoint_gram_reference(d, iso)

    @settings(max_examples=20, deadline=None)
    @given(nondegenerate_grams())
    def test_adjoint_algebras_of_dimension_1_to_4(self, gram):
        self.check_adjoint_algebra(gram)

    @pytest.mark.parametrize(
        "gram",
        [
            [[5]],
            [[0, 1], [1, 0]],
            [[1, 2, 0], [2, -3, 1], [0, 1, 7]],
            [[2, 1, 0, 0], [1, -1, 0, 0], [0, 0, 3, 5], [0, 0, 5, -6]],
            [[1, 0, 0, 0, 2], [0, -2, 1, 0, 0], [0, 1, 3, 0, 0], [0, 0, 0, 5, 0], [2, 0, 0, 0, -7]],
        ],
        ids=lambda g: f"dim{len(g)}",
    )
    def test_adjoint_algebras_of_dimension_1_to_5(self, gram):
        self.check_adjoint_algebra(gram)

    @staticmethod
    def check_adjoint_algebra(gram):
        a, iso = csa.adjoint_algebra(qform.QuadraticForm(gram))
        expected = adjoint_gram_reference(a, iso)
        assert csa.adjoint_gram(a, iso).gram == expected
        assert csa.adjoint_form(a).gram == expected

    @pytest.mark.parametrize("symbols", [((1, 5), (1, 5)), ((4, -3), (2, -1))])
    def test_symplectic_product_still_raises(self, symbols):
        (a1, b1), (a2, b2) = symbols
        q2 = QuaternionAlgebra(a2, b2)
        d = csa.tensor(
            csa.from_quaternion(QuaternionAlgebra(a1, b1), "canonical"),
            csa.from_quaternion(q2, q2.i()),
        )
        assert d.sigma.type_tag == "symplectic"
        iso = csa.split_isomorphism(d)
        with pytest.raises(csa.AlgebraError):
            adjoint_gram_reference(d, iso)
        with pytest.raises(csa.AlgebraError, match="alternating"):
            csa.adjoint_gram(d, iso)


def typed(x):
    """x with every scalar paired with its type, so that == compares types too."""
    if isinstance(x, (list, tuple)):
        return [typed(y) for y in x]
    return x if x is None else (type(x), x)


@st.composite
def rational_systems(draw):
    """(a, b) with rational entries; a zero row, a dependent row and an
    inconsistent right-hand side each drawn or not."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(small_rationals(), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    if draw(st.booleans()):
        rows.append([0] * ncols)
    if draw(st.booleans()):
        c = draw(small_rationals())
        rows.append([c * x + y for x, y in zip(rows[0], rows[-1])])
    a = linalg.matrix(draw(st.permutations(rows)))
    if draw(st.booleans()):
        b = linalg.mat_vec(a, linalg.vector(draw(row)))
    else:
        rhs = st.lists(small_rationals(), min_size=len(a), max_size=len(a))
        b = linalg.vector(draw(rhs))
    return a, b


def splitting_images_reference(q):
    """The splitting map with each column of rep(g) solved in the ideal basis."""
    x = q.element(next(qform.isotropic_witnesses(quat.norm_form(q))))
    basis = linalg.row_space_basis(linalg.matrix((g * x).coords for g in q.basis()))
    basis_matrix = linalg.transpose(linalg.matrix(basis))

    def rep(g):
        cols = [solve_reference(basis_matrix, (g * q.element(v)).coords) for v in basis]
        return linalg.transpose(linalg.matrix(cols))

    i_m, j_m = rep(q.i()), rep(q.j())
    return (rep(q.one()), i_m, j_m, linalg.mat_mul(i_m, j_m))


class TestEchelonKernel:
    """Kernels, solutions and ranks from one fraction-free echelon equal the
    RREF ones in value and in type."""

    @settings(max_examples=150, deadline=None)
    @given(rational_systems())
    def test_nullspace_solve_rank(self, case):
        a, b = case
        assert typed(linalg.nullspace(a)) == typed(nullspace_reference(a))
        assert typed(linalg.solve(a, b)) == typed(solve_reference(a, b))
        assert linalg.rank(a) == rank_reference(a)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_rationals(), min_size=3, max_size=3))
    def test_one_row_of_three(self, functional):
        # the shape of build_V_q's kernel
        a = linalg.matrix([functional])
        assert typed(linalg.nullspace(a)) == typed(nullspace_reference(a))

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (((1, 2), (2, 4)), (1, 3), None),
            (((0, 0),), (1,), None),
            (((1, 1),), (2,), (2, 0)),
            (((0, 2, 4), (0, 1, 2)), (2, 1), (0, 1, 0)),
            (((3, 0), (0, 2)), (1, Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 4))),
        ],
    )
    def test_solve_examples(self, a, b, expected):
        a = linalg.matrix(a)
        assert typed(linalg.solve(a, linalg.vector(b))) == typed(expected)
        assert typed(solve_reference(a, linalg.vector(b))) == typed(expected)

    def test_splitting_images(self):
        for symbol in SPLIT_SYMBOLS:
            q = QuaternionAlgebra(*symbol)
            images = quat.splitting_isomorphism(q).images
            assert typed(images) == typed(splitting_images_reference(q)), symbol

    def test_splitting_certificate_reads_the_recombination(self, monkeypatch):
        # span(1, i) with its pivots is no left ideal: j * 1 = j leaves it
        basis = ([[1, 0, 0, 0], [0, 1, 0, 0]], [0, 1])
        monkeypatch.setattr(quat.linalg, "rref", lambda rows: basis)
        with pytest.raises(qform.CertificateError, match="left ideal is not invariant"):
            quat.splitting_isomorphism(QuaternionAlgebra(1, 5))
