"""The flat monomial tables of StructureAlgebra against a dict-of-dicts reference.

The reference keeps every product of basis elements as a sparse map
{k: c} (e_i e_j = sum c e_k), built from independent rules: quaternion
products through ``quat``, Kronecker products of maps, matrix units through
matrix multiplication, and Clifford words sorted by adjacent transpositions.
"""

import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfisterinv import csa, linalg, quat, shapiro4
from pfisterinv.arith import rat
from pfisterinv.csa import AlgebraError
from pfisterinv.quat import QuaternionAlgebra


class DictTable:
    """An algebra as ``table[i][j] = {k: c}``, with the regular trace."""

    def __init__(self, table):
        self.table = [[{k: rat(c) for k, c in cell.items() if c != 0} for cell in row] for row in table]
        self.dim = len(table)
        self.deg = math.isqrt(self.dim)  # a Clifford algebra of odd rank has none
        self.trace_row = [sum(row[j].get(j, 0) for j in range(self.dim)) for row in self.table]

    def mul(self, x, y):
        out = [0] * self.dim
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if xi != 0 and yj != 0:
                    for k, c in self.table[i][j].items():
                        out[k] += xi * yj * c
        return tuple(out)

    def trd(self, x):
        return linalg.div(linalg.vec_dot(x, self.trace_row), self.deg)

    def trace_form(self):
        t = self.trace_row
        return tuple(
            tuple(linalg.div(sum(c * t[k] for k, c in cell.items()), self.deg) for cell in row)
            for row in self.table
        )

    def basis_product(self, i, j):
        out = [0] * self.dim
        for k, c in self.table[i][j].items():
            out[k] = c
        return tuple(out)


def quaternion_table(q):
    basis = q.basis()
    return [[{k: c for k, c in enumerate((x * y).coords) if c != 0} for y in basis] for x in basis]


def kronecker_table(ta, tb):
    db = len(tb)
    return [
        [
            {ka * db + kb: ca * cb for ka, ca in ta[ia][ja].items() for kb, cb in tb[ib][jb].items()}
            for ja in range(len(ta))
            for jb in range(db)
        ]
        for ia in range(len(ta))
        for ib in range(db)
    ]


def matrix_table(n):
    units = [
        tuple(tuple(int((i, j) == (r, c)) for j in range(n)) for i in range(n))
        for r in range(n)
        for c in range(n)
    ]
    flat = lambda m: {i * n + j: v for i, row in enumerate(m) for j, v in enumerate(row) if v}
    return [[flat(linalg.mat_mul(x, y)) for y in units] for x in units]


def clifford_table(diag):
    n = len(diag)

    def product(s, t):
        word = [g for g in range(n) if s >> g & 1] + [g for g in range(n) if t >> g & 1]
        coeff = 1
        for end in range(len(word) - 1, 0, -1):  # bubble sort: distinct generators anticommute
            for p in range(end):
                if word[p] > word[p + 1]:
                    word[p], word[p + 1] = word[p + 1], word[p]
                    coeff = -coeff
        mask = 0
        for g in range(n):  # a repeated generator is adjacent once sorted: e_g e_g = diag[g]
            if word.count(g) == 2:
                coeff *= diag[g]
            elif word.count(g) == 1:
                mask |= 1 << g
        return {mask: coeff}

    return [[product(s, t) for t in range(1 << n)] for s in range(1 << n)]


def canonical(q):
    return csa.from_quaternion(q, "canonical")


POOL = [QuaternionAlgebra(a, b) for a in shapiro4.SYMBOL_POOL for b in shapiro4.SYMBOL_POOL]
SPLIT = [q for q in POOL if quat.is_split(q)]
NON_SPLIT = [q for q in POOL if not quat.is_split(q)]
nonzero_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=5).filter(bool)
symbols = st.builds(QuaternionAlgebra, nonzero_rationals, nonzero_rationals)


@st.composite
def algebras(draw):
    """(kind, StructureAlgebra, DictTable) for one of the algebras the library builds."""
    kind = draw(st.sampled_from(["quaternion", "split D", "non-split D", "three factors", "M_3", "Clifford"]))
    if kind == "quaternion":
        q = draw(symbols)
        return kind, csa.quaternion_structure(q), DictTable(quaternion_table(q))
    if kind in ("split D", "non-split D"):
        pool = SPLIT if kind == "split D" else NON_SPLIT
        q1, q2 = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        alg = csa.tensor(canonical(q1), canonical(q2)).algebra
        return kind, alg, DictTable(kronecker_table(quaternion_table(q1), quaternion_table(q2)))
    if kind == "three factors":
        qs = [draw(symbols) for _ in range(3)]
        alg = csa.tensor(csa.tensor(canonical(qs[0]), canonical(qs[1])), canonical(qs[2])).algebra
        table = kronecker_table(kronecker_table(*map(quaternion_table, qs[:2])), quaternion_table(qs[2]))
        return kind, alg, DictTable(table)
    if kind == "M_3":
        return kind, csa.matrix_structure(3), DictTable(matrix_table(3))
    diag = draw(st.lists(nonzero_rationals, min_size=2, max_size=5))
    return kind, csa.CliffordAlgebra(diag), DictTable(clifford_table([rat(d) for d in diag]))


def elements(dim, seed):
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else 0 for _ in range(dim))
        for _ in range(2)
    ]


def types(v):
    return [type(c) for c in v]


class TestAgainstDictTables:
    @settings(max_examples=40, deadline=None)
    @given(algebras())
    def test_basis_products(self, drawn):
        _, alg, ref = drawn
        for i in range(alg.dim):
            for j in range(alg.dim):
                got, want = alg._basis_product(i, j), ref.basis_product(i, j)
                assert got == want and types(got) == types(want)

    @settings(max_examples=40, deadline=None)
    @given(algebras(), st.integers(0, 2**32))
    def test_mul_and_trd(self, drawn, seed):
        _, alg, ref = drawn
        x, y = elements(alg.dim, seed)
        for u, v in ((x, y), (y, x), (x, alg.unit), (alg.basis_vector(alg.dim - 1), y)):
            got, want = alg.mul(u, v), ref.mul(u, v)
            assert got == want and types(got) == types(want)
        assert alg.trace_row == tuple(ref.trace_row) and types(alg.trace_row) == types(ref.trace_row)
        if ref.deg**2 != alg.dim:
            with pytest.raises(AlgebraError):
                alg.trd(x)
            return
        for u in (x, y, alg.unit):
            assert alg.trd(u) == ref.trd(u) and type(alg.trd(u)) is type(ref.trd(u))

    @settings(max_examples=30, deadline=None)
    @given(algebras())
    def test_trace_form(self, drawn):
        _, alg, ref = drawn
        if ref.deg**2 != alg.dim:
            with pytest.raises(AlgebraError):
                alg.trace_form()
            return
        got, want = alg.trace_form(), ref.trace_form()
        assert got == want
        assert [types(row) for row in got] == [types(row) for row in want]

    @pytest.mark.parametrize("kind", ["quaternion", "non-split D", "M_3", "Clifford"])
    def test_built_tables_pass_the_full_check(self, kind):
        alg = {
            "quaternion": lambda: csa.quaternion_structure(QuaternionAlgebra(-1, 3)),
            "non-split D": lambda: csa.tensor(canonical(NON_SPLIT[0]), canonical(SPLIT[0])).algebra,
            "M_3": lambda: csa.matrix_structure(3),
            "Clifford": lambda: csa.CliffordAlgebra([2, -3, Fraction(1, 2)]),
        }[kind]()
        again = csa.StructureAlgebra(alg.labels, alg.index, alg.const, alg.unit)
        again._validate()
        assert again.trace_row == alg.trace_row


def two_term_tables(cell):
    """The tables of (-1, -1) with e_i e_j = e_0 + e_3, given as ``cell``."""
    alg = csa.quaternion_structure(QuaternionAlgebra(-1, -1))
    index, const = list(alg.index), list(alg.const)
    index[1 * 4 + 2], const[1 * 4 + 2] = cell, (1, 1)
    return alg.labels, index, const, alg.unit


TWO_TERM_CELLS = [{0: 1, 3: 1}, (0, 3)]  # as a map of terms, and as two indices

UNDER_O = """
from test_monomial_tables import TWO_TERM_CELLS, two_term_tables, csa
for cell in TWO_TERM_CELLS:
    try:
        csa.StructureAlgebra(*two_term_tables(cell))
    except csa.AlgebraError:
        continue
    raise SystemExit("a cell with two terms was accepted")
print("rejected")
"""


class TestNonMonomialCells:
    @pytest.mark.parametrize("as_tuples", [True, False])  # the tables as tuples, as the builders give them, or as lists
    @pytest.mark.parametrize("cell", TWO_TERM_CELLS, ids=["map", "indices"])
    def test_a_cell_with_two_terms_is_rejected(self, cell, as_tuples):
        labels, index, const, unit = two_term_tables(cell)
        if as_tuples:
            index, const = tuple(index), tuple(const)
        with pytest.raises(AlgebraError, match="not monomial"):
            csa.StructureAlgebra(labels, index, const, unit)

    def test_rejected_under_python_O(self):
        here = Path(__file__).resolve().parent
        path = [str(here.parent / "src"), str(here)]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", f"import sys; sys.path[:0] = {path!r}\n" + UNDER_O],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "rejected"

    def test_index_out_of_range_and_wrong_length_are_rejected(self):
        alg = csa.quaternion_structure(QuaternionAlgebra(2, 3))
        with pytest.raises(AlgebraError):
            csa.StructureAlgebra(alg.labels, (4,) + alg.index[1:], alg.const, alg.unit)
        with pytest.raises(AlgebraError):
            csa.StructureAlgebra(alg.labels, alg.index[:-1], alg.const[:-1], alg.unit)
