"""Exact dense linear algebra over Q.

Matrices are tuples of row tuples, vectors are tuples. Nothing here mutates
its inputs; intermediate work happens on lists.

The scalar rule: a value is an ``int`` when it is integral and a
``fractions.Fraction`` otherwise, never a ``float``. ``scalar`` (the one
coercion, ``arith.rat``) normalizes one value, ``vector`` and ``matrix``
normalize their entries, and every division goes through ``div``, which is
exact (``int / int`` would be a float). Python ints and Fractions compare
and hash equal, so the rule changes no result, only the cost of getting it:
elimination (``det``, ``rref``) is fraction-free on integer rows, with one
division at the end.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .arith import Scalar, rat as scalar  # noqa: F401 -- one coercion, two names

Vector = tuple[Scalar, ...]
Matrix = tuple[Vector, ...]


def div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b, as an int when it is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def vector(entries: Iterable) -> Vector:
    return tuple(map(scalar, entries))


def matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vector(r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_vector(n: int) -> Vector:
    return (0,) * n


def integer_rows(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """(D * rows, D) for D the least common denominator of all entries."""
    denom = 1
    for r in rows:
        for x in r:
            d = x.denominator
            if d != 1:
                denom = denom * d // math.gcd(denom, d)
    return [[x.numerator * (denom // x.denominator) for x in r] for r in rows], denom


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vec_add(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c: Scalar, v: Sequence[Scalar]) -> Vector:
    return tuple(c * x for x in v)


def vec_dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    return sum(x * y for x, y in zip(u, v))


def is_zero_vector(v: Sequence[Scalar]) -> bool:
    return all(x == 0 for x in v)


def kron(a: Matrix, b: Matrix) -> Matrix:
    rows = []
    for ra in a:
        for rb in b:
            rows.append(tuple(x * y for x in ra for y in rb))
    return tuple(rows)


def det(a: Matrix) -> Scalar:
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 22, 1968).

    The common denominator is cleared first; every ``//`` below divides
    exactly, and the one real division is the last line.
    """
    n = len(a)
    m, denom = integer_rows(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        mk = m[k]
        p = mk[k]
        for i in range(k + 1, n):
            mi = m[i]
            f = mi[k]
            mi[k + 1:] = [(p * x - f * y) // prev for x, y in zip(mi[k + 1:], mk[k + 1:])]
        prev = p
    last = m[n - 1][n - 1] if n else 1
    return div(sign * last, denom ** n)


def rref(rows: Iterable[Sequence[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Fraction-free Gauss-Jordan: the rows are scaled to integers (which keeps
    the row space), and after every pivot all rows are integers whose pivot
    entries equal the current pivot minor, every ``//`` dividing exactly.
    The rows are divided by that minor once, at the end; the reduced echelon
    form of a row space is unique, so the result is the usual one.
    """
    m, _ = integer_rows(list(rows))
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        mr = m[r]
        p = mr[c]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], mr)]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [[div(x, prev) for x in row] for row in m[:r]], pivots


def rank(a: Matrix) -> int:
    """The number of rows of a fraction-free echelon of ``a``: its pivot count."""
    return len(_echelon(a, len(a[0]) if a else 0))


def row_space_basis(rows: Iterable[Sequence[Scalar]]) -> list[Vector]:
    reduced, _ = rref(rows)
    return [tuple(r) for r in reduced]


def _insert(echelon: dict[int, list[int]], v: Sequence[Scalar]) -> bool:
    """Reduce v against an echelon of primitive integer rows keyed by leading
    column; insert what is left, made primitive, if it is nonzero."""
    w = integer_rows([v])[0][0]
    for c in range(len(w)):
        if w[c]:
            e = echelon.get(c)
            if e is None:
                g = math.gcd(*w)
                echelon[c] = [x // g for x in w]
                return True
            a, b = e[c], w[c]
            w = [a * x - b * y for x, y in zip(w, e)]
    return False


def _echelon(rows: Iterable[Sequence[Scalar]], ncols: int) -> dict[int, list[int]]:
    """A fraction-free echelon of the rows; it stops at ``ncols`` rows, full rank."""
    echelon: dict[int, list[int]] = {}
    for v in rows:
        if len(echelon) == ncols:
            break
        _insert(echelon, v)
    return echelon


def _back_substitute(echelon: dict[int, list[int]], x: list[int]) -> Vector:
    """x with each pivot entry solved from its row, last pivot first, so that
    every echelon row vanishes; over a common denominator d, divided at the end."""
    d = 1
    for p in sorted(echelon, reverse=True):
        e = echelon[p]
        s = sum(a * b for a, b in zip(e[p + 1:], x[p + 1:]))
        g = math.gcd(s, e[p])
        x, d = [y * (e[p] // g) for y in x], d * (e[p] // g)
        x[p] = -s // g
    return tuple(div(y, d) for y in x)


def independent_extension(
    rows: Sequence[Sequence[Scalar]], candidates: Iterable[Vector], count: int
) -> list[Vector]:
    """The first ``count`` candidates, in order, independent of ``rows`` and of
    the candidates kept before them (none if ``rows`` are dependent): what a
    rank test of rows + kept + [v] keeps, decided by reducing each v against
    one fraction-free echelon (``_insert``)."""
    echelon: dict[int, list[int]] = {}
    if not all(_insert(echelon, v) for v in rows):
        return []
    kept = (v for v in candidates if _insert(echelon, v))
    return list(itertools.islice(kept, count))


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel {x : a x = 0}: per free column, the unique kernel
    vector with 1 there and 0 at the other free columns, as in reduced echelon form."""
    if not a:
        return []
    ncols = len(a[0])
    echelon = _echelon(a, ncols)
    return [
        _back_substitute(echelon, [int(c == fc) for c in range(ncols)])
        for fc in range(ncols)
        if fc not in echelon
    ]


def solve(a: Matrix, b: Sequence[Scalar]) -> Optional[Vector]:
    """The solution of a x = b with 0 at every free column, or None if
    inconsistent: unique, so it is the one read off the reduced echelon form."""
    if not a:
        return None
    ncols = len(a[0])
    echelon = _echelon([list(row) + [bb] for row, bb in zip(a, b)], ncols + 1)
    if ncols in echelon:
        return None  # pivot in the constant column
    return _back_substitute(echelon, [0] * ncols + [-1])[:ncols]


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + list(ident_row) for row, ident_row in zip(a, identity(n))]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def intersect_row_spaces(a_rows: Sequence[Vector], b_rows: Sequence[Vector]) -> list[Vector]:
    """Basis of span(a_rows) intersected with span(b_rows)."""
    if not a_rows or not b_rows:
        return []
    relations = nullspace(transpose(matrix(list(a_rows) + list(b_rows))))
    a_cols = transpose(a_rows)
    return row_space_basis([mat_vec(a_cols, rel[: len(a_rows)]) for rel in relations])


def charpoly(a: Matrix) -> list[Scalar]:
    """Coefficients [1, c1, ..., cn] of det(X I - a) via Faddeev-LeVerrier.

    Off the pipeline path: the tests' O(n^4) reference for
    ``StructureAlgebra.reduced_char_poly``.
    """
    n = len(a)
    coeffs = [1]
    m = a
    for k in range(1, n + 1):
        ck = div(-sum(m[i][i] for i in range(n)), k)
        coeffs.append(ck)
        if k < n:
            shifted = tuple(
                tuple(m[i][j] + (ck if i == j else 0) for j in range(n))
                for i in range(n)
            )
            m = mat_mul(a, shifted)
    return coeffs


def poly_mul(p: Sequence[Scalar], q: Sequence[Scalar]) -> list[Scalar]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x != 0:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out


def poly_nth_root(p: Sequence[Scalar], k: int) -> list[Scalar]:
    """Monic q with q^k == p (coefficients descending); raises if none exists."""
    p = list(vector(p))
    if p[0] != 1 or (len(p) - 1) % k:
        raise ValueError("not a perfect polynomial power")
    m = (len(p) - 1) // k
    q = [1] + [0] * m
    for t in range(1, m + 1):
        cur = q[:1] + q[1:]
        power = [1]
        for _ in range(k):
            power = poly_mul(power, cur)
        q[t] = div(p[t] - power[t], k)
    power = [1]
    for _ in range(k):
        power = poly_mul(power, q)
    if power != p:
        raise ValueError("not a perfect polynomial power")
    return q


def primitive_kernel_basis(f: Sequence[int]) -> list[tuple[int, ...]]:
    """Basis of the full integer kernel lattice {x in Z^n : f . x = 0}.

    ``f`` must be a nonzero primitive integer vector. The unit vectors of its
    zero entries and a Bezout chain over the nonzero ones f_0, ..., f_m give
    a saturated basis by construction: from c_0 = e_0 (f . c_0 = g_0 = f_0),
    step k replaces (c_{k-1}, e_k) by (c_k, w_k) through the block
    [[a_k, b_k], [f_k/g_k, -g_{k-1}/g_k]], of determinant -1, where
    a_k g_{k-1} + b_k f_k = g_k = gcd(g_{k-1}, f_k). So c_m and the w_k form
    a basis of Z^{m+1}, f . w_k = 0, and f . c_m = g_m = +-1 for primitive f.
    """
    n = len(f)
    nz = [i for i, x in enumerate(f) if x != 0]
    if not nz:
        raise ValueError("zero functional")
    basis: list[list[int]] = []
    for i, x in enumerate(f):
        if x == 0:
            e = [0] * n
            e[i] = 1
            basis.append(e)
    g = f[nz[0]]
    coeff = {nz[0]: 1}  # g == sum coeff[i] * f[i]
    for k in nz[1:]:
        a, b, d = _ext_gcd(g, f[k])
        w = [0] * n
        for i, ci in coeff.items():
            w[i] = ci * (f[k] // d)
        w[k] = -(g // d)
        basis.append(w)
        coeff = {i: ci * a for i, ci in coeff.items()}
        coeff[k] = b
        g = d
    if g not in (1, -1):
        raise ValueError("functional must be primitive")
    return [tuple(r) for r in basis]


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with a x + b y = g = gcd(a, b), g > 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_s, old_t, old_r


def saturated_constrained_lattice(
    constraints: Sequence[Sequence[Scalar]],
    lattice: Sequence[Vector],
) -> list[Vector]:
    """LLL-reduced basis of the sublattice of ``lattice`` annihilated by C.

    ``lattice`` is a saturated integer basis (e.g. the identity for Z^n).
    Constraint rows are imposed one at a time; each step keeps a saturated
    basis, so short solution vectors remain reachable by LLL.
    """
    lattice = [vector(b) for b in lattice]
    for row in constraints:
        f = [vec_dot(row, b) for b in lattice]
        if any(f):
            lattice = functional_kernel(f, lattice)
    return lattice


def functional_kernel(f: Sequence[Scalar], lattice: Sequence[Vector]) -> list[Vector]:
    """LLL-reduced basis of the sublattice of ``lattice`` on which the
    functional with the nonzero values ``f`` on its basis vanishes; saturated
    when ``lattice`` is. Only the direction of ``f`` matters."""
    new_lattice = []
    for coeffs in primitive_kernel_basis(list(clear_denominators(f))):
        v = zero_vector(len(lattice[0]))
        for c, b in zip(coeffs, lattice):
            if c:  # kernel vectors are sparse; skip their zero coefficients
                v = vec_add(v, vec_scale(c, b))
        new_lattice.append(v)
    return lll_reduce(new_lattice) if new_lattice else []


def lll_reduce(rows: Sequence[Sequence[Scalar]]) -> list[Vector]:
    """Lenstra-Lenstra-Lovasz reduction of independent rows (Euclidean metric).

    Used to keep basis vectors (and hence restricted Gram matrices and form
    values) small. A common rational denominator is cleared from the whole
    basis first, which rescales the lattice uniformly and so does not change
    which bases are reduced; the result is scaled back exactly.

    The reduction is Cohen's integral LLL (*A Course in Computational
    Algebraic Number Theory*, Alg. 2.6.7) on Python ints, so every decision
    is exact whatever the size of the Gram-Schmidt coefficients mu. It keeps
    the contract of sympy's ``DomainMatrix.lll``, whose output it reproduces:
    delta = 3/4; mu is rounded to floor(mu + 1/2) and entries with
    |mu| <= 1/2 are left alone; at each step row k is reduced against row
    k - 1, then either the Lovasz condition holds, rows l = k - 2 .. 0 are
    reduced and k advances, or rows k - 1 and k are swapped and k steps back.

    Raises ValueError if the rows are linearly dependent.
    """
    b, denom = integer_rows(matrix(rows))
    m = len(b)
    # integral Gram-Schmidt: d[i] is the Gram determinant of rows 0 .. i-1
    # and lam[i][j] = d[j + 1] * mu[i][j], both integers; every // below
    # divides exactly
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for l in range(j):
                u = (d[l + 1] * u - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = u
            elif u == 0:
                raise ValueError("lll_reduce needs linearly independent rows")
            else:
                d[i + 1] = u

    def reduce(k: int, l: int) -> None:
        # b_k -= round(mu[k][l]) b_l, skipped when |mu[k][l]| <= 1/2
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) <= dl:
            return
        q = (2 * lam[k][l] + dl) // (2 * dl)
        b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    k = 1
    while k < m:
        reduce(k, k - 1)
        t = lam[k][k - 1]
        # Lovasz: |b*_k|^2 >= (3/4 - mu[k][k-1]^2) |b*_{k-1}|^2, times 4 d[k] d[k-1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * t * t:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        new_d = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, m):
            s = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * s) // d[k]
            lam[i][k - 1] = (new_d * s + t * lam[i][k]) // d[k + 1]
        d[k] = new_d
        k = max(k - 1, 1)
    return [tuple(div(x, denom) for x in r) for r in b]


def clear_denominators(v: Sequence[Scalar]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    The first nonzero entry of the result is positive.
    """
    ints = integer_rows([v])[0][0]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    if g == 0:
        raise ValueError("zero vector")
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)
