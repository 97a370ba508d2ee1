"""Finite-dimensional structure-constant algebras with involution.

Covers tensor products of quaternion algebras with involution, split-case
adjoint-form extraction, Clifford algebras of small quadratic forms, and the
first three cohomological-style invariants of an algebra with orthogonal
involution (degree parity, discriminant, Clifford class pair).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import InitVar, dataclass
from typing import Optional, Sequence, Union

from . import linalg, quat
from .arith import (
    BrauerClass,
    brauer_class_of_symbol,
    rat_str,
    square_class,
)
from .linalg import Matrix, Scalar, Vector
from .qform import QuadraticForm
from .quat import OrthogonalInvolution, QuaternionAlgebra, QuaternionElement

FULL_VALIDATION_DIM = 16
SAMPLED_CHECKS = 2000


class AlgebraError(ValueError):
    pass


class UncomputableInvariant(RuntimeError):
    """The requested invariant has no implemented route for this algebra."""


# ---------------------------------------------------------------------------
# structure-constant algebras
# ---------------------------------------------------------------------------


class StructureAlgebra:
    """An associative unital algebra over Q on a monomial basis.

    Each product of basis elements is one scaled basis element or 0, as in
    quaternion tables, their tensor products, matrix units and Clifford
    algebras (twisted group algebras, KMRT §11). Two flat tables over the
    cells m = i*dim + j give e_i e_j = const[m] e_k with k = index[m], or 0
    when k = -1; any other cell, such as one with two terms, raises
    AlgebraError. Unless ``validate=False``, the constants are coerced to
    exact scalars and associativity and the unit law are checked
    (exhaustively up to dimension 16, on a deterministic sample beyond).
    Quaternion tables, matrix units and tensor products hold by construction.
    """

    __slots__ = ("dim", "labels", "index", "const", "unit", "trace_row")

    def __init__(self, labels, index, const, unit, validate: bool = True):
        self.labels = tuple(labels)
        n = self.dim = len(self.labels)
        self.index, self.const = tuple(index), tuple(const)
        try:
            monomial = set(self.index) <= set(range(-1, n))
        except TypeError:  # an unhashable cell, such as a map of two terms
            monomial = False
        if not monomial or not len(self.index) == len(self.const) == n * n:
            raise AlgebraError("structure table is not monomial: one index and constant per cell")
        self.unit = linalg.vector(unit)
        if validate:
            self.const = linalg.vector(self.const)
            self._validate()
        # t_i = Tr(L_{e_i}): the constants of the cells with e_i e_j on e_j
        t = [0] * n
        diagonal = map(operator.eq, self.index, itertools.cycle(range(n)))
        for m in itertools.compress(range(n * n), diagonal):
            t[m // n] += self.const[m]
        self.trace_row = tuple(t)

    # -- basic arithmetic ---------------------------------------------------

    def basis_vector(self, i: int) -> Vector:
        return tuple(1 if t == i else 0 for t in range(self.dim))

    def scalar(self, c) -> Vector:
        c = linalg.scalar(c)
        return tuple(c * u for u in self.unit)

    def mul(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
        n, index, const = self.dim, self.index, self.const
        out = [0] * n
        ys = [(j, yj) for j, yj in enumerate(y) if yj != 0]
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = i * n
            for j, yj in ys:
                k = index[row + j]
                if k >= 0:
                    out[k] += xi * yj * const[row + j]
        return tuple(out)

    def degree(self) -> int:
        deg = math.isqrt(self.dim)
        if deg * deg != self.dim:
            raise AlgebraError("dimension is not a perfect square")
        return deg

    def trd(self, x: Sequence[Scalar]) -> Scalar:
        """Reduced trace Tr(L_x)/deg, with Tr(L_x) = sum x_i t_i: no multiplication."""
        return linalg.div(linalg.vec_dot(x, self.trace_row), self.degree())

    def trace_form(self) -> Matrix:
        """The bilinear trace form: row s holds Trd(e_s e_k) for every k."""
        t, n, deg = self.trace_row, self.dim, self.degree()
        vals = [linalg.div(c * t[k], deg) if k >= 0 else 0 for k, c in zip(self.index, self.const)]
        return tuple(tuple(vals[s : s + n]) for s in range(0, n * n, n))

    def reduced_char_poly(self, x: Sequence[Scalar]) -> list[Scalar]:
        """Monic p of degree deg with p^deg the char poly of L_x, descending.

        For a central simple algebra: Newton's identities on s_k = Trd(x^k),
        k = 1..deg (deg - 1 multiplications), certified by the exact check
        p(x) = 0 (every eigenvalue of L_x is then a root of p, and the power
        sums fix the multiplicities by a Vandermonde system). At least as
        strong as the tests' reference, ``linalg.poly_nth_root`` of
        ``linalg.charpoly``. Raises ValueError when p(x) != 0.
        """
        return self._char_poly_and_powers(x)[0]

    def _char_poly_and_powers(self, x):
        deg = self.degree()
        powers = [self.unit, linalg.vector(x)]
        while len(powers) <= deg:
            powers.append(self.mul(powers[-1], powers[1]))
        s = [self.trd(pw) for pw in powers]
        c = [1]
        for k in range(1, deg + 1):
            c.append(linalg.div(-sum(c[i] * s[k - i] for i in range(k)), k))
        if any(linalg.vec_dot(c, col) for col in zip(*reversed(powers))):
            raise ValueError("no reduced characteristic polynomial: p(x) != 0")
        return c, powers

    def nrd(self, x: Sequence[Scalar]) -> Scalar:
        """Reduced norm: (-1)^deg times the constant term of the reduced char poly."""
        p = self.reduced_char_poly(x)
        return p[-1] if self.degree() % 2 == 0 else -p[-1]

    def is_invertible(self, x: Sequence[Scalar]) -> bool:
        """Nrd(x) != 0, for x in a central simple algebra (else x is a zero divisor)."""
        return self.reduced_char_poly(x)[-1] != 0

    def adjugate(self, x: Sequence[Scalar]) -> Vector:
        """x^# = -(x^{deg-1} + c_1 x^{deg-2} + ... + c_{deg-1}), for x in a CSA.

        x x^# = x^# x = c_deg, since p(x) = 0 was checked; so x^# is
        c_deg x^{-1} when x is invertible. It needs no division and is
        integral when x and the structure constants are.
        """
        return self._adjugate_and_constant(x)[0]

    def inverse(self, x: Sequence[Scalar]) -> Vector:
        """x^# / c_deg, for x in a CSA: exact and free of further multiplication.

        Raises ZeroDivisionError when c_deg = 0 (x is a zero divisor).
        """
        adj, c_deg = self._adjugate_and_constant(x)
        if c_deg == 0:
            raise ZeroDivisionError("element is not invertible")
        return tuple(linalg.div(a, c_deg) for a in adj)

    def _adjugate_and_constant(self, x):
        c, powers = self._char_poly_and_powers(x)
        cols = zip(*reversed(powers[:-1]))
        return tuple(-linalg.vec_dot(c[:-1], col) for col in cols), c[-1]

    # -- validation ---------------------------------------------------------

    def _validate(self):
        for j in range(self.dim):
            ej = self.basis_vector(j)
            if self.mul(self.unit, ej) != ej or self.mul(ej, self.unit) != ej:
                raise AlgebraError("unit law fails")
        if self.dim <= FULL_VALIDATION_DIM:
            triples = (
                (i, j, k)
                for i in range(self.dim)
                for j in range(self.dim)
                for k in range(self.dim)
            )
        else:
            rng = random.Random(0xA55)
            triples = (
                tuple(rng.randrange(self.dim) for _ in range(3))
                for _ in range(SAMPLED_CHECKS)
            )
        for i, j, k in triples:
            left = self.mul(self._basis_product(i, j), self.basis_vector(k))
            right = self.mul(self.basis_vector(i), self._basis_product(j, k))
            if left != right:
                raise AlgebraError(f"associativity fails on basis triple {(i, j, k)}")

    def _basis_product(self, i: int, j: int) -> Vector:
        out = [0] * self.dim
        m = i * self.dim + j
        if self.index[m] >= 0:
            out[self.index[m]] = self.const[m]
        return tuple(out)


def quaternion_structure(q: QuaternionAlgebra) -> StructureAlgebra:
    """The 4-dimensional structure algebra of a quaternion symbol (not re-validated).

    i^2 = a, j^2 = b and ij = -ji = k put e_s e_t on e_{s xor t}, with the
    constants of i k = a j, j k = -b i, k i = -a j, k j = b i and k^2 = -ab.
    """
    a, b = q.a, q.b
    const = (1, 1, 1, 1, 1, a, 1, a, 1, -1, b, -b, 1, -a, b, linalg.scalar(-a * b))
    index = tuple(s ^ t for s in range(4) for t in range(4))
    return StructureAlgebra(["1", "i", "j", "k"], index, const, [1, 0, 0, 0], validate=False)


def matrix_structure(n: int) -> StructureAlgebra:
    """M_n(Q) on the matrix units, E_rc E_sd = [c = s] E_rd (not re-validated)."""
    labels = [f"E{r}{c}" for r in range(n) for c in range(n)]
    cells = itertools.product(range(n), repeat=4)
    index, const = zip(*((r * n + d, 1) if c == s else (-1, 0) for r, c, s, d in cells))
    unit = [1 if r == c else 0 for r in range(n) for c in range(n)]
    return StructureAlgebra(labels, index, const, unit, validate=False)


def tensor_structure(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """Tensor product algebra: (e_ia (x) e_ib)(e_ja (x) e_jb) is ca cb e_ka (x) e_kb."""
    labels = [f"{la}*{lb}" for la in a.labels for lb in b.labels]
    da, db = a.dim, b.dim
    # cell (ia*db + ib, ja*db + jb) of the product pairs cell (ia, ja) of a
    # with cell (ib, jb) of b
    rows = lambda t, d: [t[m : m + d] for m in range(0, d * d, d)]
    ai, ac, bi, bc = rows(a.index, da), rows(a.const, da), rows(b.index, db), rows(b.const, db)
    index = [ka * db + kb if ka >= 0 and kb >= 0 else -1
             for ra in ai for rb in bi for ka in ra for kb in rb]
    const = [ca * cb for ra in ac for rb in bc for ca in ra for cb in rb]
    if not set(map(type, a.const + b.const)) <= {int}:
        const = linalg.vector(const)  # a product of Fractions may be integral
    unit = tuple(x * y for x in a.unit for y in b.unit)
    return StructureAlgebra(labels, index, const, unit, validate=False)


# ---------------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Involution:
    """A linear anti-automorphism of order 2, stored as its coordinate matrix.

    The type tag is cross-checked against the dimension of the fixed space:
    an orthogonal involution on a degree-n algebra fixes n(n+1)/2 dimensions,
    a symplectic one n(n-1)/2. With ``validate=False`` only that check runs:
    gamma, tensor products, twists by a checked symmetric invertible u and
    adjoint involutions are involutions by construction, and the tests run
    the full check on them.
    """

    algebra: StructureAlgebra
    matrix: Matrix
    type_tag: str
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if validate:
            self._validate()
        deg = self.algebra.degree()
        sym = self.symmetric_dimension()
        expected = {"orthogonal": deg * (deg + 1) // 2, "symplectic": deg * (deg - 1) // 2}
        if self.type_tag not in expected:
            raise AlgebraError(f"unknown involution type {self.type_tag!r}")
        if sym != expected[self.type_tag]:
            raise AlgebraError(
                f"symmetric dimension {sym} contradicts type {self.type_tag}"
            )

    def _validate(self):
        alg = self.algebra
        n = alg.dim
        for i in range(n):
            e = alg.basis_vector(i)
            if self.apply(self.apply(e)) != e:
                raise AlgebraError("involution must square to the identity")
        if self.apply(alg.unit) != alg.unit:
            raise AlgebraError("involution must fix the unit")
        if n <= FULL_VALIDATION_DIM:
            pairs = ((i, j) for i in range(n) for j in range(n))
        else:
            rng = random.Random(0x515)
            pairs = (
                (rng.randrange(n), rng.randrange(n)) for _ in range(SAMPLED_CHECKS)
            )
        for i, j in pairs:
            lhs = self.apply(alg._basis_product(i, j))
            rhs = alg.mul(self.apply(alg.basis_vector(j)), self.apply(alg.basis_vector(i)))
            if lhs != rhs:
                raise AlgebraError("involution is not an anti-automorphism")

    def apply(self, x: Sequence[Scalar]) -> Vector:
        # involution matrices arising here are sparse (signed scaled
        # permutations for the most part); accumulate nonzero columns only
        cols = getattr(self, "_sparse_cols", None)
        if cols is None:
            n = self.algebra.dim
            cols = tuple(
                tuple(
                    (i, self.matrix[i][j])
                    for i in range(n)
                    if self.matrix[i][j] != 0
                )
                for j in range(n)
            )
            object.__setattr__(self, "_sparse_cols", cols)
        out = [0] * self.algebra.dim
        for j, xj in enumerate(x):
            if xj == 0:
                continue
            for i, mij in cols[j]:
                out[i] += mij * xj
        return tuple(out)

    def symmetric_dimension(self) -> int:
        # the matrix squares to the identity, so its +1-eigenspace has
        # dimension (n + trace)/2
        n = self.algebra.dim
        num = n + sum(self.matrix[i][i] for i in range(n))
        if num.denominator != 1 or num.numerator % 2:
            raise AlgebraError("involution trace is not consistent with order 2")
        return num.numerator // 2


FactorInvolution = Union[str, QuaternionElement, OrthogonalInvolution]


@dataclass(frozen=True)
class InvolutionAlgebra:
    """A structure algebra with involution, with optional tensor provenance.

    ``factors`` records quaternion factors (symbol, pure twisting element or
    None for the canonical involution); ``twist`` an optional further global
    twisting element u with sigma = Int(u) o sigma_base. Provenance keeps the
    structural invariant routes available without reconstructing anything.
    """

    algebra: StructureAlgebra
    sigma: Involution
    factors: Optional[tuple[tuple[QuaternionAlgebra, Optional[QuaternionElement]], ...]] = None
    twist: Optional[Vector] = None
    matrix_iso: Optional["AlgebraIso"] = None

    @property
    def degree(self) -> int:
        return self.algebra.degree()


def from_quaternion(q: QuaternionAlgebra, inv: FactorInvolution) -> InvolutionAlgebra:
    """Quaternion algebra as a structure algebra with gamma or Int(s) o gamma.

    gamma is an involution of every quaternion algebra and is not
    re-validated; the matrix of Int(s) o gamma is.
    """
    alg = quaternion_structure(q)
    if isinstance(inv, str):
        if inv != "canonical":
            raise AlgebraError(f"unknown involution descriptor {inv!r}")
        m = ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))
        sigma = Involution(alg, m, "symplectic", validate=False)
        return InvolutionAlgebra(alg, sigma, ((q, None),))
    if isinstance(inv, QuaternionElement):
        inv = OrthogonalInvolution(inv)
    if not isinstance(inv, OrthogonalInvolution) or inv.s.algebra != q:
        raise AlgebraError("invalid involution descriptor")
    sigma = Involution(alg, inv.matrix(), "orthogonal")
    return InvolutionAlgebra(alg, sigma, ((q, inv.s),))


_TYPE_PRODUCT = {
    ("orthogonal", "orthogonal"): "orthogonal",
    ("symplectic", "symplectic"): "orthogonal",
    ("orthogonal", "symplectic"): "symplectic",
    ("symplectic", "orthogonal"): "symplectic",
}


def tensor(x: InvolutionAlgebra, y: InvolutionAlgebra) -> InvolutionAlgebra:
    """Tensor product of algebras with involution."""
    alg = tensor_structure(x.algebra, y.algebra)
    m = linalg.kron(x.sigma.matrix, y.sigma.matrix)
    tag = _TYPE_PRODUCT[(x.sigma.type_tag, y.sigma.type_tag)]
    sigma = Involution(alg, m, tag, validate=False)
    factors = None
    if x.factors is not None and y.factors is not None:
        factors = x.factors + y.factors
    twist = None
    if x.twist is not None or y.twist is not None:
        tx = x.twist if x.twist is not None else x.algebra.unit
        ty = y.twist if y.twist is not None else y.algebra.unit
        twist = tuple(a * b for a in tx for b in ty)
    return InvolutionAlgebra(alg, sigma, factors, twist)


def twist_involution(a: InvolutionAlgebra, u: Sequence[Scalar]) -> InvolutionAlgebra:
    """Replace sigma by Int(u) o sigma for a sigma-symmetric invertible u.

    The length and both properties of u are checked; they make Int(u) o sigma
    an involution, so it is not re-validated (only the type-tag check runs).
    """
    u = linalg.vector(u)
    alg = a.algebra
    if len(u) != alg.dim:
        raise AlgebraError(f"twisting element needs {alg.dim} coordinates, not {len(u)}")
    if a.sigma.apply(u) != u:
        raise AlgebraError("twisting element must be symmetric under sigma")
    try:
        u_inv = alg.inverse(u)
    except ZeroDivisionError:
        raise AlgebraError("twisting element must be invertible") from None
    cols = [alg.mul(alg.mul(u, a.sigma.apply(alg.basis_vector(t))), u_inv) for t in range(alg.dim)]
    m = linalg.transpose(linalg.matrix(cols))
    sigma = Involution(alg, m, a.sigma.type_tag, validate=False)
    prev = a.twist if a.twist is not None else alg.unit
    return InvolutionAlgebra(alg, sigma, a.factors, alg.mul(u, prev), a.matrix_iso)


# ---------------------------------------------------------------------------
# explicit isomorphisms with matrix algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraIso:
    """An isomorphism onto M_n(Q): the image matrix of every basis element."""

    degree: int
    images: tuple[Matrix, ...]

    def apply(self, x: Sequence[Scalar]) -> Matrix:
        n = self.degree
        out = [[0] * n for _ in range(n)]
        for c, m in zip(x, self.images):
            if c != 0:
                for r in range(n):
                    for s in range(n):
                        out[r][s] += c * m[r][s]
        return tuple(tuple(row) for row in out)


def split_isomorphism(a: InvolutionAlgebra) -> AlgebraIso:
    """Isomorphism with M_{2^r}(Q) assembled from split quaternion factors."""
    if a.factors is None:
        raise AlgebraError("no tensor provenance to build a splitting from")
    maps = []
    for q, _ in a.factors:
        if not quat.is_split(q):
            raise AlgebraError(f"factor ({rat_str(q.a)},{rat_str(q.b)}) is not split")
        maps.append(quat.splitting_isomorphism(q))
    degree = 2 ** len(maps)
    images = []
    for combo in itertools.product(range(4), repeat=len(maps)):
        m = None
        for sm, t in zip(maps, combo):
            factor = sm.images[t]
            m = factor if m is None else linalg.kron(m, factor)
        images.append(m)
    return AlgebraIso(degree, tuple(images))


def adjoint_gram(a: InvolutionAlgebra, iso: AlgebraIso) -> QuadraticForm:
    """The quadratic form q with ad_q = sigma under the given splitting.

    Solves G . iso(sigma(x)) = iso(x)^T . G for x in a generating set of the
    algebra (``_generators``). The x satisfying it form a subalgebra, since
    sigma is an anti-automorphism and iso a homomorphism, so the solutions are
    those of every basis element. The solution space must be 1-dimensional
    and symmetric (an antisymmetric solution signals a symplectic
    involution). The scalar ambiguity is fixed by making the Gram matrix
    integral, primitive, with positive first nonzero entry.
    """
    n = iso.degree
    rows = {}
    for x in _generators(a):
        m = iso.apply(x)
        s = iso.apply(a.sigma.apply(x))
        # unknowns G[p][q] flattened as p*n+q
        for r in range(n):
            for c in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[r * n + k] += s[k][c]
                    row[k * n + c] -= m[k][r]
                if any(row):  # zero and repeated equations add nothing
                    rows[tuple(row)] = None
    # M_1 has no generator besides its unit, which imposes nothing
    kernel = linalg.nullspace(list(rows) or [[0] * (n * n)])
    if len(kernel) != 1:
        raise AlgebraError(
            f"adjoint Gram solution space has dimension {len(kernel)} (expected 1)"
        )
    flat = kernel[0]
    g = [[flat[r * n + c] for c in range(n)] for r in range(n)]
    if any(g[r][c] != g[c][r] for r in range(n) for c in range(n)):
        if all(g[r][c] == -g[c][r] for r in range(n) for c in range(n)):
            raise AlgebraError("adjoint form is alternating: involution is symplectic")
        raise AlgebraError("adjoint Gram is neither symmetric nor alternating")
    flat_int = linalg.clear_denominators(flat)
    g = [[flat_int[r * n + c] for c in range(n)] for r in range(n)]
    return QuadraticForm(g)


def _generators(a: InvolutionAlgebra) -> list[Vector]:
    """Each quaternion factor's i and j in the tensor basis, or the matrix
    units E_{r,r+1} and E_{r+1,r} of ``adjoint_algebra``'s M_n."""
    if a.factors is not None:
        r = len(a.factors)
        idx = [u * 4 ** (r - 1 - t) for t in range(r) for u in (1, 2)]
    elif a.matrix_iso is not None:
        n = a.matrix_iso.degree
        idx = [i for r in range(n - 1) for i in (r * n + r + 1, (r + 1) * n + r)]
    else:
        raise AlgebraError("no generating set known for this algebra")
    return [a.algebra.basis_vector(i) for i in idx]


def adjoint_algebra(q: QuadraticForm) -> tuple[InvolutionAlgebra, AlgebraIso]:
    """End(V) with the adjoint involution of the given form, plus its identity iso.

    X -> G^{-1} X^T G is an involution for every symmetric nondegenerate G,
    which QuadraticForm guarantees, so it is not re-validated.
    """
    n = q.dim
    alg = matrix_structure(n)
    g = q.gram
    g_inv = linalg.inverse(g)
    units = tuple(
        tuple(tuple(int((i, j) == (r, c)) for j in range(n)) for i in range(n))
        for r in range(n)
        for c in range(n)
    )
    cols = []
    for e in units:
        img = linalg.mat_mul(g_inv, linalg.mat_mul(linalg.transpose(e), g))
        cols.append(tuple(x for row in img for x in row))
    m = linalg.transpose(linalg.matrix(cols))
    sigma = Involution(alg, m, "orthogonal", validate=False)
    iso = AlgebraIso(n, units)
    return InvolutionAlgebra(alg, sigma, matrix_iso=iso), iso


# ---------------------------------------------------------------------------
# invariants of (A, sigma)
# ---------------------------------------------------------------------------


def e0(a: InvolutionAlgebra) -> int:
    """Degree of the algebra modulo 2."""
    if a.sigma.type_tag != "orthogonal":
        raise AlgebraError("invariants are defined for orthogonal involutions")
    return a.degree % 2


def e1(a: InvolutionAlgebra) -> int:
    """Discriminant of the involution as a squarefree integer.

    Routes: a quaternion twisted involution Int(s) o gamma has discriminant
    s^2; a twisted tensor of quaternions with canonical involutions has the
    reduced norm of the twisting element; a split algebra falls back to the
    discriminant of the adjoint form.
    """
    if e0(a) != 0:
        raise AlgebraError("discriminant is undefined in odd degree")
    if a.factors is not None:
        if len(a.factors) == 1:
            q, s = a.factors[0]
            base = square_class(-quat.nrd(s)) if s is not None else None
            if base is None:
                raise AlgebraError("canonical involution is symplectic")
            if a.twist is not None:
                raise UncomputableInvariant("twisted quaternion involution")
            return base
        # r >= 2: the untwisted decomposable involution has trivial discriminant
        if a.twist is None:
            return 1
        # kept on the algebra, so e2 and the Pfister verdict reuse it
        disc = getattr(a, "_twist_disc", None)
        if disc is None:
            disc = square_class(a.algebra.nrd(a.twist))
            object.__setattr__(a, "_twist_disc", disc)
        return disc
    return adjoint_form(a).invariants().disc


def adjoint_form(a: InvolutionAlgebra) -> QuadraticForm:
    """Adjoint quadratic form of a split algebra with orthogonal involution.

    Solved once per algebra and kept on it, so e1, e2, the Pfister verdict
    and the caller share one solve.
    """
    form = getattr(a, "_adjoint_form", None)
    if form is None:
        iso = a.matrix_iso if a.matrix_iso is not None else split_isomorphism(a)
        form = adjoint_gram(a, iso)
        object.__setattr__(a, "_adjoint_form", form)
    return form


@dataclass(frozen=True)
class E2Pair:
    """The Clifford-class invariant: the unordered pair {beta, beta + [A]}.

    Triviality in the quotient by {0, [A]} is membership of the trivial class
    in the pair.
    """

    classes: frozenset[BrauerClass]
    algebra_class: BrauerClass

    @property
    def is_trivial(self) -> bool:
        return BrauerClass.trivial() in self.classes

    @staticmethod
    def of(beta: BrauerClass, alg_class: BrauerClass) -> "E2Pair":
        return E2Pair(frozenset({beta, beta + alg_class}), alg_class)


def e2(a: InvolutionAlgebra) -> E2Pair:
    """Clifford invariant pair of an even-degree involution of trivial discriminant.

    Computed from the adjoint form when the algebra splits; for non-split
    tensor products of quaternions the known component classes are used
    (degree 4 with canonical factors, and degree 8/16 decomposable cases,
    where one component class is trivial).
    """
    if e0(a) != 0 or e1(a) != 1:
        raise AlgebraError("Clifford invariant needs trivial e0 and e1")
    # with no factors, e1 has solved the adjoint form: the algebra is split
    classes = [brauer_class_of_symbol(q.a, q.b) for q, _ in a.factors or ()]
    if all(c.is_trivial for c in classes):
        beta = adjoint_form(a).invariants().clifford
        return E2Pair.of(beta, BrauerClass.trivial())
    alg_class = sum(classes, BrauerClass.trivial())
    r = len(classes)
    if a.twist is not None:
        raise UncomputableInvariant("twisted non-split algebra")
    if r == 2:
        if any(s is not None for _, s in a.factors):
            raise UncomputableInvariant("non-split degree 4 with orthogonal factors")
        # Clifford components of the canonical pair are the factors themselves
        return E2Pair(frozenset(classes), alg_class)
    if r == 3:
        # a decomposable degree-8 involution has one split Clifford component
        return E2Pair.of(BrauerClass.trivial(), alg_class)
    if r == 4 and all(s is None for _, s in a.factors):
        # fourfold canonical products have trivial Clifford invariant
        return E2Pair.of(BrauerClass.trivial(), alg_class)
    raise UncomputableInvariant(f"no Clifford route for {r} factors")


def is_pfister_involution(a: InvolutionAlgebra) -> bool:
    """Degree 2, 4 and 8 recognition through e1 and e2."""
    if a.sigma.type_tag != "orthogonal":
        raise AlgebraError("only orthogonal involutions are considered")
    deg = a.degree
    if deg == 2:
        return True
    if deg == 4:
        return e1(a) == 1
    if deg == 8:
        if e1(a) != 1:
            return False
        return e2(a).is_trivial
    raise AlgebraError(f"unsupported degree {deg}")


# ---------------------------------------------------------------------------
# Clifford algebras of small quadratic forms
# ---------------------------------------------------------------------------

MAX_CLIFFORD_DIM = 6


class CliffordAlgebra(StructureAlgebra):
    """Clifford algebra of a diagonalized form, basis indexed by subsets.

    Basis element with bitmask S is the ordered product of the generators in
    S; the grading by parity of |S| gives the even part.
    """

    __slots__ = ("generators_squares",)

    def __init__(self, diag: Sequence[Scalar]):
        n = len(diag)
        if n > MAX_CLIFFORD_DIM:
            raise AlgebraError(f"Clifford construction capped at dimension {MAX_CLIFFORD_DIM}")
        diag = linalg.vector(diag)
        dim = 1 << n
        labels = []
        for mask in range(dim):
            name = "".join(f"e{t+1}" for t in range(n) if mask >> t & 1)
            labels.append(name or "1")
        index, const = [], []
        for s_mask in range(dim):
            for t_mask in range(dim):
                sign = 1
                coeff = 1
                # move each generator of t past the tail of s, squaring overlaps
                acc = s_mask
                for t in range(n):
                    if not t_mask >> t & 1:
                        continue
                    higher = acc >> (t + 1)
                    sign *= -1 if bin(higher).count("1") % 2 else 1
                    if acc >> t & 1:
                        coeff *= diag[t]
                        acc &= ~(1 << t)
                    else:
                        acc |= 1 << t
                index.append(acc if coeff != 0 else -1)
                const.append(sign * coeff)
        unit = [1 if m == 0 else 0 for m in range(dim)]
        super().__init__(labels, index, const, unit)
        self.generators_squares = tuple(diag)

    def generator(self, t: int) -> Vector:
        return self.basis_vector(1 << t)


def clifford_algebra(q: QuadraticForm) -> CliffordAlgebra:
    """Structure-constant Clifford algebra on an orthogonal basis of q."""
    return CliffordAlgebra(q.diagonal())


def _scalar_of(alg: StructureAlgebra, x: Vector) -> Scalar:
    """The scalar c with x = c.1; raises if x is not central-scalar."""
    t = next((t for t, ut in enumerate(alg.unit) if ut != 0), None)
    if t is None:
        raise AlgebraError("the unit is zero")
    c = linalg.div(x[t], alg.unit[t])
    if x != alg.scalar(c):
        raise AlgebraError("element is not a scalar")
    return c


def _quaternion_pair_class(alg: StructureAlgebra, u: Vector, v: Vector) -> BrauerClass:
    """Class of the quaternion subalgebra generated by anticommuting u, v."""
    uu = _scalar_of(alg, alg.mul(u, u))
    vv = _scalar_of(alg, alg.mul(v, v))
    anti = linalg.vec_add(alg.mul(u, v), alg.mul(v, u))
    if not linalg.is_zero_vector(anti):
        raise AlgebraError("generators do not anticommute")
    return brauer_class_of_symbol(uu, vv)


def clifford_brauer_class(q: QuadraticForm) -> BrauerClass:
    """Brauer class of C(q) (even dim) or of the even part (odd dim).

    Computed inside the structure-constant algebra by exhibiting explicit
    anticommuting generators of quaternion (sub)algebras and reading off
    their scalar squares; supports dimensions 1 to 5.
    """
    n = q.dim
    if n > 5:
        raise AlgebraError("structural Clifford class implemented up to dimension 5")
    alg = clifford_algebra(q)
    if n == 1:
        return BrauerClass.trivial()
    e = [alg.generator(t) for t in range(n)]
    if n == 2:
        return _quaternion_pair_class(alg, e[0], e[1])
    if n == 3:
        u = alg.mul(e[0], e[1])
        v = alg.mul(e[0], e[2])
        return _quaternion_pair_class(alg, u, v)
    if n == 4:
        return _even_dim4_class(alg, e)
    # n == 5: the even part is generated by f_t = e_1 e_{t+1}, which satisfy
    # the relations of a 4-dimensional Clifford algebra
    f = [alg.mul(e[0], e[t]) for t in range(1, 5)]
    return _even_dim4_class(alg, f)


def _even_dim4_class(alg: StructureAlgebra, e: list[Vector]) -> BrauerClass:
    """Class of the full Clifford algebra on 4 anticommuting generators.

    (e1, e2) generate a quaternion subalgebra; its centralizer is generated
    by e1 e2 e3 and e1 e2 e4, which commute with the first pair and
    anticommute with each other.
    """
    first = _quaternion_pair_class(alg, e[0], e[1])
    u = alg.mul(alg.mul(e[0], e[1]), e[2])
    v = alg.mul(alg.mul(e[0], e[1]), e[3])
    for g in (e[0], e[1]):
        for w in (u, v):
            if alg.mul(g, w) != alg.mul(w, g):
                raise AlgebraError("centralizer generators fail to commute")
    second = _quaternion_pair_class(alg, u, v)
    return first + second
