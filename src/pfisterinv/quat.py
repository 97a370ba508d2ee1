"""Quaternion algebras (a, b) over Q.

Element arithmetic over the basis (1, i, j, k) with i^2 = a, j^2 = b and
ij = -ji = k, canonical and twisted-by-a-pure-quaternion involutions, the
norm form, split detection, and an explicit splitting map to 2x2 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .arith import brauer_class_of_symbol, rat, rat_str
from .linalg import Matrix, Scalar
from .qform import CertificateError, QuadraticForm, isotropic_witnesses


@dataclass(frozen=True)
class QuaternionAlgebra:
    a: Scalar
    b: Scalar

    def __post_init__(self):
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "b", rat(self.b))
        if self.a == 0 or self.b == 0:
            raise ValueError("quaternion symbol entries must be nonzero")

    def element(self, coords: Sequence) -> "QuaternionElement":
        return QuaternionElement(self, tuple(rat(c) for c in coords))

    def one(self) -> "QuaternionElement":
        return self.element([1, 0, 0, 0])

    def i(self) -> "QuaternionElement":
        return self.element([0, 1, 0, 0])

    def j(self) -> "QuaternionElement":
        return self.element([0, 0, 1, 0])

    def k(self) -> "QuaternionElement":
        return self.element([0, 0, 0, 1])

    def basis(self) -> list["QuaternionElement"]:
        return [self.one(), self.i(), self.j(), self.k()]

    def to_json(self) -> dict:
        return {"a": rat_str(self.a), "b": rat_str(self.b)}

    @staticmethod
    def from_json(data: dict) -> "QuaternionAlgebra":
        return QuaternionAlgebra(data["a"], data["b"])


@dataclass(frozen=True)
class QuaternionElement:
    algebra: QuaternionAlgebra
    coords: tuple[Scalar, Scalar, Scalar, Scalar]

    def __add__(self, other):
        self._check(other)
        return QuaternionElement(
            self.algebra, tuple(x + y for x, y in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check(other)
        return QuaternionElement(
            self.algebra, tuple(x - y for x, y in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return QuaternionElement(self.algebra, tuple(-x for x in self.coords))

    def __mul__(self, other):
        if isinstance(other, QuaternionElement):
            return multiply(self, other)
        c = rat(other)
        return QuaternionElement(self.algebra, tuple(c * x for x in self.coords))

    __rmul__ = __mul__  # only reached with a scalar on the left

    def _check(self, other):
        if self.algebra != other.algebra:
            raise ValueError("elements of different quaternion algebras")

    def __repr__(self):
        return f"Quat({', '.join(rat_str(c) for c in self.coords)})"


def multiply(x: QuaternionElement, y: QuaternionElement) -> QuaternionElement:
    """Bilinear product from i^2 = a, j^2 = b, ij = -ji = k."""
    x._check(y)
    a, b = x.algebra.a, x.algebra.b
    x0, x1, x2, x3 = x.coords
    y0, y1, y2, y3 = y.coords
    return QuaternionElement(
        x.algebra,
        (
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        ),
    )


def trd(x: QuaternionElement) -> Scalar:
    return 2 * x.coords[0]


def nrd(x: QuaternionElement) -> Scalar:
    a, b = x.algebra.a, x.algebra.b
    x0, x1, x2, x3 = x.coords
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


def canonical_involution(x: QuaternionElement) -> QuaternionElement:
    """The unique symplectic involution: x -> Trd(x) - x."""
    x0, x1, x2, x3 = x.coords
    return QuaternionElement(x.algebra, (x0, -x1, -x2, -x3))


def inverse(x: QuaternionElement) -> QuaternionElement:
    n = nrd(x)
    if n == 0:
        raise ZeroDivisionError("element has reduced norm 0")
    return linalg.div(1, n) * canonical_involution(x)


@dataclass(frozen=True)
class OrthogonalInvolution:
    """The involution x -> s gamma(x) s^{-1} for a pure invertible quaternion s.

    Constructing one checks that s is pure and invertible; the result is an
    anti-automorphism of order 2 of orthogonal type (its space of symmetric
    elements is 3-dimensional).
    """

    s: QuaternionElement

    def __post_init__(self):
        if trd(self.s) != 0:
            raise ValueError("twisting element must be a pure quaternion")
        if nrd(self.s) == 0:
            raise ValueError("twisting element must be invertible")

    def apply(self, x: QuaternionElement) -> QuaternionElement:
        return self.s * canonical_involution(x) * inverse(self.s)

    def matrix(self) -> Matrix:
        alg = self.s.algebra
        cols = [self.apply(e).coords for e in alg.basis()]
        return linalg.transpose(linalg.matrix(cols))


def orthogonal_involution(s: QuaternionElement) -> OrthogonalInvolution:
    return OrthogonalInvolution(s)


def norm_form(q: QuaternionAlgebra) -> QuadraticForm:
    """The reduced norm as a quadratic form: the 2-fold Pfister form <<a, b>>."""
    a, b = q.a, q.b
    return QuadraticForm.from_diagonal([1, -a, -b, a * b])


def is_split(q: QuaternionAlgebra) -> bool:
    """True iff the algebra is 2x2 matrices, i.e. the symbol class is trivial."""
    return brauer_class_of_symbol(q.a, q.b).is_trivial


@dataclass(frozen=True)
class SplittingMap:
    """A unital algebra isomorphism onto 2x2 rational matrices.

    ``images`` lists the matrices of 1, i, j, k; the map preserves reduced
    trace (matrix trace) and reduced norm (determinant).
    """

    algebra: QuaternionAlgebra
    images: tuple[Matrix, Matrix, Matrix, Matrix]

    def apply(self, x: QuaternionElement) -> Matrix:
        if x.algebra != self.algebra:
            raise ValueError("element of a different algebra")
        out = [[0] * 2 for _ in range(2)]
        for c, m in zip(x.coords, self.images):
            if c != 0:
                for r in range(2):
                    for s in range(2):
                        out[r][s] += c * m[r][s]
        return tuple(tuple(row) for row in out)


def splitting_isomorphism(q: QuaternionAlgebra) -> SplittingMap:
    """Explicit isomorphism with M_2(Q), built from a norm-form zero.

    A zero divisor x (nrd(x) = 0) spans a 2-dimensional left ideal; left
    multiplication on that ideal is the 2-dimensional representation. The
    zero divisor is the first witness of the norm-form search, so the map is
    deterministic. The ideal's basis is in reduced echelon form, so the
    coordinates of g v are its entries at the pivot columns; recombining
    them into g v is the certificate that the ideal is invariant.
    """
    if not is_split(q):
        raise ValueError("algebra is not split")
    witness = next(isotropic_witnesses(norm_form(q)))
    x = q.element(witness)
    if nrd(x) != 0 or not any(x.coords):
        raise ValueError("norm-form witness is not a nonzero zero divisor")
    reduced, pivots = linalg.rref(linalg.matrix((g * x).coords for g in q.basis()))
    if len(reduced) != 2:
        raise CertificateError("left ideal of a zero divisor must have dimension 2")
    v1, v2 = (q.element(v) for v in reduced)

    def rep(g: QuaternionElement) -> Matrix:
        gvs = [(g * v1).coords, (g * v2).coords]
        m = linalg.matrix([[gv[p] for gv in gvs] for p in pivots])
        for (c1, c2), gv in zip(zip(*m), gvs):
            if gv != tuple(c1 * s + c2 * t for s, t in zip(v1.coords, v2.coords)):
                raise CertificateError("left ideal is not invariant")
        return m

    one_m = rep(q.one())
    i_m = rep(q.i())
    j_m = rep(q.j())
    k_m = linalg.mat_mul(i_m, j_m)
    if one_m != linalg.identity(2):
        raise CertificateError("unit does not map to the identity")
    if linalg.mat_mul(i_m, i_m) != ((q.a, 0), (0, q.a)):
        raise CertificateError("i relation fails")
    if linalg.mat_mul(j_m, j_m) != ((q.b, 0), (0, q.b)):
        raise CertificateError("j relation fails")
    if linalg.mat_mul(j_m, i_m) != tuple(tuple(-x for x in row) for row in k_m):
        raise CertificateError("anticommutation fails")
    return SplittingMap(q, (one_m, i_m, j_m, k_m))
