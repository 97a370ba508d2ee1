"""Quadratic forms over Q: diagonalization, classical invariants, isotropy,
Witt decomposition, Pfister constructions, and power-of-the-fundamental-ideal
/ scaled-Pfister membership tests.

All decisions are exact. Isotropy is decided by the local-global principle
(real signature plus finitely many p-adic conditions); explicit isotropic
vectors of a diagonalization come from conic descent in dimension 3 and
binary splitting (Serre, IV.3) above, without enumeration.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from . import linalg
from .arith import (
    BrauerClass,
    Place,
    brauer_class_of_symbol,
    factorize,
    hilbert_symbol,
    is_prime,
    rat,
    rat_str,
    sqrt_mod_prime,
    sqrt_rational,
    square_class,
    square_classes,
)
from .linalg import Matrix, Scalar, Vector

class DegenerateFormError(ValueError):
    """The Gram matrix is singular; only non-degenerate forms are supported."""


class CertificateError(RuntimeError):
    """An exact check on a constructed certificate failed."""


class WitnessSearchLimit(RuntimeError):
    """The isotropy decision is positive but the witness route found no zero:
    conic descent failed, or binary splitting passed its bound on q."""


# ---------------------------------------------------------------------------
# the form itself
# ---------------------------------------------------------------------------


class QuadraticForm:
    """A non-degenerate quadratic form over Q given by its symmetric Gram matrix.

    The diagonalization and the classical invariants are computed on first
    use and cached, not at construction; the constructor only rejects a
    singular Gram matrix. Instances are immutable and safe to share.
    """

    __slots__ = ("gram", "_diag", "_basis", "_sf_diag", "_sf_basis", "_invariants")

    def __init__(self, gram):
        g = linalg.matrix(gram)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        diagonal = True
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
                diagonal = diagonal and not g[i][j]
        # a diagonal Gram (``from_diagonal``) is singular iff an entry is 0
        if not all(g[i][i] for i in range(n)) if diagonal else linalg.det(g) == 0:
            raise DegenerateFormError("degenerate form rejected")
        self.gram = g
        self._diag = None
        self._basis = None
        self._sf_diag = None
        self._sf_basis = None
        self._invariants = None

    def _ensure_diagonal(self):
        if self._diag is None:
            self._diag, self._basis = _congruence_diagonalize(self.gram)

    def _ensure_squarefree(self):
        # scale basis vectors so the diagonal entries become squarefree
        # integers; computed lazily because the square classes need integer
        # factorizations, which consumers with explicit witnesses can avoid
        if self._sf_diag is not None:
            return
        self._ensure_diagonal()
        sf_diag, sf_cols = [], []
        cols = linalg.transpose(self._basis)
        for d, s, col in zip(self._diag, square_classes(self._diag), cols):
            t = sqrt_rational(linalg.div(d, s))
            sf_diag.append(s)
            sf_cols.append(linalg.vec_scale(linalg.div(1, t), col))
        self._sf_diag = tuple(sf_diag)
        self._sf_basis = linalg.transpose(linalg.matrix(sf_cols))

    @staticmethod
    def from_diagonal(entries: Sequence) -> "QuadraticForm":
        es = [rat(e) for e in entries]
        n = len(es)
        return QuadraticForm(
            [[es[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def dim(self) -> int:
        return len(self.gram)

    def evaluate(self, v: Sequence) -> Scalar:
        v = linalg.vector(v)
        return linalg.vec_dot(v, linalg.mat_vec(self.gram, v))

    def bilinear(self, u: Sequence, v: Sequence) -> Scalar:
        return linalg.vec_dot(linalg.vector(u), linalg.mat_vec(self.gram, linalg.vector(v)))

    def pairing(self, us: Sequence[Sequence], vs: Sequence[Sequence]) -> Matrix:
        """The matrix of b(u, v), u in ``us`` by row: one Gram product per v."""
        gvs = [linalg.mat_vec(self.gram, linalg.vector(v)) for v in vs]
        return tuple(
            tuple(linalg.vec_dot(u, gv) for gv in gvs) for u in map(linalg.vector, us)
        )

    def diagonal(self) -> tuple[Scalar, ...]:
        """Diagonal entries of a fixed diagonalization."""
        self._ensure_diagonal()
        return self._diag

    def diagonal_basis(self) -> Matrix:
        """P with P^T . gram . P diagonal (columns are the new basis)."""
        self._ensure_diagonal()
        return self._basis

    def squarefree_diagonal(self) -> tuple[int, ...]:
        self._ensure_squarefree()
        return self._sf_diag

    def squarefree_basis(self) -> Matrix:
        self._ensure_squarefree()
        return self._sf_basis

    def scale(self, c) -> "QuadraticForm":
        c = rat(c)
        if c == 0:
            raise ValueError("scaling by zero")
        return QuadraticForm([[c * x for x in row] for row in self.gram])

    def orthogonal_sum(self, other: "QuadraticForm") -> "QuadraticForm":
        n, m = self.dim, other.dim
        rows = []
        for i in range(n):
            rows.append(list(self.gram[i]) + [0] * m)
        for i in range(m):
            rows.append([0] * n + list(other.gram[i]))
        return QuadraticForm(rows)

    def restrict(self, vectors: Sequence[Sequence]) -> "QuadraticForm":
        """Gram of the form restricted to the span of the given vectors."""
        return QuadraticForm(self.pairing(vectors, vectors))

    def invariants(self) -> "FormInvariants":
        if self._invariants is None:
            self._invariants = diagonal_invariants(self.squarefree_diagonal())
        return self._invariants

    def to_json(self) -> dict:
        if all(
            self.gram[i][j] == 0
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        ):
            return {"diag": [rat_str(self.gram[i][i]) for i in range(self.dim)]}
        return {"gram": [[rat_str(x) for x in row] for row in self.gram]}

    @staticmethod
    def from_json(data: dict) -> "QuadraticForm":
        if "diag" in data:
            return QuadraticForm.from_diagonal(data["diag"])
        if "gram" in data:
            return QuadraticForm(data["gram"])
        raise ValueError("form JSON needs a 'diag' or 'gram' key")

    def __repr__(self):
        return f"QuadraticForm(dim={self.dim})"


def _round_div(a: int, b: int) -> int:
    """The integer nearest a / b, ties to even, as ``round`` rounds a Fraction."""
    if b < 0:
        a, b = -a, -b
    q, r = divmod(a, b)
    return q + (2 * r > b or 2 * r == b and q % 2)


def _form_reduce(gram: Matrix, basis: Sequence[Vector]) -> list[Vector]:
    """The vectors of ``_reduced_gram`` on G with its denominator cleared."""
    return _reduced_gram(linalg.integer_rows(gram)[0], basis)[0]


def _reduced_gram(g_int: list[list[int]], basis: Sequence[Vector]) -> tuple[list, list]:
    """Greedy indefinite reduction of lattice vectors by their form values.

    Repeatedly replaces b_j by b_j - t b_i whenever that strictly shrinks
    |q(b_j)|; against an isotropic b_i the translate is chosen to cancel the
    value through the cross term. ``g_int`` is an integer Gram matrix, D G
    for a rational G with denominator D, so values are integers and the
    strict decrease terminates. Keeping the |q(b)| small is what keeps
    diagonal entries factorable. The basis vectors must be integral.

    Returns the reduced vectors as int tuples, ordered by |value|, and their
    Gram matrix under ``g_int`` in that order: callers read values and cross
    terms (scaled by D) from it. It is computed once and kept current: a
    translate b_j -= t b_i changes only row and column j, by t times row i,
    and its new diagonal entry is the value the step already computed.
    """
    if any(x.denominator != 1 for v in basis for x in v):
        raise ValueError("form reduction needs integral basis vectors")
    work = [[x.numerator for x in v] for v in basis]
    m = len(work)
    gw = [linalg.mat_vec(g_int, v) for v in work]
    gm = [[linalg.vec_dot(u, gv) for gv in gw] for u in work]
    improved = True
    while improved:
        improved = False
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                bij = gm[i][j]
                vi, vj = gm[i][i], gm[j][j]
                if vi != 0:
                    t0 = _round_div(bij, vi)
                elif bij != 0:
                    t0 = _round_div(vj, 2 * bij)
                else:
                    continue
                best = None
                for t in (t0 - 1, t0, t0 + 1):
                    if t == 0:
                        continue
                    vv = vj - 2 * t * bij + t * t * vi
                    if abs(vv) < abs(vj) and (best is None or abs(vv) < abs(best[1])):
                        best = (t, vv)
                if best is not None:
                    t, vv = best
                    work[j] = [x - t * y for x, y in zip(work[j], work[i])]
                    row_i, row_j = gm[i], gm[j]
                    for k in range(m):
                        if k != j:
                            row_j[k] -= t * row_i[k]
                            gm[k][j] = row_j[k]
                    row_j[j] = vv
                    improved = True
    order = sorted(range(m), key=lambda t: (abs(gm[t][t]), work[t]))
    return [tuple(work[t]) for t in order], [[gm[a][b] for b in order] for a in order]


def _congruence_diagonalize(gram: Matrix) -> tuple[tuple[Scalar, ...], Matrix]:
    """Orthogonal basis of the form: returns (diag, P) with P^T G P = diag(diag).

    Works down a chain of orthogonal complements, form-reducing each
    complement basis before picking the vector of smallest nonzero value.
    Keeping the basis vectors short keeps the diagonal values (whose
    squarefree parts must be factored) at a manageable size, unlike plain
    symmetric elimination whose entries grow like minors of G. Values, cross
    terms and the pivot's functional (its Gram row) are read from the reduced
    Gram matrix, scaled by G's denominator D; scaling changes no comparison
    or rounded quotient, and each diagonal entry is divided by D once.
    """
    g_int, denom = linalg.integer_rows(gram)
    remaining = list(linalg.identity(len(gram)))
    cols: list[Vector] = []
    diag: list[Scalar] = []
    while remaining:
        basis, gm = _reduced_gram(g_int, remaining)
        values = [gm[t][t] for t in range(len(basis))]
        choices = [(abs(val), t) for t, val in enumerate(values) if val != 0]
        best = min(choices) if choices else None
        # hyperbolic pivot: near an isotropic vector z, q(w + (t+1) z) =
        # q(w) + 2(t+1) b(z, w) can be steered into [-|b|, |b|], which is a
        # Gram-entry size rather than a minor size; prefer it when smaller
        hyp = None
        for a, va in enumerate(values):
            if va != 0:
                continue
            for b, bz in enumerate(gm[a]):
                if bz == 0:
                    continue
                t = _round_div(-(values[b] + 2 * bz), 2 * bz)
                cand_val = values[b] + 2 * (t + 1) * bz
                if cand_val == 0:
                    cand_val = values[b] + 2 * (t + 2) * bz
                    t += 1
                if hyp is None or abs(cand_val) < abs(hyp[0]):
                    hyp = (cand_val, a, b, t + 1)
        if hyp is not None and (best is None or abs(hyp[0]) < best[0]):
            val, a, b, s = hyp
            v = linalg.vec_add(basis[b], linalg.vec_scale(s, basis[a]))
            row = [x + s * y for x, y in zip(gm[b], gm[a])]
        elif best is not None:
            val, v, row = values[best[1]], basis[best[1]], gm[best[1]]
        else:
            # all values and all cross terms vanish: totally degenerate
            # block; zero entries make the caller reject
            diag += [0] * len(basis)
            cols += basis
            break
        diag.append(linalg.div(val, denom))
        cols.append(v)
        # saturated, size-reduced complement of v inside the current lattice:
        # short vectors keep later diagonal values small
        remaining = linalg.functional_kernel(row, basis)
    return tuple(diag), linalg.transpose(linalg.matrix(cols))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormInvariants:
    """Complete set of invariants of a form over Q.

    ``hasse`` is the product of the pairwise Hilbert symbol classes of a
    diagonalization; ``clifford`` is the Brauer class of the Clifford algebra
    (even part in odd dimension), obtained from ``hasse`` by the standard
    dimension-mod-8 correction.
    """

    dim: int
    det_class: int
    disc: int
    hasse: BrauerClass
    clifford: BrauerClass
    signature: int

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "det_class": self.det_class,
            "disc": self.disc,
            "hasse": self.hasse.labels(),
            "clifford": self.clifford.labels(),
            "signature": self.signature,
        }


def diagonal_invariants(diag: Sequence[int]) -> FormInvariants:
    """Invariants of the form with the given squarefree integer diagonal.

    The Hasse class sums (d_i, d_j) over i < j. Symbol classes have order 2,
    so only the parity of each symbol's count matters: over the distinct
    values, (a, b) with a != b occurs m_a m_b times and (a, a) occurs
    m_a (m_a - 1) / 2 times.
    """
    n = len(diag)
    det = 1
    for d in diag:
        det *= d
    det_class = square_class(det)
    sign_factor = -1 if (n * (n - 1) // 2) % 2 else 1
    disc = square_class(sign_factor * det)
    counts = collections.Counter(diag)
    values = list(counts)
    hasse = BrauerClass.trivial()
    for i, a in enumerate(values):
        if counts[a] * (counts[a] - 1) // 2 % 2:
            hasse = hasse + brauer_class_of_symbol(a, a)
        for b in values[i + 1:]:
            if counts[a] * counts[b] % 2:
                hasse = hasse + brauer_class_of_symbol(a, b)
    clifford = hasse + _clifford_correction(n, det_class)
    signature = sum(1 if d > 0 else -1 for d in diag)
    return FormInvariants(n, det_class, disc, hasse, clifford, signature)


def _clifford_correction(n: int, det_class: int) -> BrauerClass:
    r = n % 8
    if r in (1, 2):
        return BrauerClass.trivial()
    if r in (3, 4):
        return brauer_class_of_symbol(-1, -det_class)
    if r in (5, 6):
        return brauer_class_of_symbol(-1, -1)
    return brauer_class_of_symbol(-1, det_class)


# ---------------------------------------------------------------------------
# Pfister forms
# ---------------------------------------------------------------------------


def pfister(slots: Sequence) -> QuadraticForm:
    """The 2^r-dimensional tensor product of the binary forms <1, -a_i>."""
    entries = [1]
    for a in slots:
        a = rat(a)
        if a == 0:
            raise ValueError("Pfister slot must be nonzero")
        entries = [e for e in entries] + [-a * e for e in entries]
    return QuadraticForm.from_diagonal(entries)


# ---------------------------------------------------------------------------
# isotropy: local-global decision plus explicit witnesses
# ---------------------------------------------------------------------------


def _is_local_square(x: int, p: int) -> bool:
    """Whether a nonzero integer is a square in the p-adic completion."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    if v % 2:
        return False
    if p == 2:
        return x % 8 == 1
    return pow(x % p, (p - 1) // 2, p) == 1


def _locally_isotropic_at(diag: Sequence[int], p: int) -> bool:
    """Rank 3 and 4 isotropy over Q_p via determinant and local Hasse symbol."""
    n = len(diag)
    place = Place.finite(p)
    det = 1
    for d in diag:
        det *= d
    eps = 1
    for i in range(n):
        for j in range(i + 1, n):
            eps *= hilbert_symbol(diag[i], diag[j], place)
    if n == 3:
        return hilbert_symbol(-1, -det, place) == eps
    if n == 4:
        if not _is_local_square(det, p):
            return True
        return eps == hilbert_symbol(-1, -1, place)
    raise ValueError("local test only used for ranks 3 and 4")


def _diag_decision(diag: Sequence[int]) -> bool:
    """Isotropy over Q of a form with squarefree integer diagonal."""
    n = len(diag)
    if n == 1:
        return False
    if n == 2:
        return square_class(-diag[0] * diag[1]) == 1
    pos = sum(1 for d in diag if d > 0)
    if pos == 0 or pos == n:
        return False  # definite
    if n >= 5:
        return True
    primes = {2}
    for d in diag:
        primes.update(p for p in factorize(d) if p != 2)
    return all(_locally_isotropic_at(diag, p) for p in sorted(primes))


def _isotropy_decision(q: QuadraticForm) -> bool:
    return _diag_decision(q.squarefree_diagonal())


def _lattice_mod_condition(basis: list[list[int]], w: Sequence[int], p: int) -> list[list[int]]:
    """Sublattice of span(basis) on which w . v == 0 (mod p)."""
    vals = [sum(wc * bc for wc, bc in zip(w, row)) % p for row in basis]
    pivot = next((k for k, v in enumerate(vals) if v), None)
    if pivot is None:
        return basis
    inv = pow(vals[pivot], -1, p)
    new = []
    for k, row in enumerate(basis):
        if k == pivot:
            continue
        f = vals[k] * inv % p
        new.append([rc - f * pc for rc, pc in zip(row, basis[pivot])])
    new.append([p * x for x in basis[pivot]])
    return new


def _conic_point(a: int, b: int, c: int) -> Optional[tuple[int, int, int]]:
    """Nonzero integer zero of a x^2 + b y^2 + c z^2 (squarefree coefficients).

    Lattice descent: congruence conditions modulo the odd primes of abc cut
    out a sublattice of Z^3 on which the form vanishes modulo those primes;
    reducing it against the definite companion form |a|x^2 + |b|y^2 + |c|z^2
    makes an exact zero appear among small combinations of the reduced basis.
    Returns None when the bounded search fails (in particular whenever the
    form is anisotropic).
    """
    if a == 0 or b == 0 or c == 0:
        return None
    if (a > 0) == (b > 0) == (c > 0):
        return None  # definite
    coefs = [a, b, c]
    g = math.gcd(math.gcd(a, b), c)
    if g > 1:
        return _conic_point(a // g, b // g, c // g)
    # transfer a factor shared by two coefficients onto the third variable
    for i, j in ((0, 1), (0, 2), (1, 2)):
        g = math.gcd(coefs[i], coefs[j])
        if g > 1:
            k = 3 - i - j
            new = list(coefs)
            new[i] //= g
            new[j] //= g
            new[k] *= g
            sol = _conic_point(*new)
            if sol is None:
                return None
            out = list(sol)
            out[k] *= g
            d = math.gcd(math.gcd(out[0], out[1]), out[2])
            return (out[0] // d, out[1] // d, out[2] // d)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if coefs[i] == -coefs[j]:
            v = [0, 0, 0]
            v[i] = v[j] = 1
            return (v[0], v[1], v[2])
    # one congruence condition per odd prime of a coefficient: modulo p | coefs[k]
    # the form degenerates to a binary form in the other two variables, whose
    # zeros lie on the lines v_i == +-t v_j (mod p)
    conds: list[tuple[int, int, int, int]] = []  # (p, i, j, t)
    forced: list[tuple[int, int]] = []  # (p, index forced to 0 mod p)
    for k in range(3):
        i, j = [m for m in range(3) if m != k]
        for p in factorize(coefs[k]):
            if p == 2:
                continue
            n_res = (-coefs[j]) * pow(coefs[i], -1, p) % p
            try:
                t = sqrt_mod_prime(n_res, p)
            except ValueError:
                forced.append((p, i))
                forced.append((p, j))
                continue
            conds.append((p, i, j, t))
    weights = [math.isqrt(abs(x)) + 1 for x in coefs]
    patterns = itertools.islice(itertools.product((1, -1), repeat=len(conds)), 128)
    for pattern in patterns:
        basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for (p, i, j, t), s in zip(conds, pattern):
            w = [0, 0, 0]
            w[i] = 1
            w[j] = (-s * t) % p
            basis = _lattice_mod_condition(basis, w, p)
        for p, idx in forced:
            w = [0, 0, 0]
            w[idx] = 1
            basis = _lattice_mod_condition(basis, w, p)
        scaled = [[x * wt for x, wt in zip(row, weights)] for row in basis]
        reduced = [
            [x // wt for x, wt in zip(row, weights)]
            for row in linalg.lll_reduce(scaled)
        ]
        for combo in itertools.product(range(-4, 5), repeat=3):
            if not any(combo):
                continue
            v = [
                sum(cf * row[m] for cf, row in zip(combo, reduced))
                for m in range(3)
            ]
            if sum(cv * vv * vv for cv, vv in zip(coefs, v)) == 0:
                d = math.gcd(math.gcd(v[0], v[1]), v[2])
                return (v[0] // d, v[1] // d, v[2] // d)
    return None


def _isotropic_subset(diag: Sequence[int]) -> Optional[list[int]]:
    """Indices of a small isotropic subform, or None to use all coordinates.

    Tries sign-mixed triples and quadruples (cheapest total size first) with
    the exact local decision; falls back to an indefinite quintuple, which is
    always isotropic.
    """
    n = len(diag)
    if n <= 3:
        return None
    order = sorted(range(n), key=lambda i: abs(diag[i]))
    for size in (3, 4):
        if size >= n:
            return None
        for combo in itertools.combinations(order, size):
            sub = [diag[i] for i in combo]
            if all(d > 0 for d in sub) or all(d < 0 for d in sub):
                continue
            if _diag_decision(sub):
                return sorted(combo)
    if n <= 5:
        return None
    pick = list(order[:5])
    if all(diag[i] > 0 for i in pick) or all(diag[i] < 0 for i in pick):
        want = diag[pick[0]] < 0  # need an entry of the opposite sign
        for i in order[5:]:
            if (diag[i] > 0) == want:
                pick[-1] = i
                break
    return sorted(pick)


# the primes q that binary splitting scans lie below this bound
_SPLIT_BOUND = 10**6


def _class_reps(p: int) -> tuple[int, ...]:
    """Integers representing every square class of Q_p^x."""
    if p == 2:
        return (1, 3, 5, 7, 2, 6, 10, 14)
    u = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) != 1)
    return (1, u, p, u * p)


def _split_point(diag: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Nonzero integer zero of an isotropic squarefree diagonal form, or None.

    The form has 3 to 5 entries. A ternary one is solved by conic descent,
    larger ones by binary splitting (Serre, *A Course in Arithmetic*,
    IV.3): <a_0, a_1> + rest is isotropic iff some t makes <a_0, a_1, -t> and
    rest + <t> both isotropic, and their zeros (x_0, x_1, z) and (y, w)
    combine into (w x_0, w x_1, z y). Here t = s q: the sign of s and its
    primes, among those of 2 a_0 ... a_n, give t a valuation that works at
    the real place and at each of those primes, and q is the first prime of
    a scan that also gives t a unit part that works there. No other place
    imposes a condition. None when conic descent fails or no q below
    ``_SPLIT_BOUND`` works.
    """
    n = len(diag)
    if n == 3:
        return _conic_point(*diag)
    a0, a1, rest = diag[0], diag[1], list(diag[2:])
    primes = sorted({2}.union(*map(factorize, diag)))
    s = 1 if max(a0, a1) > 0 and min(rest) < 0 else -1
    for p in primes:
        for r in _class_reps(p):
            if _locally_isotropic_at([a0, a1, -r], p) and _locally_isotropic_at(rest + [r], p):
                if r % p == 0:
                    s *= p
                break
        else:
            return None  # anisotropic at p
    odd_primes = (q for q in range(3, _SPLIT_BOUND, 2) if q not in primes and is_prime(q))
    for q in itertools.chain([1], odd_primes):
        t = s * q
        if not (_diag_decision([a0, a1, -t]) and _diag_decision(rest + [t])):
            continue
        x = _conic_point(a0, a1, -t)
        y = _split_point(rest + [t]) if x is not None else None
        if y is not None:
            break
    else:
        return None
    *y, w = y
    if x[2] == 0:  # <a_0, a_1> is isotropic by itself
        w = 1
    return (w * x[0], w * x[1], *(x[2] * c for c in y))


def _diag_witness(diag: Sequence[int]) -> tuple[int, ...]:
    """A nonzero integer zero of an isotropic squarefree diagonal form.

    Coordinates are non-negative (the value only depends on |x_i|). A
    complementary pair a, -a gives the zero at once; otherwise
    ``_split_point`` solves the isotropic subform ``_isotropic_subset``
    finds, or the whole form; WitnessSearchLimit when it finds none.
    """
    n = len(diag)
    for i, j in itertools.combinations(range(n), 2):
        if diag[i] == -diag[j]:
            v = [0] * n
            v[i] = v[j] = 1
            return tuple(v)
    idxs = _isotropic_subset(diag) or range(n)
    sub = [diag[i] for i in idxs]
    sol = _split_point(sub)
    if sol is None:
        raise WitnessSearchLimit(f"no isotropic vector found for the diagonal {sub}")
    v = [0] * n
    for pos, coord in zip(idxs, sol):
        v[pos] = abs(coord)
    return tuple(v)


def _cheap_zeros(q: QuadraticForm) -> Iterator[Vector]:
    """Zeros of q that need no search, cheapest first.

    First the standard basis vectors with a zero Gram diagonal entry, then the
    zero-valued vectors of a form-aware reduction of the standard lattice,
    which have small coordinates; their values are the diagonal of the
    reduced Gram matrix. An explicit zero is a proof of isotropy all by
    itself, with no appeal to the local-global decision and in particular no
    integer factorization.
    """
    units = list(linalg.identity(q.dim))
    for i, e in enumerate(units):
        if q.gram[i][i] == 0:
            yield e
    basis, gm = _reduced_gram(linalg.integer_rows(q.gram)[0], units)
    for t, v in enumerate(basis):
        if gm[t][t] == 0:
            yield v


def isotropic_witnesses(q: QuadraticForm) -> Iterator[tuple[int, ...]]:
    """Primitive integer vectors v (ambient coordinates) with q(v) == 0.

    The one isotropy route: empty iff q is anisotropic, endless otherwise
    (a binary form's stream ends with its two isotropic lines).
    First the cheap zeros and small combinations of them that stay isotropic.
    Without cheap zeros, a binary form is decided by a square root; any other
    by the local-global principle, and conic descent or binary splitting of
    its squarefree diagonal gives its first zero. The secant construction through
    the first zero then yields an unbounded deterministic stream covering
    many directions, so consumers that filter witnesses terminate quickly.
    """
    seen = set()
    zeros = []
    for v in _cheap_zeros(q):
        w = linalg.clear_denominators(v)
        if w not in seen:
            seen.add(w)
            zeros.append(v)
            yield w
    if len(zeros) >= 2:
        head = zeros[:4]
        for coeffs in itertools.product(range(-3, 4), repeat=len(head)):
            if sum(1 for c in coeffs if c) < 2:
                continue
            cand = linalg.zero_vector(q.dim)
            for c, v in zip(coeffs, head):
                if c:
                    cand = linalg.vec_add(cand, linalg.vec_scale(c, v))
            if q.evaluate(cand) != 0:
                continue
            w = linalg.clear_denominators(cand)
            if w not in seen:
                seen.add(w)
                yield w
    if zeros:
        base = linalg.clear_denominators(zeros[0])
    elif q.dim == 2:
        # binary: isotropic iff -a1*a2 is a square, and its root is the
        # witness -- no factorization needed either way
        d0, d1 = q.diagonal()
        try:
            t = sqrt_rational(linalg.div(-d0, d1))
        except ValueError:
            return
        v = linalg.mat_vec(q.diagonal_basis(), (1, linalg.scalar(t)))
        base = linalg.clear_denominators(v)
    elif not _isotropy_decision(q):
        return
    else:
        x = _diag_witness(q.squarefree_diagonal())
        v = linalg.mat_vec(q.squarefree_basis(), x)
        base = linalg.clear_denominators(v)
    if base not in seen:
        if q.evaluate(base) != 0:
            raise CertificateError("isotropic witness does not vanish")
        seen.add(base)
        yield base
    base_vec = linalg.vector(base)
    directions = _direction_stream(q.dim)
    if q.dim == 2:  # two isotropic lines: the secant through e1 or e2 is the other
        directions = itertools.islice(directions, 2)
    for z in directions:
        zb = q.bilinear(base_vec, z)
        qz = q.evaluate(z)
        candidate = linalg.vec_sub(
            linalg.vec_scale(qz, base_vec), linalg.vec_scale(2 * zb, z)
        )
        if linalg.is_zero_vector(candidate):
            continue
        w = linalg.clear_denominators(candidate)
        if w not in seen:
            seen.add(w)
            if q.evaluate(w) != 0:
                raise CertificateError("secant witness does not vanish")
            yield w


def _direction_stream(n: int) -> Iterator[Vector]:
    """Deterministic endless supply of small integer direction vectors."""
    for i in range(n):
        v = [0] * n
        v[i] = 1
        yield linalg.vector(v)
    for i in range(n):
        for j in range(i + 1, n):
            for sj in (1, -1):
                v = [0] * n
                v[i], v[j] = 1, sj
                yield linalg.vector(v)
    rng = random.Random(0x15C)
    while True:
        yield linalg.vector([rng.randint(-3, 3) for _ in range(n)])


@dataclass(frozen=True)
class IsotropyResult:
    isotropic: bool
    witness: Optional[tuple[int, ...]]

    def __bool__(self):
        return self.isotropic


def is_isotropic(q: QuadraticForm) -> IsotropyResult:
    """Decide isotropy over Q and, when isotropic, produce an explicit zero.

    The first element of ``isotropic_witnesses(q)``, which is empty exactly
    when q is anisotropic; WitnessSearchLimit when the witness route finds
    no first witness of an isotropic q.
    """
    witness = next(isotropic_witnesses(q), None)
    return IsotropyResult(witness is not None, witness)


# ---------------------------------------------------------------------------
# Witt decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WittDecomposition:
    witt_index: int
    hyperbolic_basis: tuple[tuple[Vector, Vector], ...]
    anisotropic_basis: tuple[Vector, ...]

    def to_json(self) -> dict:
        return {
            "witt_index": self.witt_index,
            "hyperbolic_basis": [
                [[rat_str(x) for x in u], [rat_str(x) for x in v]]
                for u, v in self.hyperbolic_basis
            ],
            "anisotropic_basis": [
                [rat_str(x) for x in v] for v in self.anisotropic_basis
            ],
        }


def witt_decompose(q: QuadraticForm) -> WittDecomposition:
    """Split off hyperbolic planes until the residual form is anisotropic.

    Every emitted pair (u, v) satisfies q(u) = q(v) = 0 and b(u, v) = 1
    exactly, pairs are mutually orthogonal, and the anisotropic block is
    certified by the local-global isotropy decision. The first step decides
    on q itself and so reuses its cached diagonalization. Planes are built
    and checked in integers, on D G (denominator D cleared): a partner p with
    c = b(u, p) != 0 gives V = 2c p - q(p) u with q(V) = 0, b(u, V) = den =
    2c^2 and v = D V / den; the rows D G u and D G V cut out the complement.
    """
    n = q.dim
    g_int, denom = linalg.integer_rows(q.gram)
    current: list[Vector] = list(linalg.identity(n))
    pairs: list[tuple[Vector, Vector]] = []
    while current:
        res = is_isotropic(q.restrict(current) if pairs else q)
        if not res.isotropic:
            break
        # lift the witness from subspace coordinates to ambient ones
        u = linalg.zero_vector(n)
        for c, vec in zip(res.witness, current):
            if c:
                u = linalg.vec_add(u, linalg.vec_scale(c, vec))
        gu = linalg.mat_vec(g_int, u)
        c, partner = next((c, p) for p in current if (c := linalg.vec_dot(gu, p)))
        qp = linalg.vec_dot(partner, linalg.mat_vec(g_int, partner))
        big_v = tuple(2 * c * x - qp * y for x, y in zip(partner, u))
        gv, den = linalg.mat_vec(g_int, big_v), 2 * c * c
        if linalg.vec_dot(u, gu) or linalg.vec_dot(big_v, gv) or linalg.vec_dot(gu, big_v) != den:
            raise CertificateError("split-off plane is not hyperbolic")
        pairs.append((u, tuple(linalg.div(denom * x, den) for x in big_v)))
        # orthogonal complement of the plane inside the current subspace,
        # kept as a saturated size-reduced integer lattice basis
        current = linalg.saturated_constrained_lattice([gu, gv], lattice=current)
    return WittDecomposition(len(pairs), tuple(pairs), tuple(current))


def witt_from_lagrangian(q: QuadraticForm, lagrangian: Sequence[Vector]) -> WittDecomposition:
    """Witt decomposition of a form with an explicit Lagrangian, search-free.

    Dual vectors are obtained by solving b(l_i, m_j) = delta_ij linearly and
    then corrected -- inside the Lagrangian, which costs nothing -- first to
    be isotropic and then to be orthogonal to the other pairs. Every exactness
    condition is checked; a failure raises CertificateError.
    """
    n = q.dim
    half = [linalg.vector(v) for v in lagrangian]
    if 2 * len(half) != n:
        raise ValueError("not a Lagrangian: wrong dimension")
    for a in half:
        for b in half:
            if q.bilinear(a, b) != 0:
                raise ValueError("not a Lagrangian: form does not vanish")
    rows = linalg.matrix([linalg.mat_vec(q.gram, l) for l in half])
    duals: list[Vector] = []
    for j in range(len(half)):
        target = [1 if i == j else 0 for i in range(len(half))]
        m = linalg.solve(rows, target)
        if m is None:
            raise CertificateError("non-degenerate form must have dual vectors")
        m = linalg.vec_sub(m, linalg.vec_scale(linalg.div(q.evaluate(m), 2), half[j]))
        for i, prev in enumerate(duals):
            m = linalg.vec_sub(m, linalg.vec_scale(q.bilinear(m, prev), half[i]))
        duals.append(m)
    pairs = []
    for i, (u, v) in enumerate(zip(half, duals)):
        if q.evaluate(u) != 0 or q.evaluate(v) != 0 or q.bilinear(u, v) != 1:
            raise CertificateError(f"pair {i} is not a hyperbolic plane")
        for k in range(i):
            if q.bilinear(u, duals[k]) or q.bilinear(v, duals[k]) or q.bilinear(v, half[k]):
                raise CertificateError(f"pairs {k} and {i} are not orthogonal")
        pairs.append((u, v))
    return WittDecomposition(len(pairs), tuple(pairs), tuple())


def is_hyperbolic(q: QuadraticForm) -> bool:
    """True iff q is an orthogonal sum of hyperbolic planes.

    Decided through the complete invariant set over Q: even dimension,
    trivial signed discriminant, signature zero, and the Hasse class of the
    corresponding sum of hyperbolic planes.
    """
    if q.dim % 2:
        return False
    inv = q.invariants()
    model = diagonal_invariants((1, -1) * (q.dim // 2))
    return (
        inv.disc == model.disc
        and inv.signature == 0
        and inv.hasse == model.hasse
    )


def is_isometric(q1: QuadraticForm, q2: QuadraticForm) -> bool:
    """Isometry over Q via the complete invariant set (dim, disc, Hasse, signature)."""
    a, b = q1.invariants(), q2.invariants()
    return (
        a.dim == b.dim
        and a.disc == b.disc
        and a.hasse == b.hasse
        and a.signature == b.signature
    )


# ---------------------------------------------------------------------------
# fundamental-ideal filtration and scaled Pfister recognition (over Q)
# ---------------------------------------------------------------------------


def in_I_n(q: QuadraticForm, n: int) -> bool:
    """Membership of the Witt class in the n-th power of the fundamental ideal.

    Valid over Q only: for n = 4 the signature condition replaces the (not
    algorithmic) general criterion.
    """
    if n not in (1, 2, 3, 4):
        raise ValueError("n must be between 1 and 4")
    inv = q.invariants()
    if inv.dim % 2:
        return False
    if n >= 2 and inv.disc != 1:
        return False
    if n >= 3 and not inv.clifford.is_trivial:
        return False
    if n == 4 and inv.signature % 16:
        return False
    return True


def in_GP_r(q: QuadraticForm, r: int) -> bool:
    """True iff q is similar to an r-fold Pfister form (classification over Q)."""
    if r not in (1, 2, 3, 4):
        raise ValueError("r must be between 1 and 4")
    inv = q.invariants()
    if inv.dim != 2**r:
        return False
    if r == 1:
        return True
    if inv.disc != 1:
        return False
    if r == 2:
        return True
    if not inv.clifford.is_trivial:
        return False
    if r == 3:
        return True
    return inv.signature in (0, 16, -16)
