"""Certified pipeline for products of four quaternion algebras with involution.

Builds the degree-4 algebra D = Q1 (x) Q2 with its canonical tensor
involution, produces a symmetric trace-zero element u of square reduced
norm, forms the 16-dimensional trace form q_u(x) = Trd(x u gamma(x)), and
verifies exactly that the result is hyperbolic (with an explicit totally
isotropic subspace of dimension at least 5 and Witt index 8) or, in the
definite case, similar to a 4-fold multiplicative form. Every identity is
checked in rational arithmetic with zero tolerance.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import csa, linalg, qform
from .arith import rat, rat_str, sqrt_rational
from .csa import InvolutionAlgebra
from .linalg import Scalar, Vector
from .qform import CertificateError, QuadraticForm
from .quat import QuaternionAlgebra

VERSION = "0.1.0"

SYMBOL_POOL = (1, -1, 2, -2, 3, -3, 5, -5, 7, -7, 11, -11)
COORD_RANGE = 3
LAMBDA_POOL = (1, -1, 2, -2)


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    """Input data: two quaternion symbols, an invertible c in D, a scalar, a seed."""

    q1: QuaternionAlgebra
    q2: QuaternionAlgebra
    c: Vector
    lam: Scalar
    seed: int

    def to_json(self) -> dict:
        return {
            "q1": self.q1.to_json(),
            "q2": self.q2.to_json(),
            "c": [rat_str(x) for x in self.c],
            "lambda": rat_str(self.lam),
            "seed": self.seed,
        }

    @staticmethod
    def from_json(data: dict) -> "Scenario":
        return Scenario(
            QuaternionAlgebra.from_json(data["q1"]),
            QuaternionAlgebra.from_json(data["q2"]),
            linalg.vector(data["c"]),
            rat(data["lambda"]),
            int(data["seed"]),
        )


@functools.lru_cache(maxsize=64)
def build_D(q1: QuaternionAlgebra, q2: QuaternionAlgebra) -> InvolutionAlgebra:
    """The 16-dimensional tensor product with the product of canonical involutions."""
    return csa.tensor(
        csa.from_quaternion(q1, "canonical"), csa.from_quaternion(q2, "canonical")
    )


# e_s (x) 1 in the tensor basis of D: Q1 (x) 1, totally isotropic for q_u when Trd(u) = 0
Q1_BASIS = tuple(tuple(1 if t == 4 * s else 0 for t in range(16)) for s in range(4))


def _embed_tensor(x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
    return tuple(a * b for a in linalg.vector(x) for b in linalg.vector(y))


@dataclass(frozen=True)
class UElement:
    """A gamma-symmetric trace-zero element with square reduced norm, validated."""

    d: InvolutionAlgebra
    coords: Vector

    def __post_init__(self):
        alg, g = self.d.algebra, self.d.sigma
        if g.apply(self.coords) != self.coords:
            raise ScenarioError("u must be symmetric under the involution")
        if alg.trd(self.coords) != 0:
            raise ScenarioError("u must have reduced trace zero")
        n = alg.nrd(self.coords)
        try:
            sqrt_rational(n)
        except ValueError:
            raise ScenarioError(f"reduced norm {n} of u is not a square")
        if n == 0:
            raise ScenarioError("u must be invertible")


def q_u_form(d: InvolutionAlgebra, u: Sequence[Scalar]) -> QuadraticForm:
    """The trace form q_u(x) = Trd(x u gamma(x)) on the 16 basis coordinates.

    M[s][t] = Trd(e_s u gamma(e_t)) is the algebra's trace form applied to
    the columns u gamma(e_t), and the Gram matrix is (M + M^T)/2.
    """
    alg, g = d.algebra, d.sigma
    right = [alg.mul(u, g.apply(alg.basis_vector(t))) for t in range(alg.dim)]
    m = [[linalg.vec_dot(row, r) for r in right] for row in alg.trace_form()]
    return QuadraticForm(
        [[linalg.div(m[s][t] + m[t][s], 2) for t in range(alg.dim)] for s in range(alg.dim)]
    )


def scalar_trace_form(d: InvolutionAlgebra, mu: Scalar) -> QuadraticForm:
    """q_mu(x) = mu Trd(x gamma(x)), the trace form of the scalar mu.

    The tensor basis of D is orthogonal for the trace form of a tensor
    product of involutions (KMRT, *The Book of Involutions*, 11), so the
    form is the diagonal <mu Trd(e_t gamma(e_t))>, with the Gram matrix of
    ``q_u_form`` at u = mu 1.
    """
    alg, g = d.algebra, d.sigma
    return QuadraticForm.from_diagonal(
        [mu * alg.trd(alg.mul(e, g.apply(e))) for e in map(alg.basis_vector, range(alg.dim))]
    )


class AnisotropicU(RuntimeError):
    """Raised when q_{u0} is anisotropic, routing the caller to the definite branch.

    Carries u0 and the diagonal form q_small that ``make_u`` certified to be
    isometric to q_{u0}.
    """

    def __init__(self, u0: Vector, q_small: QuadraticForm):
        super().__init__("trace form of the unnormalized element is anisotropic")
        self.u0 = u0
        self.q_small = q_small


def make_u(s: Scenario) -> tuple[UElement, Vector]:
    """Produce the validated u and the normalizing element y (u = y u0 gamma(y)).

    u0 = lambda (c gamma(c))^{-1} is symmetric with square reduced norm; if its
    trace is nonzero it is normalized through an invertible isotropic vector of
    its trace form. Raises AnisotropicU when no such vector exists.

    Every verdict downstream is invariant under scaling u by a nonzero
    rational (the trace form scales, which changes no Witt-theoretic
    conclusion, and the commutation identities are linear in u), so u0 is
    rescaled by Nrd(c gamma(c)) -- a square -- to have integer entries, and
    the normalized u is reduced to a primitive integer vector.

    The identity u0 c gamma(c) = mu, checked on all coordinates, gives
    gamma(c) u0 c = mu, so right multiplication by gamma(c) carries
    q_{u0} exactly onto q_small(x) = mu Trd(x gamma(x)), a diagonal form
    with tiny entries (``scalar_trace_form``). The normalizing witness z is
    searched on q_small, so z -- and with it y = z gamma(c) and
    u = y u0 gamma(y), a scalar times z gamma(z) -- stays small. Keeping u
    small is what keeps the diagonal of its trace form factorable later.
    """
    d = build_D(s.q1, s.q2)
    alg, g = d.algebra, d.sigma
    if len(s.c) != alg.dim:
        raise ScenarioError(f"c must have {alg.dim} coordinates, got {len(s.c)}")
    if not alg.is_invertible(s.c):
        raise ScenarioError("c must be invertible")
    if s.lam == 0:
        raise ScenarioError("lambda must be nonzero")
    cgc = alg.mul(s.c, g.apply(s.c))
    # Nrd(c gamma(c)) (c gamma(c))^{-1} is the adjugate: D has degree 4
    u0 = tuple(s.lam * x for x in alg.adjugate(cgc))
    if any(x.denominator != 1 for x in u0):
        raise ScenarioError("Nrd(c gamma(c)) (c gamma(c))^{-1} is not integral")
    content = 0
    for x in u0:
        content = math.gcd(content, x.numerator)
    u0 = tuple(x.numerator // content for x in u0)
    if g.apply(u0) != u0:
        raise ScenarioError("u0 is not symmetric under the involution")
    if alg.trd(u0) == 0:
        return UElement(d, u0), alg.unit
    prod = alg.mul(u0, cgc)
    mu = prod[0]
    if prod != alg.scalar(mu):
        raise ScenarioError("u0 c gamma(c) is not a scalar")
    q_small = scalar_trace_form(d, mu)
    # a nonempty stream is endless: it ends only when q_small is anisotropic
    for w in qform.isotropic_witnesses(q_small):
        z = linalg.vector(w)
        if alg.is_invertible(z):
            break
    else:
        raise AnisotropicU(u0, q_small)
    y = alg.mul(z, g.apply(s.c))
    u = alg.mul(alg.mul(y, u0), g.apply(y))
    # UElement checks Trd(u) = q_{u0}(y) = 0: y is isotropic for q_{u0}
    return UElement(d, linalg.clear_denominators(u)), y


# ---------------------------------------------------------------------------
# the three totally-isotropic-subspace checks
# ---------------------------------------------------------------------------


def _isotropy_failures(q: QuadraticForm, vectors: Sequence[Vector], tag: str) -> list[str]:
    """One failure per pair a <= b of the vectors on which the polar form of q is not 0.

    The polar form is symmetric, so the pairs a <= b decide total isotropy.
    """
    pairs = q.pairing(vectors, vectors)
    return [
        f"{tag}: form does not vanish on pair ({a},{b})"
        for a in range(len(vectors))
        for b in range(a, len(vectors))
        if pairs[a][b] != 0
    ]


def check_claim_1(d: InvolutionAlgebra, z: Vector, qz: QuadraticForm) -> list[str]:
    """The first tensor factor is totally isotropic for the trace form of z.

    Checks the full 4x4 Gram block on Q1 (x) 1 and the vanishing of Trd(x z)
    for x running over the embedded basis of the first factor.
    """
    alg = d.algebra
    failures = [
        f"claim1: Trd(e{a} z) != 0"
        for a, e in enumerate(Q1_BASIS)
        if alg.trd(alg.mul(e, z)) != 0
    ]
    return failures + _isotropy_failures(qz, Q1_BASIS, "claim1")


def w_subspace(
    s: Scenario,
    d: InvolutionAlgebra,
    u: UElement,
    y: Vector,
    q_pure: Sequence[Scalar],
    c_adj: Vector,
    gy_adj: Vector,
) -> list[Vector]:
    """The 3-dimensional subspace W_q attached to a pure quaternion q of Q2.

    W_q is the conjugate by c of {x (x) q : x pure in Q1}, transported through
    the normalization by conjugation with gamma(y). Each basis element w is
    checked to satisfy gamma(w) u = u w and w^2 scalar. ``c_adj`` and
    ``gy_adj`` are the adjugates of c and gamma(y), shared by every q: they
    stand in for the inverses, so each w is Nrd(c) Nrd(gamma(y)) times the
    conjugate, which spans the same line and passes the same checks.
    """
    alg, g = d.algebra, d.sigma
    q_pure = linalg.vector(q_pure)
    if q_pure[0] != 0 or linalg.is_zero_vector(q_pure):
        raise ScenarioError("q must be a nonzero pure quaternion")
    gy = g.apply(y)
    basis = []
    for t in range(1, 4):
        x = [0] * 4
        x[t] = 1
        w0 = alg.mul(alg.mul(s.c, _embed_tensor(x, q_pure)), c_adj)
        w = alg.mul(alg.mul(gy_adj, w0), gy)
        lhs = alg.mul(g.apply(w), u.coords)
        rhs = alg.mul(u.coords, w)
        if lhs != rhs:
            raise ScenarioError("commutation identity gamma(w) u = u w fails")
        csa._scalar_of(alg, alg.mul(w, w))  # raises if w^2 is not scalar
        basis.append(w)
    if linalg.rank(linalg.matrix(basis)) != 3:
        raise ScenarioError("W_q is not 3-dimensional")
    return basis


def check_claim_2(
    d: InvolutionAlgebra, w_basis: Sequence[Vector], qu: QuadraticForm
) -> list[str]:
    """gamma(W_q) is totally isotropic for q_u.

    Its pairs (a, a) are q_u(gamma(w)) = w^2 Trd(u), with w^2 a scalar
    (``w_subspace``) and Trd(u) = 0 (``UElement``), so they need no test of
    their own.
    """
    return _isotropy_failures(qu, [d.sigma.apply(w) for w in w_basis], "claim2")


def build_V_q(
    d: InvolutionAlgebra, u: UElement, w_basis: Sequence[Vector], qu: QuadraticForm
) -> list[Vector]:
    """A deterministic 2-dimensional subspace of T intersected with gamma(W_q).

    T is the kernel of f(z) = Trd(u gamma(z)). That is the polar form
    b_u(1, z) of q_u, since Trd(z u) = Trd(gamma(z u)) = Trd(u gamma(z)) for
    symmetric u; f is nonzero, so T is 15-dimensional and the cut of the
    3-dimensional gamma(W_q) keeps dimension at least 2. The cut is
    {sum a_i gamma(w_i) : sum a_i f(gamma(w_i)) = 0}, a kernel in 3
    variables; the result is the first two rows of its reduced-echelon basis.
    """
    alg, g = d.algebra, d.sigma
    functional = linalg.mat_vec(qu.gram, alg.unit)
    if not any(functional):
        raise ScenarioError("trace functional kernel is not 15-dimensional")
    gw = [g.apply(w) for w in w_basis]
    cols = linalg.transpose(gw)
    relations = linalg.nullspace((tuple(linalg.vec_dot(functional, z) for z in gw),))
    meet = linalg.row_space_basis([linalg.mat_vec(cols, a) for a in relations])
    if len(meet) < 2:
        raise ScenarioError("T meets gamma(W_q) in dimension < 2")
    v_basis = meet[:2]
    for z in v_basis:
        if alg.trd(alg.mul(u.coords, g.apply(z))) != 0:
            raise ScenarioError("V_q is not inside the trace functional's kernel")
    return [linalg.vector(z) for z in v_basis]


def check_claim_3_and_assemble(
    s: Scenario,
    d: InvolutionAlgebra,
    u: UElement,
    y: Vector,
    qu: QuadraticForm,
) -> tuple[list[Vector], list[str]]:
    """A totally isotropic subspace of dimension >= 5 containing the first factor.

    Uses V_q for q = i of Q2; when that subspace falls inside the first
    factor, an independent pure quaternion q' = j is adjoined. Returns the
    echelonized basis and the list of violated identities (empty on success).
    """
    failures: list[str] = []
    alg = d.algebra
    c_adj = alg.adjugate(s.c)
    gy_adj = alg.adjugate(d.sigma.apply(y))
    span = list(Q1_BASIS)
    for pure in ([0, 1, 0, 0], [0, 0, 1, 0]):
        w_basis = w_subspace(s, d, u, y, pure, c_adj, gy_adj)
        failures += check_claim_2(d, w_basis, qu)
        v_basis = build_V_q(d, u, w_basis, qu)
        span = linalg.row_space_basis(span + v_basis)
        if len(span) >= 5:
            break
    if len(span) < 5:
        failures.append("claim3: assembled subspace has dimension < 5")
    # the integer multiples of the rows: a zero test does not see the scale
    ints = [linalg.clear_denominators(v) for v in span]
    failures += _isotropy_failures(qu, ints, "claim3")
    return [linalg.vector(v) for v in span], failures


def extend_to_lagrangian(q: QuadraticForm, basis: Sequence[Vector]) -> list[Vector]:
    """Grow a totally isotropic subspace of a hyperbolic form to half dimension.

    At each step the form restricted to a complement of the span inside its
    orthogonal is again isotropic (its Witt index is half-dimension minus the
    current size), so a witness lifts to a new isotropic vector orthogonal to
    everything collected so far. The result is totally isotropic by
    construction; ``check_lagrangian`` certifies it. Raises CertificateError
    when a step shows that q is not hyperbolic.

    The saturated orthogonal lattice is carried from step to step: each new
    vector imposes only its own constraint on the previous one, which is the
    lattice that imposing all constraints on Z^n one at a time would give.
    """
    n = q.dim
    if n % 2:
        raise CertificateError("odd-dimensional form has no Lagrangian")
    span = [linalg.clear_denominators(v) for v in linalg.row_space_basis(basis)]
    perp = list(linalg.identity(n))
    new = list(span)  # the vectors whose constraints perp does not carry yet
    while len(span) < n // 2:
        # the induced form on (span-orthogonal)/span: its values do not
        # depend on the span component, so any orthogonal vectors that are
        # independent modulo span carry it -- and the orthogonal lattice has
        # small reduced vectors, unlike a lattice that is also forced to be
        # Euclidean-orthogonal to the span
        perp = linalg.saturated_constrained_lattice(
            [linalg.mat_vec(q.gram, v) for v in new], lattice=perp
        )
        target = n - 2 * len(span)
        quot = linalg.independent_extension(span, perp, target)
        if len(quot) != target:
            raise CertificateError("orthogonal does not surject onto the quotient")
        res = qform.is_isotropic(q.restrict(quot))
        if not res.isotropic:
            raise CertificateError("form is not hyperbolic: anisotropic complement")
        new = [linalg.clear_denominators(linalg.mat_vec(linalg.transpose(quot), res.witness))]
        span.append(new[0])
    return span


def certify_witt_index(
    q: QuadraticForm, basis: Optional[Sequence[Vector]]
) -> tuple[int, Optional[list[Vector]], list[str]]:
    """(Witt index, Lagrangian or None, failures of ``check_lagrangian``) of q.

    The Lagrangian is grown from the totally isotropic ``basis`` (None: none
    known); once checked it certifies index dim/2 alone. Without one,
    ``witt_decompose`` computes the index.
    """
    lagrangian, failures = None, []
    if basis is not None:
        try:
            lagrangian = extend_to_lagrangian(q, basis)
        except (CertificateError, qform.WitnessSearchLimit):
            pass
        else:
            failures = check_lagrangian(q, lagrangian)
            if not failures:
                return q.dim // 2, lagrangian, failures
    return qform.witt_decompose(q).witt_index, lagrangian, failures


def check_lagrangian(q: QuadraticForm, lagrangian: Sequence[Vector]) -> list[str]:
    """The vectors span a totally isotropic subspace of half the dimension of q.

    A totally isotropic subspace of a nondegenerate form has at most half its
    dimension, so passing this check certifies q hyperbolic (Witt index
    dim/2) by itself.
    """
    failures = []
    if linalg.rank(linalg.matrix(lagrangian)) != q.dim // 2:
        failures.append("lagrangian: rank is not half the dimension")
    return failures + _isotropy_failures(q, lagrangian, "lagrangian")


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------


@dataclass
class ScenarioReport:
    scenario: Scenario
    u: Vector
    trace_zero: bool
    branch: str
    invariants: dict
    in_cubic_ideal: bool
    witt_index: Optional[int] = None
    isotropic_subspace: Optional[list[Vector]] = None
    lagrangian: Optional[list[Vector]] = None
    gp4: Optional[bool] = None
    failures: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def to_json(self) -> dict:
        scenario_json = self.scenario.to_json()
        blob = json.dumps(scenario_json, sort_keys=True).encode()
        out = {
            "version": VERSION,
            "input_sha256": hashlib.sha256(blob).hexdigest(),
            "scenario": scenario_json,
            "u": [rat_str(x) for x in self.u],
            "trace_zero": self.trace_zero,
            "branch": self.branch,
            "form_invariants": self.invariants,
            "in_cubic_ideal": self.in_cubic_ideal,
            "verdict": self.verdict,
            "failures": list(self.failures),
        }
        if self.witt_index is not None:
            out["witt_index"] = self.witt_index
        if self.isotropic_subspace is not None:
            out["isotropic_subspace"] = [
                [rat_str(x) for x in v] for v in self.isotropic_subspace
            ]
        if self.lagrangian is not None:
            out["lagrangian"] = [[rat_str(x) for x in v] for v in self.lagrangian]
        if self.gp4 is not None:
            out["gp4"] = self.gp4
        return out

    def summary_line(self) -> str:
        dim = len(self.isotropic_subspace) if self.isotropic_subspace else "-"
        wi = self.witt_index if self.witt_index is not None else "-"
        return (
            f"seed={self.scenario.seed:<6} branch={self.branch:<16} "
            f"witt={wi:<3} subspace_dim={dim:<3} verdict={self.verdict}"
        )


def run_scenario(s: Scenario) -> ScenarioReport:
    """Execute the full pipeline on one scenario and aggregate every exact check."""
    d = build_D(s.q1, s.q2)
    failures: list[str] = []
    try:
        u, y = make_u(s)
    except AnisotropicU as exc:
        return _definite_branch(s, d, exc.u0, exc.q_small)
    qu = q_u_form(d, u.coords)
    failures += check_claim_1(d, u.coords, qu)
    subspace, claim_failures = check_claim_3_and_assemble(s, d, u, y, qu)
    failures += claim_failures
    witt_index, lagrangian, lagrangian_failures = certify_witt_index(
        qu, None if claim_failures else subspace
    )
    failures += lagrangian_failures
    if witt_index == 8:
        # q_u is hyperbolic, so its invariants are those of the split model
        # and membership in the cubic ideal is automatic -- no factoring of
        # the huge diagonal needed
        inv = qform.diagonal_invariants((1, -1) * 8)
        in_i3 = True
    else:
        failures.append(f"witt: index {witt_index} != 8")
        inv = qu.invariants()
        in_i3 = qform.in_I_n(qu, 3)
        if not in_i3:
            failures.append("invariants: trace form is not in the cubic ideal")
    return ScenarioReport(
        scenario=s,
        u=u.coords,
        trace_zero=True,
        branch="hyperbolic",
        invariants=inv.to_json(),
        in_cubic_ideal=in_i3,
        witt_index=witt_index,
        isotropic_subspace=subspace,
        lagrangian=lagrangian,
        failures=failures,
    )


def _definite_branch(
    s: Scenario, d: InvolutionAlgebra, u0: Vector, qu: QuadraticForm
) -> ScenarioReport:
    """Invariants, I^3 and GP_4 membership of q_{u0}, read off the isometric ``qu``."""
    failures: list[str] = []
    inv = qu.invariants()
    in_i3 = qform.in_I_n(qu, 3)
    if not in_i3:
        failures.append("invariants: trace form is not in the cubic ideal")
    gp4 = qform.in_GP_r(qu, 4)
    if not gp4:
        failures.append("definite branch: trace form is not similar to a 4-fold multiplicative form")
    return ScenarioReport(
        scenario=s,
        u=u0,
        trace_zero=d.algebra.trd(u0) == 0,
        branch="definite-pfister",
        invariants=inv.to_json(),
        in_cubic_ideal=in_i3,
        gp4=gp4,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# sampling and batches
# ---------------------------------------------------------------------------


def sample_scenario(seed: int) -> Scenario:
    """Deterministic scenario from a seed: small symbols, small invertible c."""
    rng = random.Random(seed)
    q1 = QuaternionAlgebra(rng.choice(SYMBOL_POOL), rng.choice(SYMBOL_POOL))
    q2 = QuaternionAlgebra(rng.choice(SYMBOL_POOL), rng.choice(SYMBOL_POOL))
    d = build_D(q1, q2)
    while True:
        c = linalg.vector(
            [rng.randint(-COORD_RANGE, COORD_RANGE) for _ in range(16)]
        )
        if d.algebra.is_invertible(c):
            break
    lam = rng.choice(LAMBDA_POOL)
    return Scenario(q1, q2, c, lam, seed)


def run_batch(count: int, seed: int) -> list[ScenarioReport]:
    """Reports for the scenarios with seeds seed .. seed + count - 1, in order."""
    return [run_scenario(sample_scenario(seed + k)) for k in range(count)]
