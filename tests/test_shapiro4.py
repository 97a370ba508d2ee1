"""End-to-end scenarios: the sixteen-dimensional trace form attached to a
product of two quaternion algebras is hyperbolic (or definite multiplicative),
certified by explicit totally isotropic subspaces."""

import json
import time
from fractions import Fraction

import pytest

from pfisterinv import linalg, qform, shapiro4
from pfisterinv.quat import QuaternionAlgebra
from pfisterinv.shapiro4 import (
    Scenario,
    ScenarioError,
    UElement,
    build_D,
    check_claim_1,
    make_u,
    q_u_form,
    run_scenario,
    sample_scenario,
)

HAMILTON = QuaternionAlgebra(Fraction(-1), Fraction(-1))
Q23 = QuaternionAlgebra(Fraction(2), Fraction(3))


class TestTensorAlgebra:
    def test_unit_trace(self):
        d = build_D(HAMILTON, HAMILTON)
        assert d.algebra.trd(d.algebra.unit) == 4

    def test_pure_generator_traceless_and_antisymmetric(self):
        d = build_D(HAMILTON, HAMILTON)
        e = d.algebra.basis_vector(4)  # i in the first factor
        assert d.algebra.trd(e) == 0
        assert d.sigma.apply(e) == tuple(-x for x in e)

    def test_cached(self):
        assert build_D(Q23, Q23) is build_D(Q23, Q23)


class TestScenarioSerialization:
    def test_round_trip(self):
        s = sample_scenario(3)
        assert Scenario.from_json(s.to_json()) == s

    def test_sampling_deterministic(self):
        assert sample_scenario(11) == sample_scenario(11)
        assert sample_scenario(11) != sample_scenario(12)


class TestUElement:
    def test_rejects_asymmetric(self):
        d = build_D(Q23, Q23)
        with pytest.raises(ScenarioError):
            UElement(d, d.algebra.basis_vector(4))

    def test_rejects_nonzero_trace(self):
        d = build_D(Q23, Q23)
        with pytest.raises(ScenarioError):
            UElement(d, d.algebra.unit)

    def test_rejects_nonsquare_norm(self):
        d = build_D(Q23, Q23)
        coords = linalg.vector(
            [0, 0, 0, 0, 0, -1, 2, -2, 0, 0, -2, 1, 0, 1, 1, 1]
        )
        assert d.sigma.apply(coords) == coords
        assert d.algebra.trd(coords) == 0
        with pytest.raises(ScenarioError):
            UElement(d, coords)

    def test_accepts_pure_tensor(self):
        d = build_D(Q23, Q23)
        u = UElement(d, d.algebra.basis_vector(5))  # i (x) i
        assert d.algebra.nrd(u.coords) == 16


class TestMakeU:
    @pytest.mark.parametrize("seed", [1, 3, 9])
    def test_produces_valid_trace_zero_u(self, seed):
        s = sample_scenario(seed)
        d = build_D(s.q1, s.q2)
        u, y = make_u(s)
        assert d.algebra.trd(u.coords) == 0
        assert d.sigma.apply(u.coords) == u.coords
        assert d.algebra.is_invertible(y)


class TestTraceForm:
    def test_vanishes_on_unit_for_traceless_u(self):
        s = sample_scenario(2)
        d = build_D(s.q1, s.q2)
        u, _ = make_u(s)
        qu = q_u_form(d, u.coords)
        assert qu.evaluate(d.algebra.unit) == 0

    def test_gram_symmetric(self):
        d = build_D(Q23, Q23)
        qu = q_u_form(d, d.algebra.basis_vector(5))
        assert qu.gram == linalg.transpose(qu.gram)

    def test_scales_linearly_in_u(self):
        d = build_D(Q23, Q23)
        u = d.algebra.basis_vector(5)
        g1 = q_u_form(d, u).gram
        g3 = q_u_form(d, linalg.vec_scale(Fraction(3), u)).gram
        assert g3 == tuple(tuple(3 * x for x in row) for row in g1)

    def test_first_factor_isotropic(self):
        s = sample_scenario(5)
        d = build_D(s.q1, s.q2)
        u, _ = make_u(s)
        qu = q_u_form(d, u.coords)
        assert check_claim_1(d, u.coords, qu) == []


class TestRunScenario:
    @pytest.mark.parametrize("seed", [7, 8, 19])
    def test_sampled_scenarios_pass(self, seed):
        report = run_scenario(sample_scenario(seed))
        assert report.verdict == "pass"
        assert report.failures == []
        assert report.in_cubic_ideal

    def test_hyperbolic_branch_certificates(self):
        report = run_scenario(sample_scenario(7))
        assert report.branch == "hyperbolic"
        assert report.witt_index == 8
        assert len(report.lagrangian) == 8
        qu = q_u_form(build_D(report.scenario.q1, report.scenario.q2), report.u)
        for a in report.lagrangian:
            for b in report.lagrangian:
                assert qu.bilinear(a, b) == 0
        assert linalg.rank(linalg.matrix(report.lagrangian)) == 8

    def test_definite_branch(self):
        d = build_D(HAMILTON, HAMILTON)
        s = Scenario(HAMILTON, HAMILTON, d.algebra.unit, Fraction(1), seed=0)
        report = run_scenario(s)
        assert report.branch == "definite-pfister"
        assert report.verdict == "pass"
        assert report.gp4 is True
        assert not report.trace_zero

    @pytest.mark.parametrize("seed", [68, 93])
    def test_definite_seeds_read_invariants_from_q_small(self, seed):
        # all four symbols negative: q_{u0} is anisotropic; its invariants
        # come from the diagonal q_small, which has tiny entries, instead of
        # the factoring of a 16-dim LLL diagonal (minutes for seed 68)
        start = time.perf_counter()
        report = run_scenario(sample_scenario(seed))
        assert time.perf_counter() - start < 5
        assert report.branch == "definite-pfister"
        assert report.verdict == "pass"
        assert report.gp4 is True and report.in_cubic_ideal

    def test_reports_deterministic(self):
        a = run_scenario(sample_scenario(13))
        b = run_scenario(sample_scenario(13))
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )

    def test_report_json_shape(self):
        report = run_scenario(sample_scenario(4))
        blob = report.to_json()
        assert blob["version"] == shapiro4.VERSION
        assert len(blob["input_sha256"]) == 64
        assert blob["verdict"] == "pass"
        assert Scenario.from_json(blob["scenario"]) == report.scenario


class TestExtendToLagrangian:
    def test_grows_line_to_plane(self):
        q = qform.QuadraticForm.from_diagonal([1, -1, 1, -1])
        seed_vec = linalg.vector([1, 1, 0, 0])
        assert q.evaluate(seed_vec) == 0
        span = shapiro4.extend_to_lagrangian(q, [seed_vec])
        assert len(span) == 2
        for a in span:
            for b in span:
                assert q.bilinear(a, b) == 0
        assert shapiro4.check_lagrangian(q, span) == []

    def test_anisotropic_complement_is_a_certificate_error(self):
        # <1, 1, 1, -1> has Witt index 1: the complement of (1, 0, 0, 1) is
        # the anisotropic <1, 1>, so the line has no Lagrangian to grow into
        q = qform.QuadraticForm.from_diagonal([1, 1, 1, -1])
        with pytest.raises(shapiro4.CertificateError):
            shapiro4.extend_to_lagrangian(q, [linalg.vector([1, 0, 0, 1])])

    def test_check_lagrangian_rejects(self):
        q = qform.QuadraticForm.from_diagonal([1, -1, 1, -1])
        line = linalg.vector([1, 1, 0, 0])
        assert shapiro4.check_lagrangian(q, [line, line]) == [
            "lagrangian: rank is not half the dimension"
        ]
        failures = shapiro4.check_lagrangian(q, [line, linalg.vector([0, 0, 1, 0])])
        assert failures == ["lagrangian: form does not vanish on pair (1,1)"]


def plus_square(q: qform.QuadraticForm, v) -> qform.QuadraticForm:
    """q + (v . x)^2: its polar value on a pair isotropic for q is (v . x)(v . y)."""
    return qform.QuadraticForm(
        [[g + a * b for g, b in zip(row, v)] for row, a in zip(q.gram, v)]
    )


def pairs(tag: str, rows) -> list[str]:
    return [
        f"{tag}: form does not vanish on pair ({a},{b})" for a in rows for b in rows if a <= b
    ]


class TestVanishingFailures:
    """Each check lists every unordered pair that does not vanish once, as (a,b) with a <= b."""

    @pytest.fixture
    def seed7(self):
        s = sample_scenario(7)
        d = build_D(s.q1, s.q2)
        u, y = make_u(s)
        return s, d, u, y, q_u_form(d, u.coords)

    def test_claim_1(self, seed7):
        _, d, u, _, qu = seed7
        assert check_claim_1(d, u.coords, plus_square(qu, [1] * 16)) == pairs("claim1", range(4))

    def test_claim_2(self, seed7):
        s, d, u, y, qu = seed7
        alg = d.algebra
        w_basis = shapiro4.w_subspace(
            s, d, u, y, [0, 1, 0, 0], alg.adjugate(s.c), alg.adjugate(d.sigma.apply(y))
        )
        # coordinate 9 is 0 on gamma(w0) and not on gamma(w1), gamma(w2)
        v = [0] * 16
        v[9] = 1
        assert [d.sigma.apply(w)[9] != 0 for w in w_basis] == [False, True, True]
        assert shapiro4.check_claim_2(d, w_basis, plus_square(qu, v)) == pairs("claim2", [1, 2])

    def test_claim_3(self, seed7):
        s, d, u, y, qu = seed7
        alg = d.algebra
        c_adj, gy_adj = alg.adjugate(s.c), alg.adjugate(d.sigma.apply(y))
        gw = [
            d.sigma.apply(w)
            for pure in ([0, 1, 0, 0], [0, 0, 1, 0])
            for w in shapiro4.w_subspace(s, d, u, y, pure, c_adj, gy_adj)
        ]
        # v is orthogonal to the unit, which keeps the trace functional and so
        # the assembled subspace, and to every gamma(w), which keeps claim 2
        v = [sum(col) for col in zip(*linalg.nullspace(tuple(gw) + (alg.unit,)))]
        span, failures = shapiro4.check_claim_3_and_assemble(s, d, u, y, plus_square(qu, v))
        ints = [linalg.clear_denominators(x) for x in span]
        assert [linalg.vec_dot(v, x) != 0 for x in ints] == [False] + [True] * 5
        assert failures == pairs("claim3", range(1, 6))

    def test_lagrangian(self):
        q = qform.QuadraticForm.from_diagonal([1, -1, 1, -1])
        lagrangian = [linalg.vector([1, 1, 0, 0]), linalg.vector([0, 0, 1, 1])]
        assert shapiro4.check_lagrangian(q, lagrangian) == []
        failures = shapiro4.check_lagrangian(plus_square(q, [1, 0, 1, 0]), lagrangian)
        assert failures == pairs("lagrangian", [0, 1])
