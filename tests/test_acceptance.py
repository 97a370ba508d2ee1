"""Acceptance suite: one criterion per test, each printing a single
PASS/FAIL line with its runtime against the budget.  All checks are exact
(rational arithmetic, zero tolerance)."""

import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from pfisterinv import csa, linalg, qform, shapiro4
from pfisterinv.arith import hilbert_symbol, relevant_places, square_class
from pfisterinv.qform import QuadraticForm
from pfisterinv.quat import QuaternionAlgebra


def _report(capsys, num: int, desc: str, ok: bool, elapsed: float, budget: float):
    line = (
        f"ACCEPTANCE {num}: {'PASS' if ok and elapsed < budget else 'FAIL'} — "
        f"{desc} ({elapsed:.2f}s, budget {budget:.0f}s)"
    )
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.2f}s >= {budget}s"


def _nonzero(rng, bound):
    while True:
        n = rng.randint(-bound, bound)
        if n:
            return n


def _random_invertible(rng, n):
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if linalg.rank(linalg.matrix(m)) == n:
            return linalg.matrix(m)


def test_acceptance_1_reciprocity(capsys):
    rng = random.Random(101)
    t0 = time.monotonic()
    ok = True
    for _ in range(200):
        a, b = _nonzero(rng, 50), _nonzero(rng, 50)
        prod = 1
        for v in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        ok = ok and prod == 1
    _report(capsys, 1, "product of local symbols over all relevant places is +1", ok,
            time.monotonic() - t0, 1)


def test_acceptance_2_invariants_well_defined(capsys):
    rng = random.Random(202)
    t0 = time.monotonic()
    ok = True
    for _ in range(100):
        n = rng.randint(1, 8)
        q = QuadraticForm.from_diagonal([_nonzero(rng, 20) for _ in range(n)])
        t = _random_invertible(rng, n)
        moved = QuadraticForm(
            linalg.mat_mul(linalg.transpose(t), linalg.mat_mul(q.gram, t))
        )
        ok = ok and moved.invariants() == q.invariants()
    _report(capsys, 2, "form invariants unchanged under invertible congruence", ok,
            time.monotonic() - t0, 5)


def test_acceptance_3_witt_round_trip(capsys):
    rng = random.Random(303)
    t0 = time.monotonic()
    ok = True
    for _ in range(50):
        k = rng.randint(0, 3)
        m = rng.randint(1, 3)
        sign = rng.choice([1, -1])
        definite = [sign * rng.randint(1, 9) for _ in range(m)]
        diag = [1, -1] * k + definite
        # scramble with a small unimodular congruence so the split part is
        # not syntactic while witnesses stay within reach
        n = len(diag)
        t = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.choice([-1, 1])
                for col in range(n):
                    t[i][col] += c * t[j][col]
        t = linalg.matrix(t)
        q0 = QuadraticForm.from_diagonal(diag)
        q = QuadraticForm(
            linalg.mat_mul(linalg.transpose(t), linalg.mat_mul(q0.gram, t))
        )
        dec = qform.witt_decompose(q)
        residue = q.restrict(dec.anisotropic_basis) if dec.anisotropic_basis else None
        residue_ok = len(dec.anisotropic_basis) == m and (
            residue is None or abs(residue.invariants().signature) == m
        )
        ok = ok and dec.witt_index == k and residue_ok
    _report(capsys, 3, "Witt decomposition recovers the split count and a definite residue",
            ok, time.monotonic() - t0, 30)


def test_acceptance_4_pfister_similarity_criteria(capsys):
    rng = random.Random(404)
    t0 = time.monotonic()
    ok = True
    # dimension 4: square determinant passes, non-square fails
    for _ in range(50):
        a, b, c = (_nonzero(rng, 9) for _ in range(3))
        d = a * b * c  # product becomes a perfect square
        ok = ok and qform.in_GP_r(QuadraticForm.from_diagonal([a, b, c, d]), 2)
    for _ in range(50):
        entries = [_nonzero(rng, 9) for _ in range(4)]
        prod = entries[0] * entries[1] * entries[2] * entries[3]
        if square_class(prod) == 1:
            entries[0] *= 2
        ok = ok and not qform.in_GP_r(QuadraticForm.from_diagonal(entries), 2)
    # dimension 8: trivial full Clifford class passes, nontrivial fails
    passed_8 = failed_8 = 0
    while passed_8 < 10:
        slots = [_nonzero(rng, 9) for _ in range(3)]
        scale = _nonzero(rng, 9)
        q = qform.pfister(slots).scale(Fraction(scale))
        ok = ok and qform.in_GP_r(q, 3)
        passed_8 += 1
    while failed_8 < 10:
        entries = [_nonzero(rng, 9) for _ in range(7)]
        prod = 1
        for e in entries:
            prod *= e
        entries.append(square_class(prod))  # force square determinant
        q = QuadraticForm.from_diagonal(entries)
        if q.invariants().clifford.is_trivial:
            continue
        ok = ok and not qform.in_GP_r(q, 3)
        failed_8 += 1
    _report(capsys, 4, "similarity to a multiplicative form detected exactly in dims 4 and 8",
            ok, time.monotonic() - t0, 10)


def test_acceptance_5_split_tensor_agreement(capsys):
    rng = random.Random(505)
    t0 = time.monotonic()
    ok = True
    split_pool = [(1, 1), (1, 5), (4, -3), (2, -1), (-1, 2), (1, -6), (1, 7)]
    twist_slots = [5, 10, 15, 6, 9]
    for trial in range(20):
        s1, s2 = rng.choice(split_pool), rng.choice(split_pool)
        d = csa.tensor(
            csa.from_quaternion(QuaternionAlgebra(*map(Fraction, s1)), "canonical"),
            csa.from_quaternion(QuaternionAlgebra(*map(Fraction, s2)), "canonical"),
        )
        if trial % 2:
            # twist by a symmetric invertible pure (x) pure basis element
            for slot in twist_slots:
                u = d.algebra.basis_vector(slot)
                if d.sigma.apply(u) == u and d.algebra.is_invertible(u):
                    d = csa.twist_involution(d, u)
                    break
        form = csa.adjoint_form(d)
        inv = form.invariants()
        ok = ok and csa.e0(d) == form.dim % 2
        ok = ok and csa.e1(d) == inv.disc
        ok = ok and csa.e2(d).is_trivial == inv.clifford.is_trivial
    _report(capsys, 5, "structural e0/e1/e2 match the adjoint form on split tensor products",
            ok, time.monotonic() - t0, 30)


def test_acceptance_6_clifford_cross_validation(capsys):
    rng = random.Random(606)
    t0 = time.monotonic()
    ok = True
    for _ in range(30):
        n = rng.randint(2, 4)
        q = QuadraticForm.from_diagonal([_nonzero(rng, 11) for _ in range(n)])
        ok = ok and csa.clifford_brauer_class(q) == q.invariants().clifford
    _report(capsys, 6, "structure-constant Clifford class equals the symbol-formula invariant",
            ok, time.monotonic() - t0, 10)


# sha256 of the reference report for --count 25 --seed 7; the report bytes
# must not change under refactoring
REFERENCE_REPORT_SHA256 = "41dfc37f6d3f7137b329b03db25fb82d92e20d8274a6d389592de4cb213c85db"


def test_acceptance_7_main_pipeline(capsys, tmp_path):
    report = tmp_path / "out.json"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pfisterinv.cli", "shapiro4", "run",
         "--count", "25", "--seed", "7", "--json", str(report)],
        capture_output=True, text=True,
    )
    elapsed = time.monotonic() - t0
    passes = proc.stdout.count("verdict=pass")
    ok = proc.returncode == 0 and passes == 25 and "violated" not in proc.stdout
    ok = ok and hashlib.sha256(report.read_bytes()).hexdigest() == REFERENCE_REPORT_SHA256
    _report(capsys, 7, "all 25 sampled four-quaternion scenarios verified", ok, elapsed, 120)


def test_acceptance_8_split_products_have_trivial_disc(capsys):
    rng = random.Random(808)
    t0 = time.monotonic()
    ok = True
    split_pool = [(1, 1), (1, 5), (4, -3), (2, -1), (-1, 2), (1, -6), (1, 7), (9, 2)]
    for _ in range(20):
        s1, s2 = rng.choice(split_pool), rng.choice(split_pool)
        d = csa.tensor(
            csa.from_quaternion(QuaternionAlgebra(*map(Fraction, s1)), "canonical"),
            csa.from_quaternion(QuaternionAlgebra(*map(Fraction, s2)), "canonical"),
        )
        ok = ok and csa.adjoint_form(d).invariants().disc == 1
    _report(capsys, 8, "products of two split canonical factors have trivial discriminant",
            ok, time.monotonic() - t0, 20)


def test_acceptance_9_determinism(capsys):
    t0 = time.monotonic()
    ok = True
    for seed in (1, 7, 13):
        a = shapiro4.run_scenario(shapiro4.sample_scenario(seed))
        b = shapiro4.run_scenario(shapiro4.sample_scenario(seed))
        ok = ok and json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )
    _report(capsys, 9, "fixed seeds reproduce byte-identical reports", ok,
            time.monotonic() - t0, 60)
