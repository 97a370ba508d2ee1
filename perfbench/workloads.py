"""The three workloads: seeded inputs, the op each input goes through, and
an exact re-check of every op's output.

The re-checks use only rational arithmetic written here, the algebra
structure constants and the library's exact arithmetic layer -- never the
isotropy search, the Witt decomposition or the pipeline that produced the
output -- and they run outside the timed region.

Each workload has a fixed stream of candidate inputs (candidate i is the
same input for every seed); the benchmark runs only the candidates that
screen.py found to verify, recorded with the failing ones in
fixtures/screened.json, so that no op of a measured run fails. Each
workload also exists as `<name>-sampled`, which runs every candidate
(failing ones included) as the stream produces them.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Sequence

from pfisterinv import arith, csa, linalg, qform, quat, shapiro4
from pfisterinv.quat import QuaternionAlgebra

FORM_DIMS = (3, 4, 5, 6, 7, 8)
FORM_ENTRY_RANGE = 3
SCREENED = Path(__file__).resolve().parent / "fixtures" / "screened.json"
# symmetric pure (x) pure basis elements tried, in order, as twisting elements
TWIST_SLOTS = (5, 10, 15, 6, 9)


class CheckFailed(Exception):
    """An op's output did not pass its re-check.

    ``wrong`` is True when the output contradicts itself or the input (a bad
    certificate), False when the program itself reported that it could not
    certify the answer.
    """

    def __init__(self, check: str, wrong: bool = True):
        super().__init__(check)
        self.check = check
        self.wrong = wrong


def _require(condition: bool, check: str) -> None:
    if not condition:
        raise CheckFailed(check)


# ---------------------------------------------------------------------------
# exact helpers, independent of the library's search code
# ---------------------------------------------------------------------------


def bilinear(gram: Sequence[Sequence[Fraction]], u: Sequence, v: Sequence) -> Fraction:
    return sum(
        Fraction(u[i]) * gram[i][j] * Fraction(v[j])
        for i in range(len(u))
        if u[i]
        for j in range(len(v))
        if v[j]
    )


def rank(rows: Sequence[Sequence]) -> int:
    """Rank by plain Gaussian elimination over Q."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def trace_form_gram(d: csa.InvolutionAlgebra, u: Sequence[Fraction]) -> list[list[Fraction]]:
    """Gram matrix of x -> Trd(x u gamma(x)) from the structure constants."""
    alg, g = d.algebra, d.sigma
    n = alg.dim
    trace_row = [alg.trd(alg.basis_vector(t)) for t in range(n)]
    u_gamma = [alg.mul(u, g.apply(alg.basis_vector(t))) for t in range(n)]
    gram = [[Fraction(0)] * n for _ in range(n)]
    for s in range(n):
        for t in range(s, n):
            x = alg.mul(alg.basis_vector(s), u_gamma[t])
            y = alg.mul(alg.basis_vector(t), u_gamma[s])
            val = sum(a * (b + c) for a, b, c in zip(trace_row, x, y)) / 2
            gram[s][t] = gram[t][s] = val
    return gram


def check_s4_report(data: dict) -> None:
    """Re-verify a four-quaternion report from its JSON form alone.

    Rebuilds D from the scenario's symbols; on the hyperbolic branch checks
    that u is symmetric with reduced trace 0 and that the reported Lagrangian
    has rank 8 with q_u vanishing on it.
    """
    if data["verdict"] != "pass":
        raise CheckFailed("verdict", wrong=False)
    scenario = shapiro4.Scenario.from_json(data["scenario"])
    d = csa.tensor(
        csa.from_quaternion(scenario.q1, "canonical"),
        csa.from_quaternion(scenario.q2, "canonical"),
    )
    alg = d.algebra
    u = tuple(arith.rat(x) for x in data["u"])
    _require(d.sigma.apply(u) == u, "u_symmetric")
    _require(alg.is_invertible(u), "u_invertible")
    if data["branch"] == "definite-pfister":
        _require(data.get("gp4") is True, "gp4")
        return
    _require(data["branch"] == "hyperbolic", "branch")
    _require(alg.trd(u) == 0, "u_trace_zero")
    lagrangian = [[arith.rat(x) for x in v] for v in data.get("lagrangian") or []]
    _require(len(lagrangian) == 8, "lagrangian_size")
    _require(rank(lagrangian) == 8, "lagrangian_rank")
    gram = trace_form_gram(d, u)
    for a in range(8):
        for b in range(a, 8):
            _require(bilinear(gram, lagrangian[a], lagrangian[b]) == 0, "lagrangian_isotropic")
    _require(data.get("witt_index") == 8, "witt_index")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Seeded inputs (generated on demand, untimed), one op per input.

    With ``sampled`` the k-th input is candidate seed + k; otherwise it is
    drawn from the screened candidates (see ``screened_input``).
    """

    name = ""
    # verified candidates a run draws from per stratum, the first ones of the
    # screen (None: all)
    pool_size: Optional[int] = None

    def __init__(self, seed: int, sampled: bool = False):
        self.seed = seed
        self.sampled = sampled
        self._order: dict[str, list[int]] = {}

    def setup(self) -> None:
        """One-off preparation that belongs to set-up time."""

    def candidate(self, i: int) -> Any:
        """The i-th input of the workload's candidate stream."""
        raise NotImplementedError

    def stratum(self, i: int) -> str:
        """The screen's stratum of candidate i."""
        return "all"

    def make_input(self, k: int) -> Any:
        if self.sampled:
            return self.candidate(self.seed + k)
        return self.screened_input(k)

    def screened_input(self, k: int) -> Any:
        """The k-th input among the candidates that screened as verified.

        Ops cycle through the strata of the screen (the same mix in every
        run); inside a stratum they walk a seed-shuffled order of its
        candidates, so no input repeats before the stratum is used up.
        """
        strata = self._strata()
        order = strata[k % len(strata)]
        return self.candidate(order[(k // len(strata)) % len(order)])

    def _strata(self) -> list[list[int]]:
        """Per stratum, the pool of verified candidates in the seed's order."""
        if not self._order:
            verified = json.loads(SCREENED.read_text())[self.name]["verified"]
            rng = random.Random(f"{self.name}:{self.seed}")
            for stratum, indices in verified.items():
                pool = indices[: self.pool_size]
                self._order[stratum] = rng.sample(pool, len(pool))
        return list(self._order.values())

    def setup_input(self) -> Any:
        """The input made during set-up: the same for every seed, so that
        set-up time does not depend on which input a seed draws first."""
        if self.sampled:
            return self.candidate(self.seed)
        return self.candidate(min(min(order) for order in self._strata()))

    def run(self, inp: Any) -> Any:
        raise NotImplementedError

    def to_json(self, out: Any) -> Any:
        raise NotImplementedError

    def check(self, inp: Any, out: Any) -> None:
        """Raise CheckFailed unless the output is verified."""
        raise NotImplementedError


@contextmanager
def _uncached_build_D():
    # sample_scenario reads build_D from the module at call time; routing it
    # to the undecorated function keeps input generation from warming the
    # cache the timed ops are meant to start without
    cached = shapiro4.build_D
    shapiro4.build_D = cached.__wrapped__
    try:
        yield
    finally:
        shapiro4.build_D = cached


class S4Batch(Workload):
    """run_scenario on sampled scenarios; candidate i is sample_scenario(i),
    the scenario the CLI batch runs for seed i."""

    name = "s4-batch"
    # a run has time for about five verified scenarios; with five in the pool
    # every run does all of them and seeds change only their order, so the
    # quartiles do not depend on which slow or fast scenarios a seed draws
    pool_size = 5

    def candidate(self, i: int) -> shapiro4.Scenario:
        with _uncached_build_D():
            return shapiro4.sample_scenario(i)

    def run(self, inp: shapiro4.Scenario) -> shapiro4.ScenarioReport:
        return shapiro4.run_scenario(inp)

    def to_json(self, out: shapiro4.ScenarioReport) -> dict:
        return out.to_json()

    def check(self, inp: shapiro4.Scenario, out: shapiro4.ScenarioReport) -> None:
        data = out.to_json()
        _require(data["scenario"] == inp.to_json(), "scenario_echo")
        check_s4_report(data)


def random_form(rng: random.Random, n: int) -> list[list[int]]:
    """A nondegenerate symmetric integer Gram matrix with small entries."""
    while True:
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-FORM_ENTRY_RANGE, FORM_ENTRY_RANGE)
        if rank(gram) == n:
            return gram


class Forms(Workload):
    """Invariants, isotropy witness, Witt decomposition and the I^3 / GP tests.

    Candidate i has dimension FORM_DIMS[i % 6] and random entries; the
    screen's strata are the dimensions, so every run has the same mix.
    """

    name = "forms"

    def candidate(self, i: int) -> list[list[int]]:
        rng = random.Random(f"{self.name}:{i}")
        return random_form(rng, FORM_DIMS[i % len(FORM_DIMS)])

    def stratum(self, i: int) -> str:
        return f"dim{FORM_DIMS[i % len(FORM_DIMS)]}"

    @staticmethod
    def pfister_fold(n: int) -> int:
        return max(1, min(4, n.bit_length() - 1))

    def run(self, gram: list[list[int]]) -> dict:
        q = qform.QuadraticForm(gram)
        inv = q.invariants()
        iso = qform.is_isotropic(q)
        witt = qform.witt_decompose(q)
        return {
            "invariants": inv,
            "isotropic": iso.isotropic,
            "witness": iso.witness,
            "witt": witt,
            "in_I3": qform.in_I_n(q, 3),
            "in_GP": qform.in_GP_r(q, self.pfister_fold(len(gram))),
        }

    def to_json(self, out: dict) -> dict:
        return {
            "invariants": out["invariants"].to_json(),
            "isotropic": out["isotropic"],
            "witness": list(out["witness"]) if out["witness"] else None,
            "witt": out["witt"].to_json(),
            "in_I3": out["in_I3"],
            "in_GP": out["in_GP"],
        }

    def check(self, gram: list[list[int]], out: dict) -> None:
        g = [[Fraction(x) for x in row] for row in gram]
        n = len(g)
        w = out["witness"]
        witt = out["witt"]
        if out["isotropic"]:
            _require(w is not None and any(w), "witness_nonzero")
            _require(bilinear(g, w, w) == 0, "witness_isotropic")
        _require((witt.witt_index > 0) == out["isotropic"], "isotropy_agrees_with_witt")
        pairs = list(witt.hyperbolic_basis)
        _require(2 * len(pairs) + len(witt.anisotropic_basis) == n, "witt_dimension")
        for i, (u, v) in enumerate(pairs):
            _require(bilinear(g, u, u) == 0 and bilinear(g, v, v) == 0, "witt_pair_isotropic")
            _require(bilinear(g, u, v) == 1, "witt_pair_hyperbolic")
            for u2, v2 in pairs[i + 1 :]:
                for a in (u, v):
                    for b in (u2, v2):
                        _require(bilinear(g, a, b) == 0, "witt_pairs_orthogonal")
            for r in witt.anisotropic_basis:
                _require(bilinear(g, u, r) == 0 and bilinear(g, v, r) == 0, "witt_rest_orthogonal")
        vectors = [x for pair in pairs for x in pair] + list(witt.anisotropic_basis)
        _require(rank(vectors) == n, "witt_spans")
        # hyperbolic planes have signature 0, so the rest carries all of it
        signature = out["invariants"].signature
        _require(abs(signature) <= n - 2 * len(pairs), "signature_fits_witt")
        _require((n - signature) % 2 == 0, "signature_parity")


class Algebras(Workload):
    """Degree-4 algebras (Q1 (x) Q2, canonical involutions), half twisted.

    Candidate i lies in stratum i % 8 of (twisted or not) x (Q1 split or
    not) x (Q2 split or not); its symbols are random picks from
    shapiro4.SYMBOL_POOL. The twisted products with a non-split factor have
    no implemented Clifford route and fail with UncomputableInvariant, so
    the screen leaves those strata empty and runs cycle through the others.
    """

    name = "algebras"

    def setup(self) -> None:
        pool = shapiro4.SYMBOL_POOL
        pairs = [(a, b) for a in pool for b in pool]
        split = {p: quat.is_split(QuaternionAlgebra(*p)) for p in pairs}
        self.by_splitness = {
            flag: [p for p in pairs if split[p] == flag] for flag in (True, False)
        }

    @staticmethod
    def _kind(i: int) -> tuple[bool, bool, bool]:
        """(twisted, Q1 split, Q2 split) of candidate i."""
        return i % 2 == 1, (i // 2) % 2 == 0, (i // 4) % 2 == 0

    def candidate(self, i: int) -> tuple:
        rng = random.Random(f"{self.name}:{i}")
        twisted, split1, split2 = self._kind(i)
        s1 = rng.choice(self.by_splitness[split1])
        s2 = rng.choice(self.by_splitness[split2])
        return QuaternionAlgebra(*s1), QuaternionAlgebra(*s2), twisted

    def stratum(self, i: int) -> str:
        twisted, split1, split2 = self._kind(i)
        return f"{'twisted' if twisted else 'plain'}-{'s' if split1 else 'n'}{'s' if split2 else 'n'}"

    def run(self, inp: tuple) -> dict:
        q1, q2, twisted = inp
        d = csa.tensor(csa.from_quaternion(q1, "canonical"), csa.from_quaternion(q2, "canonical"))
        if twisted:
            for slot in TWIST_SLOTS:
                u = d.algebra.basis_vector(slot)
                if d.sigma.apply(u) == u and d.algebra.is_invertible(u):
                    d = csa.twist_involution(d, u)
                    break
        e1 = csa.e1(d)
        out = {
            "e0": csa.e0(d),
            "e1": e1,
            "e2": csa.e2(d) if e1 == 1 else None,
            "pfister": csa.is_pfister_involution(d),
            "adjoint": None,
        }
        if quat.is_split(q1) and quat.is_split(q2):
            out["adjoint"] = csa.adjoint_form(d).invariants()
        return out

    def to_json(self, out: dict) -> dict:
        e2 = out["e2"]
        return {
            "e0": out["e0"],
            "e1": out["e1"],
            "e2": sorted(c.labels() for c in e2.classes) if e2 is not None else None,
            "pfister": out["pfister"],
            "adjoint": out["adjoint"].to_json() if out["adjoint"] is not None else None,
        }

    def check(self, inp: tuple, out: dict) -> None:
        q1, q2, twisted = inp
        e1, e2, adj = out["e1"], out["e2"], out["adjoint"]
        _require(out["e0"] == 0, "e0_degree_4")
        _require(out["pfister"] == (e1 == 1), "pfister_is_trivial_e1")
        split = arith.brauer_class_of_symbol(q1.a, q1.b).is_trivial and (
            arith.brauer_class_of_symbol(q2.a, q2.b).is_trivial
        )
        _require((adj is not None) == split, "adjoint_iff_split")
        if adj is not None:
            _require(adj.dim == 4, "adjoint_dim")
            _require(e1 == adj.disc, "e1_is_adjoint_disc")
            if e2 is not None:
                _require(e2.is_trivial == adj.clifford.is_trivial, "e2_is_adjoint_clifford")
        elif not twisted:
            _require(e1 == 1, "untwisted_e1")
            classes = {
                arith.brauer_class_of_symbol(q1.a, q1.b),
                arith.brauer_class_of_symbol(q2.a, q2.b),
            }
            _require(e2 is not None and set(e2.classes) == classes, "e2_factor_classes")


WORKLOADS = {w.name: w for w in (S4Batch, Forms, Algebras)}
SAMPLED_SUFFIX = "-sampled"
NAMES = (*WORKLOADS, *(name + SAMPLED_SUFFIX for name in WORKLOADS))


def make_workload(name: str, seed: int) -> Workload:
    """The workload called ``name``; ``<name>-sampled`` runs every candidate."""
    sampled = name.endswith(SAMPLED_SUFFIX)
    base = name[: -len(SAMPLED_SUFFIX)] if sampled else name
    return WORKLOADS[base](seed, sampled=sampled)


def warm_lazy_imports() -> None:
    """Load what the library imports on first use (sympy's LLL and
    perfect-power code), so that set-up time carries it as it would for a
    CLI call that reaches those paths."""
    linalg.lll_reduce([[1, 2], [3, 5]])
    arith.square_classes([6, 10])


def reset_caches() -> None:
    """Empty the library's process-wide caches: a cold start."""
    shapiro4.build_D.cache_clear()
    arith.factorize.cache_clear()


def failure_name(exc: BaseException) -> str:
    if isinstance(exc, CheckFailed):
        return f"check:{exc.check}"
    return type(exc).__name__


def describe_env() -> dict:
    import importlib.util
    import os
    import platform

    import sympy

    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "PFISTER_SEARCH_CEILING": os.environ.get("PFISTER_SEARCH_CEILING", "default"),
    }

