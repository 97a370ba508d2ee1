"""Golden outputs: one sha256 per corpus.

- ``shapiro4`` reports of ``sample_scenario(i)``, seeds 0..199;
- the benchmark's ``forms`` corpus, candidates 0..599;
- the benchmark's ``algebras`` corpus, candidates 0..399.

Each output feeds ``json.dumps(output, sort_keys=True)`` into its corpus's
one sha256, in order; a candidate that raises feeds ``{"error": <exception
class name>}`` instead (150 of the 400 ``algebras`` candidates raise
UncomputableInvariant, no other candidate raises). A change meant to alter
these outputs updates the hash and says why.
"""

import hashlib
import json
import sys
from pathlib import Path

from pfisterinv import shapiro4

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

SEEDS_SHA256 = "4509706a0cc60c0dc5e96c0e094aed79853d44b6ed6c0f622fe3a130571b1e78"
FORMS_SHA256 = "17af9f3768627e88093964155288098d554e12aab8912921f0d6da7e277805b4"
ALGEBRAS_SHA256 = "d21172fabf21b040f8b7d7d12ba0de7716417f1c0177291f1e3513c21a3fe149"


def corpus_digest(output, count: int) -> tuple[str, int]:
    """(sha256 of ``output(i)`` for i < count, number of i whose output raised)."""
    digest = hashlib.sha256()
    errors = 0
    for i in range(count):
        try:
            out = output(i)
        except Exception as exc:  # the error's class name is part of the output
            out = {"error": type(exc).__name__}
            errors += 1
        digest.update(json.dumps(out, sort_keys=True).encode())
    return digest.hexdigest(), errors


def workload_digest(name: str, count: int) -> tuple[str, int]:
    w = workloads.make_workload(name, 0)
    w.setup()
    return corpus_digest(lambda i: w.to_json(w.run(w.candidate(i))), count)


def seed_report(i: int) -> dict:
    return shapiro4.run_scenario(shapiro4.sample_scenario(i)).to_json()


def test_seed_reports_are_unchanged():
    assert corpus_digest(seed_report, 200) == (SEEDS_SHA256, 0)


def test_forms_corpus_is_unchanged():
    assert workload_digest("forms", 600) == (FORMS_SHA256, 0)


def test_algebras_corpus_is_unchanged():
    assert workload_digest("algebras", 400) == (ALGEBRAS_SHA256, 150)
