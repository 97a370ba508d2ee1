"""Golden output of the benchmark's `algebras` corpus: candidates 0..399.

Each candidate's output feeds ``json.dumps(to_json(run(candidate(i))),
sort_keys=True)`` into one sha256; a candidate that raises feeds
``{"error": <exception class name>}`` instead (150 of the 400 raise
UncomputableInvariant). A change meant to alter these outputs updates the
hash and says why.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

ALGEBRAS_SHA256 = "d21172fabf21b040f8b7d7d12ba0de7716417f1c0177291f1e3513c21a3fe149"


def test_algebras_corpus_is_unchanged():
    w = workloads.make_workload("algebras", 0)
    w.setup()
    digest = hashlib.sha256()
    errors = 0
    for i in range(400):
        try:
            out = w.to_json(w.run(w.candidate(i)))
        except Exception as exc:  # the error's class name is part of the output
            out = {"error": type(exc).__name__}
            errors += 1
        digest.update(json.dumps(out, sort_keys=True).encode())
    assert errors == 150
    assert digest.hexdigest() == ALGEBRAS_SHA256
