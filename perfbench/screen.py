"""Screen a workload's candidate inputs: which ones verify at this commit.

    python3 perfbench/screen.py --workload forms --start 0 --stop 600

Runs candidates start .. stop - 1 one after another in this process, each
from empty library caches and under the same environment as a benchmark run
(PYTHONHASHSEED=0, the library's default search ceiling), and re-checks
every output as a run does. The result is merged into fixtures/screened.json:
the verified candidates by stratum, which the benchmark's runs draw their
inputs from, and the failing ones by exception or check name. Run one screen
at a time. Re-screening changes which inputs runs draw, so it is a change to
the benchmark of its own, not part of a change that claims a speed-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def outcome(workload: workloads.Workload, i: int) -> str:
    """The string "verified", or the name of the exception or failed check."""
    inp = workload.candidate(i)
    workloads.reset_caches()
    try:
        out = workload.run(inp)
        workload.check(inp, out)
    except Exception as exc:
        return workloads.failure_name(exc)
    return "verified"


def merge(entry: dict, start: int, stop: int, results: dict[int, tuple[str, str]]) -> dict:
    """``entry`` with the candidates of [start, stop) replaced by ``results``."""
    verified: dict[str, list[int]] = {}
    failed: dict[str, list[int]] = {}
    for table in ("verified", "failed"):
        for key, indices in entry.get(table, {}).items():
            kept = [i for i in indices if not start <= i < stop]
            if kept:
                (verified if table == "verified" else failed)[key] = kept
    for i, (stratum, result) in results.items():
        if result == "verified":
            verified.setdefault(stratum, []).append(i)
        else:
            failed.setdefault(result, []).append(i)
    ranges = sorted([*entry.get("ranges", []), [start, stop]])
    return {
        "ranges": ranges,
        "verified": {k: sorted(v) for k, v in sorted(verified.items())},
        "failed": {k: sorted(v) for k, v in sorted(failed.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--start", type=int, required=True)
    parser.add_argument("--stop", type=int, required=True)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0" or "PFISTER_SEARCH_CEILING" in os.environ:
        # start again in the environment of a benchmark run
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PFISTER_SEARCH_CEILING", None)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)

    workload = workloads.WORKLOADS[args.workload](seed=0, sampled=True)
    workloads.warm_lazy_imports()
    workload.setup()
    results = {}
    for i in range(args.start, args.stop):
        start = time.perf_counter()
        result = outcome(workload, i)
        results[i] = (workload.stratum(i), result)
        print(f"{i} {workload.stratum(i)} {result} {time.perf_counter() - start:.3f}s", flush=True)

    data = json.loads(workloads.SCREENED.read_text()) if workloads.SCREENED.exists() else {}
    data[args.workload] = merge(data.get(args.workload, {}), args.start, args.stop, results)
    lines = [f"{json.dumps(name)}: {json.dumps(data[name], sort_keys=True)}" for name in sorted(data)]
    workloads.SCREENED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    verified = sum(r == "verified" for _, r in results.values())
    print(f"{args.workload}: {verified} of {len(results)} candidates verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
