"""One measured run in a fresh interpreter; started by run.py.

Set-up (imports, the library's lazy imports, one input that is the same for
every seed) ends with a "ready" line on stdout that carries the set-up's speed factor and the time
its reference samples took. Then the ops run back to back, single-threaded,
until their summed latency reaches the time budget; inputs are generated on
demand between ops, outside the timed region. Every output is re-checked
after the timed loop. With --trace the same ops run a second time, from
empty caches, with spans installed, and the per-layer numbers are taken
from that pass. The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402

REFERENCE_EVERY_S = 0.05  # wall time between reference samples, during ops too
REFERENCE_MARGIN_S = 0.1  # samples this close to an op also rescale it

# set-up is sampled like the ops, from before the imports to "ready"
SETUP_START = time.perf_counter()
SETUP_SAMPLES: list = []
SETUP_SAMPLER = reference.Sampler(SETUP_SAMPLES, REFERENCE_EVERY_S)
SETUP_SAMPLER.__enter__()

import tracing  # noqa: E402
import workloads  # noqa: E402
from pfisterinv import shapiro4  # noqa: E402


class Inputs:
    """Inputs by index, generated once each, on first use."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.items: list = []

    def __getitem__(self, k: int):
        while len(self.items) <= k:
            self.items.append(self.workload.make_input(len(self.items)))
        return self.items[k]


def digest(data) -> str:
    blob = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_ops(
    workload: workloads.Workload,
    inputs: Inputs,
    samples: list,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
) -> list[dict]:
    """Ops until their summed latency reaches ``seconds`` (or ``count`` ops).

    Reference samples are appended to ``samples`` every REFERENCE_EVERY_S
    of wall time throughout; each record keeps its op's start and end, and
    its latency leaves out the time the samples took.
    """
    records = []
    spent = 0.0
    k = 0
    with reference.Sampler(samples, REFERENCE_EVERY_S) as sampler:
        while (count is None and spent < seconds) or (count is not None and k < count):
            inp = inputs[k]
            sampling_before = sampler.spent
            start = time.perf_counter()
            try:
                out = workload.run(inp)
                error = None
            except Exception as exc:  # one failing op never ends the run
                out, error = None, exc
            end = time.perf_counter()
            latency = end - start - (sampler.spent - sampling_before)
            spent += latency
            record = {"latency_s": latency, "output": out, "error": error, "span": (start, end)}
            if error is not None:
                record["failure"] = workloads.failure_name(error)
                record["origin"] = tracing.origin_of(error)
            records.append(record)
            k += 1
    return records


def op_factors(records: list[dict], samples: list) -> list[float]:
    """Each op's multiplier to reference speed."""
    return reference.local_factors(samples, [r["span"] for r in records], REFERENCE_MARGIN_S)


def scaled_seconds(records: list[dict], samples: list) -> float:
    """Summed op latency at reference speed."""
    return sum(r["latency_s"] * f for r, f in zip(records, op_factors(records, samples)))


def recheck(workload: workloads.Workload, inputs: Inputs, records: list[dict]) -> list[str]:
    """Mark each returned op verified or failed; returns the wrong outputs."""
    wrong = []
    for k, rec in enumerate(records):
        if rec["error"] is not None:
            rec["verified"] = False
            rec["digest"] = digest({"error": rec["failure"]})
            continue
        rec["digest"] = digest(workload.to_json(rec["output"]))
        try:
            workload.check(inputs[k], rec["output"])
            rec["verified"] = True
        except workloads.CheckFailed as exc:
            rec["verified"] = False
            rec["failure"] = workloads.failure_name(exc)
            if exc.wrong:
                wrong.append(f"op {k}: {exc.check}")
    return wrong


def per_layer(tracer: tracing.Tracer) -> dict:
    """Flat per-layer metrics from the traced pass."""
    out: dict[str, float] = {}
    for name, stats in sorted(tracer.stats.items()):
        out[f"{name}.calls"] = stats.calls
        out[f"{name}.s"] = stats.total_s
        out[f"{name}.self_s"] = stats.self_s
        out[f"{name}.failures"] = stats.failures
    out.update(tracer.counters)
    for layer, seconds in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = seconds
    scenarios = out.get("shapiro4.run_scenario.calls", 0)
    out["shapiro4.fallback_frac"] = out.get("shapiro4.fallbacks", 0) / scenarios if scenarios else 0.0
    out["shapiro4.definite_frac"] = (
        out.get("shapiro4._definite_branch.calls", 0) / scenarios if scenarios else 0.0
    )
    info = shapiro4.build_D.cache_info()
    lookups = info.hits + info.misses
    out["shapiro4.build_D.hit_frac"] = info.hits / lookups if lookups else 0.0
    draws = out.get("qform.isotropic_witnesses.generators", 0)
    out["qform.isotropic_witnesses.drawn"] = (
        out.get("qform.isotropic_witnesses.drawn", 0) / draws if draws else 0.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make_workload(args.workload, args.seed)
    workloads.warm_lazy_imports()
    workload.setup()
    inputs = Inputs(workload)
    workload.setup_input()
    workloads.reset_caches()
    SETUP_SAMPLER.__exit__()
    (factor,) = reference.local_factors(
        SETUP_SAMPLES, [(SETUP_START, time.perf_counter())], REFERENCE_MARGIN_S
    )
    print(f"ready {factor!r} {SETUP_SAMPLER.spent!r}", flush=True)
    if args.setup_only:
        return 0

    reference.sample()  # the first calls in a process run slower
    samples: list = []
    records = run_ops(workload, inputs, samples, seconds=args.seconds)
    wrong = recheck(workload, inputs, records)
    result = {
        "ops": [[r["latency_s"], r["verified"], r.get("failure")] for r in records],
        "reference_samples": samples,
        "speed_factors": op_factors(records, samples),
        "outputs_sha256": digest([r["digest"] for r in records]),
        "op_digests": [r["digest"] for r in records],
        "wrong": wrong,
        "env": workloads.describe_env(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": None,
    }
    if args.trace:
        workloads.reset_caches()
        tracer = tracing.Tracer()
        instrumentation = tracing.instrument(tracer)
        try:
            traced_samples: list = []
            traced = run_ops(workload, inputs, traced_samples, count=len(records))
        finally:
            instrumentation.restore()
        for k, (plain, rec) in enumerate(zip(records, traced)):
            same = (
                type(rec["error"]) is type(plain["error"])
                if rec["error"] is not None or plain["error"] is not None
                else digest(workload.to_json(rec["output"])) == plain["digest"]
            )
            if not same:
                wrong.append(f"op {k}: output changed under tracing")
        # both passes at the same machine speed, so that drift between them
        # does not read as tracing overhead
        untraced_s = scaled_seconds(records, samples)
        traced_s = scaled_seconds(traced, traced_samples)
        layers = per_layer(tracer)
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        origins: dict[str, int] = {}
        for rec in traced:
            if rec["error"] is not None:
                key = rec.get("origin") or "outside any span"
                origins[key] = origins.get(key, 0) + 1
        layers["linalg.lll_reduce.failed_ops"] = origins.get("linalg.lll_reduce", 0)
        result["trace"] = {"metrics": layers, "failure_origins": origins}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
