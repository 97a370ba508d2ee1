"""Benchmark of pfisterinv: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload s4-batch --seed 7 --seconds 30 --trace 0

Set-up time is taken over several fresh interpreter launches; the timed ops
run in one more fresh interpreter (worker.py) with a fixed PYTHONHASHSEED and
the library's default search ceiling. The run prints every metric by name
with its unit, writes a report under .perfbench/ and ends with one JSON line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REPORT_DIR = ROOT / ".perfbench"
WORKLOADS = ("s4-batch", "forms", "algebras")
# the same ops on every candidate input, failing ones included (workloads.py)
SAMPLED = tuple(f"{w}-sampled" for w in WORKLOADS)
SETUP_LAUNCHES = 5  # set-up only, before the measured run's own launch
WORKER_TIMEOUT_S = 170.0
PREFIX_OPS = 5  # ops covered by outputs_prefix_sha256, comparable across commits

# the bounded metrics, all at reference speed (see reference.py)
END_TO_END = {
    "setup_s": "s",
    "op_p25_s": "s",
    "op_p75_s": "s",
}

_SPAN_SECONDS = (
    "shapiro4.run_scenario", "shapiro4.build_D", "shapiro4.make_u", "shapiro4.q_u_form",
    "shapiro4.check_claim_1", "shapiro4.check_claim_3_and_assemble", "shapiro4.w_subspace",
    "shapiro4.build_V_q", "shapiro4.extend_to_lagrangian", "qform.witt_from_lagrangian",
    "linalg.lll_reduce", "linalg.saturated_constrained_lattice",
    "linalg.primitive_kernel_basis", "linalg.det", "linalg.nullspace", "linalg.solve",
    "linalg.inverse", "linalg.charpoly", "qform.QuadraticForm",
    "qform.QuadraticForm.invariants", "qform.is_isotropic", "qform.witt_decompose",
    "qform.in_I_n", "qform.in_GP_r", "csa.StructureAlgebra.mul", "csa.StructureAlgebra.nrd",
    "csa.StructureAlgebra.inverse", "csa.StructureAlgebra.is_invertible", "csa.tensor",
    "csa.twist_involution", "csa.e1", "csa.e2", "csa.is_pfister_involution",
    "csa.adjoint_form", "arith.factorize", "arith.square_classes", "arith.hilbert_symbol",
    "quat.splitting_isomorphism",
)
_SPAN_CALLS = (
    "linalg.lll_reduce", "linalg.charpoly", "qform.QuadraticForm", "qform.is_isotropic",
    "csa.StructureAlgebra.mul", "csa.StructureAlgebra.nrd", "arith.factorize",
    "arith.hilbert_symbol", "quat.is_split",
)
# name -> (unit, better)
PER_LAYER = {
    **{f"{s}.s": ("s", "lower") for s in _SPAN_SECONDS},
    **{f"{s}.calls": ("count", "lower") for s in _SPAN_CALLS},
    **{f"{layer}.self_s": ("s", "lower")
       for layer in ("shapiro4", "linalg", "qform", "csa", "arith", "quat")},
    "shapiro4.build_D.hit_frac": ("fraction", "higher"),
    "shapiro4.fallback_frac": ("fraction", "lower"),
    "shapiro4.definite_frac": ("fraction", "lower"),
    "linalg.lll_reduce.max_dim": ("count", "lower"),
    "linalg.lll_reduce.max_bits": ("bits", "lower"),
    "linalg.lll_reduce.failures": ("count", "lower"),
    "linalg.lll_reduce.failed_ops": ("count", "lower"),
    "qform.isotropic_witnesses.drawn": ("per_call", "lower"),
    "qform.WitnessSearchLimit.count": ("count", "lower"),
    "csa.UncomputableInvariant.count": ("count", "lower"),
    "arith.factorize.max_bits": ("bits", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # runs compare only at the library's default witness-search ceiling
    env.pop("PFISTER_SEARCH_CEILING", None)
    return env


def launch(args: argparse.Namespace, setup_only: bool) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its "ready" line.

    Returns the worker, its set-up time as measured (less the time its
    reference samples took) and the set-up's speed factor.
    """
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline().split()
    ready = time.perf_counter() - start
    if len(line) != 3 or line[0] != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not finish set-up (exit code {proc.returncode})")
    factor, sampling = float(line[1]), float(line[2])
    return proc, ready - sampling, factor


def finish(proc: subprocess.Popen) -> str:
    """The worker's remaining stdout, once it has exited successfully."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker overran its time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def measure(args: argparse.Namespace) -> tuple[list[tuple[float, float]], dict]:
    """Set-up launches, then the measured run.

    Returns (set-up time, speed factor) per set-up launch and the run's
    result.
    """
    setups = []
    for _ in range(SETUP_LAUNCHES):
        proc, ready, factor = launch(args, setup_only=True)
        finish(proc)
        setups.append((ready, factor))
    proc, _, _ = launch(args, setup_only=False)
    return setups, json.loads(finish(proc).strip().splitlines()[-1])


def sha256_json(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def build_report(args, setups: list[tuple[float, float]], result: dict) -> dict:
    ops = [stats.Op(lat, verified, failure) for lat, verified, failure in result["ops"]]
    summary = stats.summarize(ops)
    factors = result["speed_factors"]
    factor = statistics.median(factors)
    # failures stay censored at the run's own timed wall, which the time
    # budget fixes whatever the machine's speed
    scaled = stats.latency_summary(stats.rescale(ops, factors), summary["timed_wall_s"])
    digests = result["op_digests"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": result["env"],
        "setup_s": statistics.median(ready * factor for ready, factor in setups),
        "setup_measured_s": statistics.median(ready for ready, _ in setups),
        "setup_samples": setups,
        "speed_factor": factor,
        "op_p25_s": scaled["op_p25_s"],
        "op_p75_s": scaled["op_p75_s"],
        "at_reference_speed": scaled,
        "measured": summary,
        "peak_rss_mb": result["peak_rss_mb"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "correct": not result["wrong"],
        "wrong_outputs": result["wrong"],
        "outputs_sha256": result["outputs_sha256"],
        "outputs_prefix_ops": min(PREFIX_OPS, len(digests)),
        "outputs_prefix_sha256": sha256_json(digests[:PREFIX_OPS]),
        "ops": result["ops"],
        "reference_samples": result["reference_samples"],
    }
    if result["trace"] is not None:
        report["per_layer"] = result["trace"]["metrics"]
        report["failure_origins"] = result["trace"]["failure_origins"]
    return report


def print_table(report: dict, metrics: dict) -> None:
    env, m, a = report["env"], report["measured"], report["at_reference_speed"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}"
        f"  trace {report['trace']}"
    )
    print(
        f"env  python {env['python']}  sympy {env['sympy']}  gmpy2 {'yes' if env['gmpy2'] else 'no'}"
        f"  nproc {env['nproc']}  PYTHONHASHSEED {env['PYTHONHASHSEED']}"
        f"  PFISTER_SEARCH_CEILING {env['PFISTER_SEARCH_CEILING']}"
    )
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  speed factor to reference speed {report['speed_factor']:.4g} (median over ops)")
    print(f"  {'':<22}{'measured':>14}{'at ref speed':>14}")
    print(f"  {'setup_s':<22}{report['setup_measured_s']:>14.6g}{report['setup_s']:>14.6g} s")
    for key in ("op_p25_s", "op_p50_s", "op_p75_s", "op_tail_s", "op_gmean_s"):
        print(f"  {key:<22}{m[key]:>14.6g}{a[key]:>14.6g} s")
    print(
        f"  op_tail_s is p{m['op_tail_percentile']:g} with {m['op_tail_ops_above']} ops above"
        f"{', on a failure' if m['op_tail_on_failure'] else ''}"
    )
    print(f"  {'verified_per_s':<22}{m['verified_per_s']:>14.6g} 1/s")
    print(f"  {'fail_frac':<22}{m['fail_frac']:>14.6g}   {m['failures']}")
    print(f"  {'peak_rss_mb':<22}{report['peak_rss_mb']:>14.6g} MB")
    print(f"  ops {m['attempted']}  verified {m['verified']}  timed wall {m['timed_wall_s']:.6g} s")
    if "failure_origins" in report:
        print(f"  failed ops by the span they were raised in: {report['failure_origins']}")
    if report["wrong_outputs"]:
        print(f"  WRONG OUTPUTS: {report['wrong_outputs']}")
    print(f"  outputs sha256 {report['outputs_sha256']} ({m['attempted']} ops)")
    print(
        f"  outputs sha256 of the first {report['outputs_prefix_ops']} ops"
        f" {report['outputs_prefix_sha256']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + SAMPLED)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pfisterinv" / "__init__.py").is_file():
        print(f"no pfisterinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    try:
        setups, result = measure(args)
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    report = build_report(args, setups, result)
    if args.trace:
        layers = report["per_layer"]
        metrics = {
            name: {"value": float(layers.get(name, 0)), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        metrics = {name: {"value": float(report[name]), "unit": unit} for name, unit in END_TO_END.items()}
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    blob = json.dumps(report, indent=1, sort_keys=True).encode()
    path.write_bytes(blob)
    print_table(report, metrics)
    print(f"  report {path.relative_to(ROOT)} sha256 {hashlib.sha256(blob).hexdigest()}")
    line = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
