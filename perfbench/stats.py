"""Summary statistics of one benchmark run.

Every op has a latency and an outcome. A failed op never delivered a
verdict, so it ranks slower than every verified op: its latency is censored
at the run's timed wall time, which is at least as long as any single op of
that run. With that convention a failure can never improve a number, and
failing faster does not help either.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

# percentiles tried for the tail, highest first; the tail is the highest one
# that still leaves at least TAIL_MIN_ABOVE ops ranked above it
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_ABOVE = 10


@dataclass(frozen=True)
class Op:
    latency_s: float
    verified: bool
    failure: Optional[str] = None  # exception name or failed check name


def rescale(ops: Sequence[Op], factors: Sequence[float]) -> list[Op]:
    """The same ops with each latency multiplied by its factor."""
    return [Op(op.latency_s * f, op.verified, op.failure) for op, f in zip(ops, factors, strict=True)]


@dataclass(frozen=True)
class Percentile:
    percentile: float  # 100.0 means the maximum (too few ops for the rule)
    value_s: float
    ops_above: int
    lands_on_failure: bool


def timed_wall(ops: Sequence[Op]) -> float:
    """Sum of op latencies: the run's timed region, without untimed gaps."""
    return sum(op.latency_s for op in ops)


def ranked(ops: Sequence[Op], censor_s: Optional[float] = None) -> list[tuple[bool, float]]:
    """(failed, censored latency) for every op, slowest last.

    Failures sort after every verified op regardless of their own duration,
    at ``censor_s``, by default the run's timed wall.
    """
    wall = timed_wall(ops) if censor_s is None else censor_s
    return sorted((not op.verified, wall if not op.verified else op.latency_s) for op in ops)


def nearest_rank(n: int, percentile: float) -> int:
    """1-based nearest-rank index of a percentile among n sorted samples."""
    # rounding first keeps float error (7 / 100 * 100 = 7.000000000000001) from
    # moving the rank up by one
    return max(1, math.ceil(round(percentile / 100.0 * n, 9)))


def percentile(ops: Sequence[Op], p: float, censor_s: Optional[float] = None) -> Percentile:
    rows = ranked(ops, censor_s)
    if not rows:
        raise ValueError("no ops")
    k = nearest_rank(len(rows), p)
    failed, value = rows[k - 1]
    return Percentile(p, value, len(rows) - k, failed)


def tail(ops: Sequence[Op], censor_s: Optional[float] = None) -> Percentile:
    """Highest ladder percentile with at least TAIL_MIN_ABOVE ops above it.

    With too few ops for any ladder step the maximum is reported, marked as
    percentile 100 with zero ops above.
    """
    n = len(ops)
    for p in TAIL_LADDER:
        if n - nearest_rank(n, p) >= TAIL_MIN_ABOVE:
            return percentile(ops, p, censor_s)
    return percentile(ops, 100.0, censor_s)


def geometric_mean_latency(ops: Sequence[Op], censor_s: Optional[float] = None) -> float:
    """Geometric mean of the censored latencies.

    Unlike a throughput, it is not dominated by a handful of very slow ops,
    yet every failure still weighs in at the run's full wall time.
    """
    rows = ranked(ops, censor_s)
    return math.exp(statistics.fmean(math.log(max(v, 1e-9)) for _, v in rows))


def failure_tally(ops: Sequence[Op]) -> dict[str, int]:
    tally: dict[str, int] = {}
    for op in ops:
        if not op.verified:
            tally[op.failure or "unknown"] = tally.get(op.failure or "unknown", 0) + 1
    return dict(sorted(tally.items()))


def latency_summary(ops: Sequence[Op], censor_s: float) -> dict:
    t = tail(ops, censor_s)
    return {
        "op_p25_s": percentile(ops, 25.0, censor_s).value_s,
        "op_p50_s": percentile(ops, 50.0, censor_s).value_s,
        "op_p75_s": percentile(ops, 75.0, censor_s).value_s,
        "op_tail_s": t.value_s,
        "op_tail_percentile": t.percentile,
        "op_tail_ops_above": t.ops_above,
        "op_tail_on_failure": t.lands_on_failure,
        "op_gmean_s": geometric_mean_latency(ops, censor_s),
    }


def summarize(ops: Sequence[Op]) -> dict:
    """Every per-run number the benchmark reports about its ops."""
    wall = timed_wall(ops)
    verified = sum(op.verified for op in ops)
    return {
        "attempted": len(ops),
        "verified": verified,
        "failed": len(ops) - verified,
        "timed_wall_s": wall,
        "verified_per_s": verified / wall if wall > 0 else 0.0,
        "fail_frac": (len(ops) - verified) / len(ops),
        "failures": failure_tally(ops),
        **latency_summary(ops, wall),
    }
