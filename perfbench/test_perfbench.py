"""Tests of the benchmark's own logic: the percentile rule, the re-checkers,
the span installation, and agreement of BENCHMARK.json with run.py."""

import copy
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import screen  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pfisterinv import arith, qform  # noqa: E402

FIXTURE = HERE / "fixtures" / "s4_report_seed36.json"


def ops_from(latencies, failed=()):
    return [stats.Op(t, k not in failed, "Boom" if k in failed else None) for k, t in enumerate(latencies)]


def test_median_of_verified_ops():
    ops = ops_from([0.3, 0.1, 0.2])
    assert stats.percentile(ops, 50).value_s == 0.2
    assert not stats.percentile(ops, 50).lands_on_failure


def test_failures_rank_slower_than_every_success():
    # the failure is the fastest op, yet it ranks last, at the run's wall time
    ops = ops_from([0.01, 5.0, 6.0], failed={0})
    wall = stats.timed_wall(ops)
    top = stats.percentile(ops, 100)
    assert top.lands_on_failure and top.value_s == wall
    assert stats.percentile(ops, 50).value_s == 6.0


def test_zero_verified_ops():
    ops = ops_from([1.0, 2.0, 1.5], failed={0, 1, 2})
    summary = stats.summarize(ops)
    assert summary["verified"] == 0 and summary["verified_per_s"] == 0.0
    assert summary["fail_frac"] == 1.0
    assert summary["op_p50_s"] == summary["op_tail_s"] == pytest.approx(4.5)
    assert summary["op_gmean_s"] == pytest.approx(4.5)
    assert summary["failures"] == {"Boom": 3}


def test_tail_leaves_at_least_ten_ops_above():
    ops = ops_from([float(k + 1) for k in range(40)])
    t = stats.tail(ops)
    assert t.percentile == 75.0 and t.ops_above == 10 and t.value_s == 30.0
    many = ops_from([float(k + 1) for k in range(1000)])
    assert stats.tail(many).percentile == 99.0 and stats.tail(many).ops_above == 10


def test_nearest_rank_ignores_float_error():
    assert stats.nearest_rank(100, 7) == 7
    assert stats.nearest_rank(14, 25) == 4 and stats.nearest_rank(1, 25) == 1


def test_tail_with_too_few_ops_is_the_maximum():
    t = stats.tail(ops_from([1.0, 3.0, 2.0]))
    assert t.percentile == 100.0 and t.ops_above == 0 and t.value_s == 3.0


def test_tail_landing_on_failures():
    ops = ops_from([0.1] * 30 + [0.2] * 10, failed=set(range(30, 40)))
    t = stats.tail(ops)
    assert not t.lands_on_failure and t.value_s == 0.1
    ops = ops_from([0.1] * 29 + [0.2] * 11, failed=set(range(29, 40)))
    t = stats.tail(ops)
    assert t.lands_on_failure and t.value_s == stats.timed_wall(ops)


def test_failing_faster_never_improves_a_number():
    slow = stats.summarize(ops_from([1.0] * 20 + [3.0] * 5, failed={20, 21, 22, 23, 24}))
    fast = stats.summarize(ops_from([1.0] * 20 + [0.01] * 5, failed={20, 21, 22, 23, 24}))
    success = stats.summarize(ops_from([1.0] * 20 + [3.0] * 5))
    for key in ("op_p50_s", "op_tail_s", "op_gmean_s"):
        assert success[key] <= fast[key]
    assert fast["op_gmean_s"] > success["op_gmean_s"]
    assert slow["verified"] == fast["verified"] == 20


def test_rescaling_keeps_failures_at_the_measured_wall():
    ops = ops_from([1.0, 2.0, 3.0, 4.0], failed={3})
    wall = stats.timed_wall(ops)
    scaled = stats.latency_summary(stats.rescale(ops, [0.5] * len(ops)), wall)
    assert scaled["op_p25_s"] == 0.5 and scaled["op_p75_s"] == 1.5
    assert stats.percentile(stats.rescale(ops, [0.5] * len(ops)), 100, wall).value_s == wall


def test_each_op_is_rescaled_by_the_samples_around_it():
    r = reference.REFERENCE_S
    samples = [(0.0, r), (1.0, 3 * r), (1.5, r / 2), (9.0, 2 * r)]
    spans = [(0.9, 1.6), (0.2, 0.3), (3.0, 3.1), (5.0, 6.0)]
    factors = reference.local_factors(samples, spans, margin_s=0.1)
    # two samples inside; one within the margin; none near, so the last
    # sample before the op (twice)
    assert factors == pytest.approx([4 / 7, 1, 2, 2])
    assert reference.sample() > 0


def load_fixture():
    return json.loads(FIXTURE.read_text())


def test_checker_accepts_a_verified_report():
    workloads.check_s4_report(load_fixture())


def test_checker_rejects_a_perturbed_lagrangian_vector():
    data = load_fixture()
    bad = copy.deepcopy(data)
    v = bad["lagrangian"][3]
    v[5] = arith.rat_str(arith.rat(v[5]) + 1)
    with pytest.raises(workloads.CheckFailed) as info:
        workloads.check_s4_report(bad)
    assert info.value.wrong and info.value.check.startswith("lagrangian")


def test_checker_rejects_a_broken_u():
    bad = load_fixture()
    bad["u"][1] = arith.rat_str(arith.rat(bad["u"][1]) + 1)
    with pytest.raises(workloads.CheckFailed) as info:
        workloads.check_s4_report(bad)
    assert info.value.wrong


def test_a_failed_verdict_is_a_failure_not_a_wrong_output():
    bad = load_fixture()
    bad["verdict"] = "fail"
    with pytest.raises(workloads.CheckFailed) as info:
        workloads.check_s4_report(bad)
    assert not info.value.wrong and info.value.check == "verdict"


def test_forms_checker_rejects_a_bad_witness():
    forms = workloads.Forms(seed=0)
    gram = [[1, 0, 0], [0, -1, 0], [0, 0, 2]]
    out = forms.run(gram)
    forms.check(gram, out)
    bad = dict(out, witness=(1, 2, 0))
    with pytest.raises(workloads.CheckFailed):
        forms.check(gram, bad)


def test_inputs_depend_only_on_the_seed():
    a, b = workloads.Forms(seed=3), workloads.Forms(seed=3)
    assert [a.make_input(k) for k in range(12)] == [b.make_input(k) for k in range(12)]
    assert [len(a.make_input(k)) for k in range(6)] == list(workloads.FORM_DIMS)
    c = workloads.Forms(seed=4)
    assert [a.make_input(k) for k in range(12)] != [c.make_input(k) for k in range(12)]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_runs_draw_only_screened_candidates(name):
    screened = json.loads(workloads.SCREENED.read_text())[name]["verified"]
    pool = {i for indices in screened.values() for i in indices}
    workload = workloads.make_workload(name, seed=5)
    workload.setup()
    candidates = {repr(workload.candidate(i)): i for i in sorted(pool)}
    seen = [candidates.get(repr(workload.make_input(k))) for k in range(2 * len(screened))]
    assert None not in seen
    # every stratum in turn, without repeats until a stratum is used up
    assert [workload.stratum(i) for i in seen[: len(screened)]] == list(screened)
    assert len(set(seen)) == len(seen) or min(map(len, screened.values())) == 1


def test_sampled_workloads_run_every_candidate():
    workload = workloads.make_workload("forms-sampled", seed=9)
    assert workload.sampled and workload.name == "forms"
    assert [workload.make_input(k) for k in range(3)] == [workload.candidate(9 + k) for k in range(3)]


def test_screen_merge_replaces_the_rescreened_range():
    entry = {"ranges": [[0, 4]], "verified": {"all": [0, 2, 3]}, "failed": {"Boom": [1]}}
    merged = screen.merge(entry, 2, 6, {2: ("all", "Boom"), 3: ("all", "verified"),
                                         4: ("all", "verified"), 5: ("x", "verified")})
    assert merged == {
        "ranges": [[0, 4], [2, 6]],
        "verified": {"all": [0, 3, 4], "x": [5]},
        "failed": {"Boom": [1, 2]},
    }


def test_spans_are_installed_everywhere_and_removed():
    original = arith.factorize
    assert qform.factorize is original
    tracer = tracing.Tracer()
    inst = tracing.instrument(tracer)
    try:
        assert arith.factorize is not original and qform.factorize is arith.factorize
        start = time.perf_counter()
        q = qform.QuadraticForm.from_diagonal([1, 1, -3])
        qform.is_isotropic(q)
        q.invariants()
        elapsed = time.perf_counter() - start
    finally:
        inst.restore()
    assert arith.factorize is original and qform.factorize is original
    assert tracer.stats["qform.is_isotropic"].calls == 1
    assert tracer.stats["qform.QuadraticForm"].calls >= 1
    assert tracer.stats["arith.hilbert_symbol"].calls >= 1
    # self times partition the traced time: no span is counted twice
    assert 0 < sum(tracer.layer_self_s().values()) <= elapsed
    for span in tracer.stats.values():
        assert 0 <= span.self_s <= span.total_s
    assert not tracer.stack


def test_span_records_where_an_exception_arose():
    tracer = tracing.Tracer()
    inst = tracing.instrument(tracer)
    try:
        with pytest.raises(ValueError) as info:
            qform.QuadraticForm([[1, 2], [3, 4]])  # not symmetric
    finally:
        inst.restore()
    assert tracing.origin_of(info.value) == "qform.QuadraticForm"
    assert tracer.stats["qform.QuadraticForm"].failures == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert Fraction(spec["run_seconds"]) > 0
