"""Tests of the benchmark itself.

Run from the root of a checkout: python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    tracer = tracing.Tracer()
    # cli [0, 10] holds setsys [1, 4] and zar [5, 9]; zar holds setsys [6, 7]
    tracer.spans = [
        ["cli.main", "cli", 0.0, 10.0, -1],
        ["setsys.trace", "setsys", 1.0, 4.0, 0],
        ["zar.zarankiewicz", "zar", 5.0, 9.0, 0],
        ["setsys.trace", "setsys", 6.0, 7.0, 2],
    ]
    self_s = tracer.self_times()
    assert (self_s["cli"], self_s["setsys"], self_s["zar"]) == (3.0, 4.0, 3.0)
    assert sum(self_s.values()) == 10.0


def test_wrapped_calls_nest_and_self_times_add_up():
    tracer = tracing.Tracer()
    inner = tracer.wrap("setsys", lambda: sum(range(20000)))
    outer = tracer.wrap("zar", lambda: [inner() for _ in range(3)])
    t0 = perf_counter()
    outer()
    total = perf_counter() - t0
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 0, 0]
    self_s = tracer.self_times()
    root = tracer.spans[0]
    assert abs(self_s["zar"] + self_s["setsys"] - (root[tracing.END] - root[tracing.START])) < 1e-9
    assert 0 < self_s["setsys"] and 0 < self_s["zar"] < total


def _cheap_zar_ops(work):
    return [op for op in workloads.zar_search_ops(0, work) if " n3 " in op.name or " d3 " in op.name]


def test_planted_wrong_answer_raises_failed_ratio(tmp_path):
    ops = _cheap_zar_ops(tmp_path)
    deadline = perf_counter() + 60

    def finish(one_pass):
        runs = [[o] for o in one_pass.outcomes]
        return run.report("zar-search", 0, runs, {}, dict(run.END_TO_END), {}, [])

    honest = finish(run.run_pass(ops, run.run_inprocess, deadline, tmp_path))
    assert (honest["correct"], honest["failed"], honest["attempted"]) == (True, 0, len(ops))

    def planted(op, timeout, work):
        outcome = run.run_inprocess(op, timeout, work)
        if op.name == "zar n3 d3 m3":  # claim z(3,3,3) = 26 instead of 27
            outcome.stdout = outcome.stdout.replace("3,3,3,27,", "3,3,3,26,")
        return outcome

    wrong = finish(run.run_pass(ops, planted, deadline, tmp_path))
    assert (wrong["correct"], wrong["failed"], wrong["attempted"]) == (False, 1, len(ops))


def test_crash_and_timeout_are_wrong_outcomes(tmp_path):
    (op,) = [op for op in _cheap_zar_ops(tmp_path) if op.name == "zar n3 d3 m3"]
    assert workloads.judge(op, 1, "", "Traceback ...\nKeyError: 9", tmp_path).startswith("exit code 1")
    assert workloads.judge(op, None, "", "", tmp_path) == "timed out"


# Keys whose values are the generated content rather than its size.
CONTENT_KEYS = ("tuples", "edges")
SIZE_KEYS = ("part_sizes", "domain", "n", "arity", "m", "s", "cap")


def _sizes(doc, key=None):
    if isinstance(doc, dict):
        return {k: _sizes(v, k) for k, v in doc.items() if k not in CONTENT_KEYS}
    if key in SIZE_KEYS or (isinstance(doc, str) and doc.endswith(".json")):
        return doc
    return len(doc) if isinstance(doc, list) else type(doc).__name__


def _files(workload, seed, work):
    inputs.write_inputs(workload, seed, work)
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def test_inputs_are_a_function_of_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        first = _files(workload, 7, tmp_path / workload / "a")
        again = _files(workload, 7, tmp_path / workload / "b")
        other = _files(workload, 8, tmp_path / workload / "c")
        assert first == again
        assert first.keys() == other.keys()
        for name in first:
            assert _sizes(json.loads(first[name])) == _sizes(json.loads(other[name])), name
        if workload != "zar-search":
            assert first != other
        ops = [(op.name, len(op.argv)) for op in workloads.operations(workload, 7, tmp_path)]
        assert ops == [(op.name, len(op.argv)) for op in workloads.operations(workload, 8, tmp_path)]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_independent_values():
    # Reiman's bound z(2,m,2) - 1 <= m (1 + sqrt(4m - 3)) / 2 holds for the table
    assert all(z - 1 <= m * (1 + (4 * m - 3) ** 0.5) / 2 for m, z in workloads.Z_D2.items())
    assert workloads.naive_z(2, 3, 2) == workloads.Z_D2[3]
    assert workloads.naive_z(2, 4, 3) == workloads.Z_D3[4]
    assert workloads.pigeonhole_sum_sizes(2, 2, 2) == (17, 3)
    assert workloads.family_size((2, 3, 4)) == 582


def test_ipn_check_sees_both_answers(tmp_path):
    import driver

    seen = set()
    for seed in range(1, 7):
        work = tmp_path / str(seed)
        inputs.write_inputs("shatter-families", seed, work)
        want = workloads.ipn_reference(work)
        seen.update(want)
        got = driver.run("verify_ipn_witness", str(work / "ipn.spec.json"))
        assert json.loads(got)["realized"] == want
    # a verify_ipn_witness that always answered one way would fail the check
    assert seen == {True, False}


def test_launcher_reports_the_childs_own_peak_rss(tmp_path):
    import launch

    before = launch.peak_rss_kib()
    block = b"\x01" * (64 << 20)
    peak_mb = launch.peak_rss_kib() / 1024
    assert peak_mb >= before / 1024 + 60
    del block
    (op,) = [op for op in _cheap_zar_ops(tmp_path) if op.name == "zar n3 d3 m3"]
    outcome = run.run_subprocess(op, 60.0, tmp_path)
    assert outcome.code == 0 and workloads.judge(op, outcome.code, outcome.stdout, outcome.stderr, tmp_path) is None
    # the child's figure is its own, not inherited from this process's peak
    assert 0 < outcome.rss_mb < peak_mb - 50
