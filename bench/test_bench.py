"""Tests of the benchmark harness itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import resource
import sys
import time

import pytest

import run
import tracing


def python(code):
    return [sys.executable, "-c", code]


def test_wait4_attributes_memory_to_each_child(tmp_path):
    env = run.child_env()
    big = run.run_process(python("b = b'x' * (160 << 20)"), tmp_path, env, 60)
    small = run.run_process(python("pass"), tmp_path, env, 60)
    assert big.exit == 0 and small.exit == 0
    assert big.rss_mb >= 160
    assert small.rss_mb < 60
    # the aggregate over reaped children still remembers the big one
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert children >= 160


def test_timeout_is_recorded_not_waited_for(tmp_path):
    result = run.run_process(python("import time; time.sleep(60)"), tmp_path,
                             run.child_env(), 0.5)
    assert result.timed_out and result.exit is None
    assert result.wall_s < 10
    job = run.Job(key="sleep", argv=[], expect={})
    assert run.check(job, result.exit, result.stdout, result.stderr,
                     result.timed_out) == ["timeout"]


def cheapest(golden, kind):
    keys = [k for k, e in golden["jobs"].items()
            if e.get("pool") and e["argv"][0] == kind]
    return min(keys, key=lambda k: golden["jobs"][k]["seconds"])


def test_corrupted_golden_digest_is_counted_as_failure(tmp_path):
    golden = run.load_golden()
    good = run.make_job(golden, cheapest(golden, "restrict"))
    bad = run.make_job(golden, good.key)
    bad.expect = dict(good.expect, stdout_sha256="0" * 64)
    tally = run.Tally()
    run.run_pass([good, bad], tmp_path, run.child_env(), tmp_path, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "stdout digest mismatch" in tally.problems[0]


def test_expected_failures_pass_their_stderr_checks(tmp_path):
    golden = run.load_golden()
    jobs = [run.make_job(golden, key, cache=True)
            for key, entry in golden["jobs"].items()
            if entry.get("failure") and entry["seconds"] < 1]
    assert {job.expect["failure"] for job in jobs} == {"usage-error",
                                                       "resource-cap"}
    tally = run.Tally()
    run.run_pass(jobs, tmp_path, run.child_env(), tmp_path, tally)
    assert tally.failed == 0, tally.problems


def test_speed_probe_scales_by_the_probes_inside_an_interval():
    ref = run.REF_PROBE_S
    probe = run.SpeedProbe()
    probe.samples = [(0.0, ref), (1.0, 2 * ref), (1.1, 2 * ref),
                     (1.2, 2 * ref), (1.3, 2 * ref), (1.4, 9 * ref),
                     (1.5, 2 * ref)]
    # the 9x probe was preempted by a child and is left out
    assert probe.scale(0.9, 1.6) == pytest.approx(0.5)
    # an interval with too few probes uses the ones nearest its middle
    assert probe.scale(0.0, 0.0) == pytest.approx(5 / 9)


def test_speed_probe_samples_while_running():
    with run.SpeedProbe() as probe:
        time.sleep(10 * run.PROBE_INTERVAL_S)
    assert len(probe.samples) >= 3
    assert all(seconds > 0 for _, seconds in probe.samples)


def test_query_stream_is_a_function_of_the_seed():
    golden = run.load_golden()
    first = run.workload_jobs("query-stream", 0, golden)
    again = run.workload_jobs("query-stream", 0, golden)
    held_out = run.workload_jobs("query-stream", 1, golden)
    assert [j.key for j in first] == [j.key for j in again]
    assert [j.key for j in first] != [j.key for j in held_out]
    for seed in range(20):
        jobs = run.workload_jobs("query-stream", seed, golden)
        assert len(jobs) >= 40
        assert all(job.key in golden["jobs"] and job.cache for job in jobs)


class FakeClock:
    """Advances one unit per reading, so every interval is exact."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now


def test_spans_nest_and_self_times_sum_to_total():
    tracer = tracing.Tracer(clock=FakeClock())

    def leaf():
        tracer.clock.now += 10

    hot_leaf = tracer.wrap("poly.leaf", leaf)
    inner = tracer.wrap("gkm.inner", lambda: (hot_leaf(), hot_leaf()), keep=True)
    outer = tracer.wrap("cli.outer", lambda: (inner(), tracer.clock()), keep=True)
    start = tracer.clock()
    for job in range(2):
        tracer.job = job
        outer()
    total = tracer.clock() - start

    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("cli.outer", None, 0), ("gkm.inner", 0, 0),
        ("cli.outer", None, 1), ("gkm.inner", 2, 1),
    ]
    for name, begin, end, parent, _ in tracer.spans:
        if parent is not None:
            assert tracer.spans[parent][1] <= begin <= end <= tracer.spans[parent][2]
    assert tracer.calls["poly.leaf"] == 4
    assert tracer.self_time["poly.leaf"] == 4 * 11
    uncovered = total - tracer.covered()
    assert uncovered > 0
    assert sum(tracer.self_time.values()) + uncovered == total


def test_traced_replay_covers_real_jobs_and_restores_petcalc(tmp_path):
    golden = run.load_golden()
    petcalc = run.import_petcalc()
    originals = (petcalc.gkm.billey_restriction, petcalc.cli.billey_restriction,
                 petcalc.poly.Polynomial.__mul__)
    jobs = [run.make_job(golden, cheapest(golden, kind), cache=True)
            for kind in ("mult", "peterson-mult", "expand")]
    run.write_classes(golden, jobs, tmp_path / "classes")
    tracer = tracing.Tracer()
    systems = []
    assert tracing.install_petcalc_hooks(tracer, systems) == []
    tally = run.Tally()
    try:
        total, output_bytes = run.replay(petcalc, jobs, tmp_path,
                                         tmp_path / "classes", tally, tracer,
                                         systems)
    finally:
        tracer.restore()
    assert tally.failed == 0, tally.problems
    assert output_bytes > 0
    assert originals == (petcalc.gkm.billey_restriction,
                         petcalc.cli.billey_restriction,
                         petcalc.poly.Polynomial.__mul__)
    names = {span[0] for span in tracer.spans}
    assert {"cli.job", "rootsys.build", "gkm.structure_constants",
            "peterson.pair", "cache.load", "cache.save"} <= names
    for name, begin, end, parent, job in tracer.spans:
        if name != "cli.job":
            assert parent is not None and tracer.spans[parent][4] == job
    assert tracer.calls["gkm.product"] == 1 and tracer.calls["gkm.solve"] == 2
    uncovered = total - tracer.covered()
    assert sum(tracer.self_time.values()) + uncovered == pytest.approx(total,
                                                                       abs=1e-9)


def test_benchmark_json_matches_the_tables_in_run_py():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.spec()
