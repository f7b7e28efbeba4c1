"""petcalc benchmark: CLI workloads, end-to-end metrics, traced per-layer run.

    python3 bench/run.py --workload schubert-table --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload, one summary
    python3 bench/run.py --write-spec              # regenerate BENCHMARK.json

With ``--trace 0`` every job runs as a fresh ``python -m petcalc.cli``
child, one at a time (a closed loop with one client), and the run prints
the end-to-end metrics. Their times are scaled to a reference host speed
by a probe that samples the children's CPU while they run (SpeedProbe).
With ``--trace 1`` the same jobs are replayed in-process through
``petcalc.cli.main``, once plain and once with spans around each layer's
public functions, and the run prints the per-layer metrics. Every job's
exit code and stdout digest are checked against ``golden.json`` in both
modes. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

RUN_SECONDS = 40
SETUP_CALLS = 12  # at least this many timed set-up calls per run
IMPORT_REPEATS = 7
TIMEOUT_FACTOR = 8  # a job times out after this many times its recorded time
TIMEOUT_MIN_S = 20.0
TIMEOUT_MAX_S = 150.0
SETUP_STDOUT_SHA256 = hashlib.sha256(b"1\n").hexdigest()  # restriction of e at e
# Host-speed probe (README.md, Steadiness): a fixed loop timed every
# PROBE_INTERVAL_S on the children's CPU. Reported times are scaled to the
# speed at which one probe takes REF_PROBE_S, its mean on the host the
# bounds were tuned on.
PROBE_N = 3000
PROBE_INTERVAL_S = 0.05
PROBE_OUTLIER = 2.5  # a probe this many times slower than the fastest was preempted
PROBE_MIN_SAMPLES = 5
REF_PROBE_S = 0.0013

QUERY_SYSTEMS = ["G2", "A3", "B3", "C3", "A4", "D4"]
# One block per root system, in this order of query kinds. The seed picks
# each query's arguments from the recorded pool; the shape stays fixed so
# that every seed puts the same kinds of work behind the same cache state.
QUERY_BLOCK = ["restrict", "peterson-mult", "pullback", "mult", "restrict",
               "expand", "mult"]
# Expected failures, inserted after the block of the named root system.
QUERY_FAILURES = {"A3": "usage-error", "C3": "resource-cap"}

WORKLOADS = {
    "schubert-table": {
        "why": "table B3: Bruhat-triangular solve ~70% and polynomial multiply "
               "~25%; Billey fill under 1%; no Peterson code, no cache",
        "systems": ["B3"],
        "jobs": ["table B3 --out csv"],
    },
    "peterson-table": {
        "why": "table F4 and A5 --kind peterson: Billey DP at parabolic longest "
               "elements and the Peterson pair loop; no Schubert solve; the "
               "memory-heavy case",
        "systems": ["F4", "A5"],
        "jobs": ["table F4 --kind peterson --out csv",
                 "table A5 --kind peterson --out csv"],
    },
    "query-stream": {
        "why": "44 seeded single queries over six root systems sharing one "
               "disk cache: process start-up, whole-W row fills and the cache "
               "dominate",
        "systems": QUERY_SYSTEMS,
        "jobs": None,  # drawn from the pool per seed
    },
    "verify-sweep": {
        "why": "verify A4 --suite all: the only workload running the GKM, "
               "reduced-word, consistency and closed-form sweeps",
        "systems": ["A4"],
        "jobs": ["verify A4 --suite all"],
        # One 24-34 s pass per run cannot be made steady on a shared
        # 2-core host within the run budget; run it by name.
        "contract": False,
    },
}

# Bounds: on the shared 2-core host this was tuned on, unscaled times
# spread 0.11-0.35 from run to run; scaled by the speed probe they spread
# far less (README.md, Steadiness). How noisy the host is changes by the
# hour, so each time bound stays at the contract's maximum.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("query_p50_s", "s", "lower", 0.25),
    ("query_p75_s", "s", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.01),
]

PER_LAYER = [
    ("rootsys.build_s", "s", "lower"),
    ("rootsys.weyl_enumerate_s", "s", "lower"),
    ("rootsys.weyl_size", "count", "lower"),
    ("rootsys.self_s", "s", "lower"),
    ("poly.mul_calls", "count", "lower"),
    ("poly.mul_term_pairs", "count", "lower"),
    ("poly.mul_s", "s", "lower"),
    ("poly.addsub_calls", "count", "lower"),
    ("poly.addsub_s", "s", "lower"),
    ("poly.div_calls", "count", "lower"),
    ("poly.div_s", "s", "lower"),
    ("poly.positivity_s", "s", "lower"),
    ("poly.specialize_s", "s", "lower"),
    ("poly.text_s", "s", "lower"),
    ("poly.self_s", "s", "lower"),
    ("gkm.billey_fill_s", "s", "lower"),
    ("gkm.billey_nonzero", "count", "lower"),
    ("gkm.billey_fill_rss_mb", "MB", "lower"),
    ("gkm.products", "count", "lower"),
    ("gkm.product_s", "s", "lower"),
    ("gkm.solve_calls", "count", "lower"),
    ("gkm.solve_s", "s", "lower"),
    ("gkm.solve_useful_ratio", "ratio", "higher"),
    ("gkm.gkm_verify_s", "s", "lower"),
    ("gkm.billey_word_s", "s", "lower"),
    ("gkm.self_s", "s", "lower"),
    ("peterson.basis_s", "s", "lower"),
    ("peterson.pairs", "count", "lower"),
    ("peterson.pair_s", "s", "lower"),
    ("peterson.pullback_s", "s", "lower"),
    ("peterson.cross_validate_s", "s", "lower"),
    ("peterson.consistency_s", "s", "lower"),
    ("peterson.self_s", "s", "lower"),
    ("cache.load_s", "s", "lower"),
    ("cache.adopted", "count", "lower"),
    ("cache.save_s", "s", "lower"),
    ("cache.file_bytes", "bytes", "lower"),
    ("cache.useful_save_ratio", "ratio", "higher"),
    ("cache.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.self_s", "s", "lower"),
    ("trace.total_s", "s", "lower"),
]


def spec():
    """The BENCHMARK.json contract, generated from the tables above."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]}
                      for n, w in WORKLOADS.items() if w.get("contract", True)],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# -- jobs ----------------------------------------------------------------


@dataclass
class Job:
    key: str  # golden.json key: argv joined by spaces, class files symbolic
    argv: list  # CLI arguments after "python -m petcalc.cli"
    expect: dict  # exit, stdout_sha256, stderr, seconds
    cache: bool = False  # pass the pass-wide --cache directory


@dataclass
class JobResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int | None
    timed_out: bool
    stdout: bytes = b""
    stderr: str = ""
    start: float = 0.0  # perf_counter at start and at reaping
    end: float = 0.0


def child_env():
    """The CLI children's environment: this checkout's sources first, and
    bytecode cached under .bench_out, never next to the sources."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def run_process(argv, cwd, env, timeout):
    """Run one child to completion and read its own rusage from wait4.

    RUSAGE_CHILDREN would report the largest child reaped so far, so a
    small job run after a large one would inherit the large one's RSS.
    """
    cwd = Path(cwd)
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
    reaped = {}

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        reaped.update(end=time.perf_counter(), status=status, usage=usage)

    waiter = threading.Thread(target=reap, daemon=True)
    waiter.start()
    waiter.join(timeout)
    timed_out = waiter.is_alive()
    if timed_out:
        os.kill(proc.pid, 9)
        waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    usage = reaped["usage"]
    result = JobResult(
        wall_s=reaped["end"] - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit=None if timed_out else proc.returncode,
        timed_out=timed_out,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        start=start,
        end=reaped["end"],
    )
    out_path.unlink()
    err_path.unlink()
    return result


def reference_work(n):
    """A fixed amount of dict updates under tuple keys and small integer
    products: the kind of work petcalc's polynomial arithmetic does."""
    acc = {}
    for i in range(n):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0) + (i * i) % 1009
    return acc


def pin_to_one_cpu():
    """Keep this process, its threads and its children on one CPU, so the
    speed probe runs where the children run."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """Samples the speed of this CPU while the children run on it.

    A shared host changes speed in phases of a fraction of a second to
    minutes, and a child's CPU time moves with its wall time. A thread of
    this process times `reference_work(PROBE_N)` every PROBE_INTERVAL_S.
    Seconds measured over an interval are scaled by REF_PROBE_S over the
    mean probe time inside it, leaving out probes that the child
    preempted (slower than PROBE_OUTLIER times the fastest probe).
    """

    def __init__(self):
        self.samples = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            start = time.perf_counter()
            reference_work(PROBE_N)
            self.samples.append((start, time.perf_counter() - start))

    def clean(self):
        fastest = min(s for _, s in self.samples)
        return [(t, s) for t, s in self.samples if s < PROBE_OUTLIER * fastest]

    def scale(self, start, end):
        """Factor taking seconds measured in [start, end] to reference speed.

        An interval holding fewer than PROBE_MIN_SAMPLES probes uses the
        probes nearest its middle.
        """
        clean = self.clean()
        inside = [s for t, s in clean if start <= t <= end]
        if len(inside) < PROBE_MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(clean, key=lambda sample: abs(sample[0] - middle))
            inside = [s for _, s in nearest[:PROBE_MIN_SAMPLES]]
        return REF_PROBE_S / statistics.mean(inside)


def cli_argv(job, classes_dir, cache_dir):
    argv = [a.replace("{classes}", str(classes_dir)) for a in job.argv]
    if job.cache:
        argv += ["--cache", str(cache_dir)]
    return argv


def job_timeout(job):
    return min(TIMEOUT_MAX_S, max(TIMEOUT_MIN_S, TIMEOUT_FACTOR * job.expect["seconds"]))


def check(job, exit_code, stdout, stderr, timed_out):
    """Problems with one job's outcome; empty when it matches golden.json."""
    if timed_out:
        return ["timeout"]
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if exit_code != job.expect["exit"]:
        problems.append(f"exit {exit_code}, expected {job.expect['exit']}")
    if hashlib.sha256(stdout).hexdigest() != job.expect["stdout_sha256"]:
        problems.append("stdout digest mismatch")
    lines = [line for line in stderr.splitlines() if line.strip()]
    kind = job.expect["stderr"]
    if kind == "empty" and lines:
        problems.append(f"unexpected stderr: {lines[0]}")
    elif kind == "resource-cap" and len(lines) != 1:
        problems.append(f"expected one stderr line, got {len(lines)}")
    elif kind == "usage-error":
        # click prints its usage banner, then exactly one "Error:" line
        if sum(line.startswith("Error:") for line in lines) != 1:
            problems.append("expected exactly one 'Error:' line on stderr")
    return problems


# -- golden data and workload inputs -------------------------------------


def load_golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def make_job(golden, key, cache=False):
    entry = golden["jobs"][key]
    return Job(key=key, argv=entry["argv"], expect=entry, cache=cache)


def query_pool(golden):
    """Pool entries by (root system, query kind)."""
    pool = {}
    for key, entry in golden["jobs"].items():
        if entry.get("pool"):
            pool.setdefault((entry["argv"][1], entry["argv"][0]), []).append(key)
    return pool


def workload_jobs(name, seed, golden):
    """The jobs of one pass. The same seed gives the same jobs."""
    rng = random.Random(seed)
    fixed = WORKLOADS[name]["jobs"]
    if fixed is not None:
        jobs = [make_job(golden, key) for key in fixed]
        rng.shuffle(jobs)
        return jobs
    pool = query_pool(golden)
    jobs = []
    failures = {
        kind: [k for k, e in golden["jobs"].items() if e.get("failure") == kind]
        for kind in set(QUERY_FAILURES.values())
    }
    for system in QUERY_SYSTEMS:
        for kind in QUERY_BLOCK:
            jobs.append(make_job(golden, rng.choice(pool[(system, kind)]), cache=True))
        if system in QUERY_FAILURES:
            key = rng.choice(sorted(failures[QUERY_FAILURES[system]]))
            jobs.append(make_job(golden, key, cache=True))
    return jobs


def import_petcalc():
    """Import petcalc from this checkout, caching bytecode under .bench_out."""
    sys.pycache_prefix = str(OUT / "pycache")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import petcalc.cli

    return petcalc


def write_classes(golden, jobs, classes_dir):
    """Write the class files that the pass's expand jobs read."""
    petcalc = import_petcalc()
    classes_dir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        name = job.expect.get("class")
        if name is None or (classes_dir / f"{name}.json").exists():
            continue
        recipe = golden["classes"][name]
        (classes_dir / f"{name}.json").write_text(
            class_json(petcalc, recipe), encoding="utf-8"
        )


def class_json(petcalc, recipe):
    """The product of two Schubert classes, as `expand --values` reads it."""
    rs = petcalc.root_system_from_label(recipe["system"])
    u = petcalc.element_from_word(rs, [int(i) for i in recipe["u"].split()])
    v = petcalc.element_from_word(rs, [int(i) for i in recipe["v"].split()])
    product = petcalc.schubert_class(rs, u) * petcalc.schubert_class(rs, v)
    return json.dumps(product.to_json(), sort_keys=True) + "\n"


# -- measurement -----------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, job, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{job.key}: {'; '.join(problems)}")


def quantile(values, q):
    """Inclusive quantile q in (0, 1); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def run_setup(systems, workdir, env, tally, warm_up):
    """Results of timed calls of `restrict <system> --class e --at e`.

    This is what every CLI call pays before it does work: interpreter
    start, imports, click and the root-system build. Each of the
    workload's root systems is set up the same number of times, at least
    SETUP_CALLS / 2 in all. A warm-up call, untimed, fills the bytecode
    cache.
    """
    rounds = -(-SETUP_CALLS // (2 * len(systems)))
    results = []
    for system in systems[:warm_up] + systems * rounds:
        argv = [sys.executable, "-m", "petcalc.cli", "restrict", system,
                "--class", "e", "--at", "e"]
        result = run_process(argv, workdir, env, TIMEOUT_MIN_S)
        job = Job(key=" ".join(argv[3:]), argv=argv[3:], expect={
            "exit": 0, "stdout_sha256": SETUP_STDOUT_SHA256,
            "stderr": "empty", "seconds": 0.2})
        tally.record(job, check(job, result.exit, result.stdout,
                                result.stderr, result.timed_out))
        results.append(result)
    return results[warm_up:]


def run_pass(jobs, workdir, env, classes_dir, tally):
    """One closed-loop pass: each job starts when the previous one ends.

    Returns the jobs' results, in order.
    """
    cache_dir = workdir / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir()
    results = []
    for job in jobs:
        argv = [sys.executable, "-m", "petcalc.cli",
                *cli_argv(job, classes_dir, cache_dir)]
        result = run_process(argv, workdir, env, job_timeout(job))
        tally.record(job, check(job, result.exit, result.stdout, result.stderr,
                                result.timed_out))
        results.append(result)
    return results


def pass_metrics(results, probe):
    """One pass's metrics, its times scaled to reference speed job by job.

    Its wall time is the sum of the jobs' wall times; the harness's own
    work between jobs, a digest and a few file reads, is left out.
    """
    scales = [probe.scale(r.start, r.end) for r in results]
    latencies = [r.wall_s * k for r, k in zip(results, scales)]
    return {
        "wall_s": sum(latencies),
        "cpu_s": sum(r.cpu_s * k for r, k in zip(results, scales)),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "query_p50_s": quantile(latencies, 0.50),
        "query_p75_s": quantile(latencies, 0.75),
    }


def measure_end_to_end(name, seed, seconds, workdir, tally):
    golden = load_golden()
    env = child_env()
    jobs = workload_jobs(name, seed, golden)
    classes_dir = workdir / "classes"
    write_classes(golden, jobs, classes_dir)
    systems = WORKLOADS[name]["systems"]
    pin_to_one_cpu()
    passes = []
    with SpeedProbe() as probe:
        # half the set-up calls before the passes and half after, so that
        # the median spans the run rather than one moment of a shared host
        setup = run_setup(systems, workdir, env, tally, warm_up=1)
        first_attempt = tally.attempted
        start = time.perf_counter()
        while True:
            before = tally.failed
            passes.append(run_pass(jobs, workdir, env, classes_dir, tally))
            elapsed = time.perf_counter() - start
            if (elapsed + passes[-1][-1].end - passes[-1][0].start > seconds
                    or tally.failed > before):
                break
        attempted = tally.attempted - first_attempt
        setup += run_setup(systems, workdir, env, tally, warm_up=0)
    scaled = [pass_metrics(results, probe) for results in passes]
    summary = {key: [p[key] for p in scaled] for key in scaled[0]}
    summary["setup_s"] = [r.wall_s * probe.scale(r.start, r.end) for r in setup]
    metrics = {key: statistics.median(values) for key, values in summary.items()}
    metrics["ok_frac"] = 1.0 - (tally.failed / tally.attempted)
    report(name, summary, len(passes), attempted)
    probes = [s for _, s in probe.clean()]
    raw_wall = [sum(r.wall_s for r in results) for results in passes]
    print(f"#   unscaled: wall_s median {statistics.median(raw_wall):.4f} s, "
          f"setup_s median {statistics.median(r.wall_s for r in setup):.4f} s; "
          f"{len(probes)} of {len(probe.samples)} probes kept, mean "
          f"{statistics.mean(probes) * 1e3:.3f} ms (REF_PROBE_S "
          f"{REF_PROBE_S * 1e3:g} ms)", file=sys.stderr)
    return metrics


def report(name, summary, passes, attempted):
    print(f"# {name}: {passes} pass(es), {attempted} jobs", file=sys.stderr)
    units = {n: u for n, u, _, _ in END_TO_END}
    for key, values in summary.items():
        q1, q3 = (quantile(values, 0.25), quantile(values, 0.75))
        print(f"#   {key:<12} median {statistics.median(values):10.4f} "
              f"{units[key]:<3} q1 {q1:.4f} q3 {q3:.4f} n={len(values)}",
              file=sys.stderr)


def host_facts():
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "petcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "loadavg": os.getloadavg(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- traced run ------------------------------------------------------------


def replay(petcalc, jobs, workdir, classes_dir, tally, tracer=None, systems=None):
    """Run every job in-process through petcalc.cli.main; check its output.

    Returns the pass's wall seconds and its total stdout bytes.
    """
    cache_dir = workdir / "cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir()
    main = petcalc.cli.main

    def invoke(argv):
        try:
            main.main(args=argv, prog_name="petcalc", standalone_mode=True)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        return 0

    output_bytes = 0
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        argv = cli_argv(job, classes_dir, cache_dir)
        out, err = io.StringIO(), io.StringIO()
        call = invoke
        if tracer is not None:
            tracer.job = index
            systems.clear()
            call = tracer.wrap("cli.job", invoke, keep=True)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = call(argv)
            except Exception:  # a crash is this job's failure, not the run's
                traceback.print_exc(file=err)
                code = 1
        stdout = out.getvalue().encode("utf-8")
        output_bytes += len(stdout)
        tally.record(job, check(job, code, stdout, err.getvalue(), False))
        if tracer is not None:
            for rs in systems:
                tracer.counts["rootsys.weyl_size"] += len(
                    getattr(rs, "_weyl_list", None) or ())
                tracer.counts["gkm.billey_nonzero"] += len(
                    getattr(rs, "_billey", None) or ())
            systems.clear()
    return time.perf_counter() - start, output_bytes


def import_seconds(env, workdir):
    """Median of `python -c "import petcalc.cli"` minus `python -c pass`."""
    def median_wall(code):
        return statistics.median(
            run_process([sys.executable, "-c", code], workdir, env,
                        TIMEOUT_MIN_S).wall_s
            for _ in range(IMPORT_REPEATS))

    median_wall("import petcalc.cli")  # fill the bytecode cache
    return median_wall("import petcalc.cli") - median_wall("pass")


def measure_traced(name, seed, workdir, tally):
    import tracing

    golden = load_golden()
    petcalc = import_petcalc()
    jobs = workload_jobs(name, seed, golden)
    classes_dir = workdir / "classes"
    write_classes(golden, jobs, classes_dir)
    import_s = import_seconds(child_env(), workdir)

    # Traced first: ru_maxrss only rises, so a plain replay run before it
    # would hide the memory growth of the traced row fills.
    tracer = tracing.Tracer()
    systems = []
    missing = tracing.install_petcalc_hooks(tracer, systems)
    try:
        traced_s, output_bytes = replay(petcalc, jobs, workdir, classes_dir,
                                        tally, tracer, systems)
    finally:
        tracer.restore()
    plain_s, _ = replay(petcalc, jobs, workdir, classes_dir, tally)
    for hook in missing:
        print(f"# trace: petcalc has no {hook}; its metrics read 0",
              file=sys.stderr)
    write_spans(tracer, name, seed)

    t = tracer
    layers = t.layer_self()
    saves = t.calls["cache.save"]
    support = t.counts["gkm.solve_support"]
    metrics = {
        "rootsys.build_s": t.inclusive["rootsys.build"],
        "rootsys.weyl_enumerate_s": t.inclusive["rootsys.weyl_enumerate"],
        "rootsys.weyl_size": t.counts["rootsys.weyl_size"],
        "poly.mul_calls": t.calls["poly.mul"],
        "poly.mul_term_pairs": t.counts["poly.mul_term_pairs"],
        "poly.mul_s": t.inclusive["poly.mul"],
        "poly.addsub_calls": t.calls["poly.addsub"],
        "poly.addsub_s": t.inclusive["poly.addsub"],
        "poly.div_calls": t.calls["poly.div"],
        "poly.div_s": t.inclusive["poly.div"],
        "poly.positivity_s": t.inclusive["poly.positivity"],
        "poly.specialize_s": t.inclusive["poly.specialize"],
        "poly.text_s": t.inclusive["poly.text"],
        "gkm.billey_fill_s": t.inclusive["gkm.billey_fill"],
        "gkm.billey_nonzero": t.counts["gkm.billey_nonzero"],
        "gkm.billey_fill_rss_mb": t.counts["gkm.billey_fill_rss_mb"],
        "gkm.products": t.calls["gkm.product"],
        "gkm.product_s": t.inclusive["gkm.product"],
        "gkm.solve_calls": t.calls["gkm.solve"],
        "gkm.solve_s": t.inclusive["gkm.solve"],
        "gkm.solve_useful_ratio": t.counts["gkm.solve_nonzero"] / support
        if support else 0.0,
        "gkm.gkm_verify_s": t.inclusive["gkm.gkm_verify"],
        "gkm.billey_word_s": t.inclusive["gkm.billey_word"],
        "peterson.basis_s": t.inclusive["peterson.basis"],
        "peterson.pairs": t.calls["peterson.pair"],
        "peterson.pair_s": t.inclusive["peterson.pair"],
        "peterson.pullback_s": t.inclusive["peterson.pullback"],
        "peterson.cross_validate_s": t.inclusive["peterson.cross_validate"],
        "peterson.consistency_s": t.inclusive["peterson.consistency"],
        "cache.load_s": t.inclusive["cache.load"],
        "cache.adopted": t.counts["cache.adopted"],
        "cache.save_s": t.inclusive["cache.save"],
        "cache.file_bytes": t.counts["cache.file_bytes"],
        "cache.useful_save_ratio": t.counts["cache.useful_saves"] / saves
        if saves else 0.0,
        "cli.import_s": import_s,
        "cli.output_bytes": output_bytes,
        "trace.overhead_s": traced_s - plain_s,
        "trace.uncovered_s": traced_s - t.covered(),
        "trace.total_s": traced_s,
    }
    for layer in ("rootsys", "poly", "gkm", "peterson", "cache", "cli", "trace"):
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0)
    print(f"# {name} traced: {traced_s:.3f} s traced, {plain_s:.3f} s plain "
          f"in-process", file=sys.stderr)
    for key in sorted(metrics):
        print(f"#   {key:<28} {metrics[key]:.6g}", file=sys.stderr)
    return metrics


def write_spans(tracer, name, seed):
    """Kept spans and per-name totals, one JSON object per line."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for label, start, end, parent, job in tracer.spans:
            handle.write(json.dumps({"name": label, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
        for label in sorted(tracer.self_time):
            handle.write(json.dumps({
                "total": label, "calls": tracer.calls[label],
                "inclusive_s": tracer.inclusive[label],
                "self_s": tracer.self_time[label]}) + "\n")
    print(f"# spans written to {path.relative_to(ROOT)}", file=sys.stderr)


# -- entry point -------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT / "tmp"))
    try:
        if trace:
            metrics = measure_traced(name, seed, workdir, tally)
            units = {n: u for n, u, _ in PER_LAYER}
        else:
            metrics = measure_end_to_end(name, seed, seconds, workdir, tally)
            units = {n: u for n, u, _, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    return tally, {key: {"value": metrics[key], "unit": units[key]} for key in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the tables in this file")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if not (SRC / "petcalc" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"error: petcalc sources or {GOLDEN.name} not found under "
              f"{ROOT}; run from a full checkout", file=sys.stderr)
        return 2

    print("# host " + json.dumps(host_facts()), file=sys.stderr)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        tally, values = run_workload(name, args.seed, args.seconds, args.trace)
        correct = correct and not tally.failed
        attempted += tally.attempted
        failed += tally.failed
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + key: value for key, value in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
