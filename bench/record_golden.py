"""Record golden.json: the query pool and every job's expected outcome.

    python3 bench/record_golden.py

Run once at a commit whose output is trusted. Every job (the fixed table
and verify jobs, the query pool and the expected failures) runs as a CLI
child without --cache; its exit code, stdout SHA-256, stderr shape and
wall time are stored. Output bytes do not depend on --cache or on the
order of jobs, so the benchmark can check any seed's stream against
these digests. The pool itself is picked by a fixed generator, not by
the benchmark seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import run

POOL_SIZES = {"restrict": 6, "mult": 4, "pullback": 4, "peterson-mult": 4,
              "expand": 3}

FAILURES = {
    "usage-error": [
        ["restrict", "A3", "--class", "1 x", "--at", "e"],
        ["mult", "B3", "--u", "4", "--v", "1"],
        ["pullback", "G2", "--w", "s1 s9"],
    ],
    # `peterson-mult E6 --max-weyl 100` is left out: it ignores the cap
    # and runs for minutes (a known gap).
    "resource-cap": [
        ["mult", "A5", "--u", "1 2 3", "--v", "3 2 1", "--max-weyl", "100"],
        ["table", "A5", "--max-weyl", "100"],
        ["verify", "A5", "--suite", "gkm", "--max-weyl", "100"],
    ],
}
EXPECTED_EXIT = {"usage-error": 2, "resource-cap": 3}


def word(w):
    return " ".join(str(i) for i in w.word) or "e"


def subset(members):
    return ",".join(str(i) for i in sorted(members))


def pool_argvs(petcalc, label):
    """Seeded by the label only: the pool is data, the same at every run."""
    rng = random.Random(f"pool-{label}")
    rs = petcalc.root_system_from_label(label)
    group = petcalc.weyl_enumerate(rs)
    nontrivial = [w for w in group if w.length]
    short = [w for w in nontrivial if w.length <= 3]
    subsets = [s for s in petcalc.all_subsets(rs) if s]
    argvs = {kind: [] for kind in POOL_SIZES}
    classes = {}

    def add(kind, argv):
        if argv not in argvs[kind]:
            argvs[kind].append(argv)

    while len(argvs["restrict"]) < POOL_SIZES["restrict"]:
        w = rng.choice([x for x in nontrivial if x.length >= 2])
        below = [v for v in nontrivial if petcalc.bruhat_leq(v, w)]
        add("restrict", ["restrict", label, "--class", word(rng.choice(below)),
                         "--at", word(w)])
    while len(argvs["mult"]) < POOL_SIZES["mult"]:
        add("mult", ["mult", label, "--u", word(rng.choice(short)),
                     "--v", word(rng.choice(short))])
    while len(argvs["pullback"]) < POOL_SIZES["pullback"]:
        add("pullback", ["pullback", label, "--w", word(rng.choice(nontrivial))])
    while len(argvs["peterson-mult"]) < POOL_SIZES["peterson-mult"]:
        add("peterson-mult", ["peterson-mult", label, "--I",
                              subset(rng.choice(subsets)), "--J",
                              subset(rng.choice(subsets))])
    while len(classes) < POOL_SIZES["expand"]:
        u, v = rng.choice(short), rng.choice(short)
        name = f"{label}-{word(u).replace(' ', '')}x{word(v).replace(' ', '')}"
        classes[name] = {"system": label, "u": word(u), "v": word(v)}
        add("expand", ["expand", label, "--values", "{classes}/" + name + ".json"])
    return argvs, classes


def record(argv, classes_dir, workdir, env):
    job = run.Job(key=" ".join(argv), argv=argv, expect={})
    result = run.run_process(
        [sys.executable, "-m", "petcalc.cli", *run.cli_argv(job, classes_dir, None)],
        workdir, env, run.TIMEOUT_MAX_S)
    if result.timed_out or "Traceback" in result.stderr:
        raise SystemExit(f"{job.key}: timed out or crashed:\n{result.stderr}")
    return {
        "argv": argv,
        "exit": result.exit,
        "stdout_sha256": hashlib.sha256(result.stdout).hexdigest(),
        "stderr": "empty" if not result.stderr.strip() else None,
        "seconds": round(result.wall_s, 3),
    }


def main():
    petcalc = run.import_petcalc()
    env = run.child_env()
    jobs, classes = {}, {}
    (run.OUT / "tmp").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT / "tmp") as tmp:
        workdir = Path(tmp)
        classes_dir = workdir / "classes"
        classes_dir.mkdir()
        pending = []
        for spec in run.WORKLOADS.values():
            for key in spec["jobs"] or []:
                pending.append((key.split(), {}))
        for label in run.QUERY_SYSTEMS:
            argvs, label_classes = pool_argvs(petcalc, label)
            classes.update(label_classes)
            for kind, entries in argvs.items():
                for argv in entries:
                    extra = {"pool": True}
                    if kind == "expand":
                        extra["class"] = argv[-1][len("{classes}/"):-len(".json")]
                    pending.append((argv, extra))
        for kind, argvs in FAILURES.items():
            for argv in argvs:
                pending.append((argv, {"failure": kind}))
        for name, recipe in classes.items():
            (classes_dir / f"{name}.json").write_text(
                run.class_json(petcalc, recipe), encoding="utf-8")
        for argv, extra in pending:
            entry = record(argv, classes_dir, workdir, env)
            entry.update(extra)
            if "failure" in extra:
                entry["stderr"] = extra["failure"]
                if entry["exit"] != EXPECTED_EXIT[extra["failure"]]:
                    raise SystemExit(f"{' '.join(argv)}: exit {entry['exit']}, "
                                     f"expected {EXPECTED_EXIT[extra['failure']]}")
            elif entry["stderr"] is None or entry["exit"] != 0:
                raise SystemExit(f"{' '.join(argv)}: exit {entry['exit']} "
                                 "with stderr; not a usable golden job")
            jobs[" ".join(argv)] = entry
            print(f"{entry['exit']} {entry['seconds']:7.3f}s {' '.join(argv)}",
                  file=sys.stderr)
    payload = {"jobs": jobs, "classes": classes, "host": run.host_facts()}
    run.GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
