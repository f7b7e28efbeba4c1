"""Jobs of the benchmark's golden file, replayed in-process through the
CLI: every pool ``expand``, ``mult``, ``peterson-mult`` and ``pullback``
job, and every ``table`` job, the resource-cap one included. The
recorded exit code, stderr kind and stdout digest must hold. The golden
file is only read."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from conftest import run_cli
from petcalc import element_from_word, root_system_from_label, schubert_class

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden.json")
    .read_text(encoding="utf-8")
)
JOBS = sorted(
    key for key, entry in GOLDEN["jobs"].items()
    if entry.get("pool")
    and entry["argv"][0] in ("expand", "mult", "peterson-mult", "pullback")
    or entry["argv"][0] == "table"
)


@pytest.fixture(scope="module")
def classes_dir(tmp_path_factory):
    """The class files the expand jobs read, written as the benchmark
    writes them: the product of two Schubert classes."""
    directory = tmp_path_factory.mktemp("classes")
    systems = {}
    for name, recipe in GOLDEN["classes"].items():
        label = recipe["system"]
        rs = systems.setdefault(label, root_system_from_label(label))
        u, v = (element_from_word(rs, [int(i) for i in recipe[k].split()])
                for k in ("u", "v"))
        product = schubert_class(rs, u) * schubert_class(rs, v)
        (directory / f"{name}.json").write_text(
            json.dumps(product.to_json(), sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return directory


def test_the_golden_pool_has_expand_and_mult_jobs():
    kinds = Counter(GOLDEN["jobs"][key]["argv"][0] for key in JOBS)
    assert set(kinds) == {"expand", "mult", "peterson-mult", "pullback",
                          "table"}
    assert kinds["expand"] + kinds["mult"] >= 30
    assert kinds["peterson-mult"] + kinds["pullback"] >= 48
    assert kinds["table"] == 4


@pytest.mark.parametrize("key", JOBS)
def test_golden_job_replays_in_process(key, classes_dir):
    entry = GOLDEN["jobs"][key]
    argv = [arg.replace("{classes}", str(classes_dir)) for arg in entry["argv"]]
    code, out, err = run_cli(argv)
    assert code == entry["exit"]
    if entry["stderr"] == "empty":
        assert err == ""
    elif entry["stderr"] == "resource-cap":
        assert err.startswith("resource cap: ") and err.count("\n") == 1
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == entry["stdout_sha256"]
