"""The benchmark's tracer still finds every petcalc name it wraps.

``bench/tracing.py`` is loaded by path, as the benchmark loads it, and is
not edited; a rename in ``src/`` that would leave one of its hooks
unbound, or stop ``PolyT`` products from being counted, fails here.
"""

import importlib.util
from pathlib import Path

from petcalc import poly, root_system_from_label
from petcalc.peterson import flag_consistency_report, peterson_table

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_bind_count_and_restore():
    tracing = _load_tracing()
    original_mul = poly.PolyT.__mul__
    tracer = tracing.Tracer()
    try:
        assert tracing.install_petcalc_hooks(tracer, []) == []
        assert poly.PolyT.__mul__ is not original_mul
        checked, failures = flag_consistency_report(
            root_system_from_label("A2")
        )
    finally:
        tracer.restore()
    assert (checked, failures) == (16, [])
    assert tracer.calls["poly.mul"] > 0
    assert tracer.counts["poly.mul_term_pairs"] > 0
    assert poly.PolyT.__mul__ is original_mul


def test_traced_peterson_table_builds_each_class_once():
    # peterson.basis wraps peterson_class: the table reads every class of
    # F4 (16 subsets) through it exactly once, so peterson.basis_s is the
    # whole basis build and no class is built twice
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install_petcalc_hooks(tracer, [])
        peterson_table(root_system_from_label("F4"))
    finally:
        tracer.restore()
    assert tracer.calls["peterson.basis"] == 16
    assert tracer.inclusive["peterson.basis"] > 0
