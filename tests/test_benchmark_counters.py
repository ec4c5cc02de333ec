"""The benchmark's traced counters against the package's own result sizes.

``perfbench/spans.py`` counts estimates, decision cells and policy cases
from outside the package, by wrapping its functions by name.  Here its
tracer runs around one ``synthesize`` command, and each counter must equal
the size read off a result the package builds directly.
"""

import contextlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

from infobs import load_model, synthesize
from infobs.cli import main

from conftest import MODELS

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_synthesize_counts_the_result_it_builds(tmp_path):
    spans = load_spans()
    bets = MODELS / "conditional_bets.des"
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root(0), contextlib.redirect_stdout(io.StringIO()):
            assert main(["synthesize", str(bets), "-o", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()

    result = synthesize(*load_model(bets))
    cases = Counter(case.value for case in result.provenance.values())
    assert tracer.counts["observation.estimates"] == sum(
        len(s.observer.states) for s in result.supervisors)
    assert tracer.counts["synthesis.table_cells"] == sum(
        len(s.table) for s in result.supervisors)
    for case in spans.CASES:
        assert tracer.counts[f"synthesis.case.{case}"] == cases[case]
    assert tracer.counts["synthesis.table_cells"] == sum(cases.values()) > 0
