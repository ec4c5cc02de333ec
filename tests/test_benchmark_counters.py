"""The benchmark's traced counters against the package's own result sizes.

``perfbench/spans.py`` counts estimates, decision cells, policy cases,
transitions and legal words from outside the package, by wrapping its
functions by name and reading the names of what they return.  Here its
tracer runs around single CLI commands, and each counter must equal the size
read off a result the package builds directly.
"""

import contextlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

import pytest

from infobs import load_model, synthesize
from infobs.automata import walk_words
from infobs.cli import main

from conftest import MODELS

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(spans, argv):
    """The tracer after one CLI command, and the command's exit code."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root(0), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        tracer.uninstall()
    return tracer, code


def test_traced_synthesize_counts_the_result_it_builds(tmp_path):
    spans = load_spans()
    bets = MODELS / "conditional_bets.des"
    tracer, code = traced(spans, ["synthesize", str(bets), "-o", str(tmp_path)])
    assert code == 0

    result = synthesize(*load_model(bets))
    cases = Counter(case.value for case in result.provenance.values())
    assert tracer.counts["observation.estimates"] == sum(
        len(s.observer.states) for s in result.supervisors)
    assert tracer.counts["synthesis.table_cells"] == sum(
        len(s.table) for s in result.supervisors)
    for case in spans.CASES:
        assert tracer.counts[f"synthesis.case.{case}"] == cases[case]
    assert tracer.counts["synthesis.table_cells"] == sum(cases.values()) > 0


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.des")), ids=lambda p: p.name)
def test_traced_check_and_oracle_count_the_model_they_parse(path):
    # The counters read PlantSpec names from outside the package; renaming
    # or moving one would otherwise break only a traced benchmark run.
    spans = load_spans()
    model, _profile = load_model(path)
    transitions = sum(map(len, model.successors.values()))
    legal_words = len(list(walk_words(model, 6, legal_only=True)))
    tracer, _code = traced(spans, ["check", str(path)])
    assert tracer.counts["modelfile.transitions"] == transitions
    tracer, _code = traced(spans, ["oracle", str(path), "--mode", "solve"])
    assert tracer.counts["modelfile.transitions"] == transitions
    # The oracle runs only on what synthesizes.
    solved = path.name != "diamond_unsolvable.des"
    assert tracer.counts["oracle.legal_words"] == (legal_words if solved else 0)
