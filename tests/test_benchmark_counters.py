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

from infobs import default_frame, load_model, synthesize
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

    result = synthesize(default_frame(*load_model(bets)))
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
    legal_words = len(list(walk_words(model, 6)))
    tracer, _code = traced(spans, ["check", str(path)])
    assert tracer.counts["modelfile.transitions"] == transitions
    tracer, _code = traced(spans, ["oracle", str(path), "--mode", "solve"])
    assert tracer.counts["modelfile.transitions"] == transitions
    # The oracle runs only on what synthesizes.
    solved = path.name != "diamond_unsolvable.des"
    assert tracer.counts["oracle.legal_words"] == (legal_words if solved else 0)


#: The targets of ``spans.TARGETS`` the package has, as (module, name).  The
#: tracer skips a target it cannot find without a word, so a rename would
#: otherwise only zero a metric of the traced benchmark.
RESOLVED_TARGETS = (
    ("infobs.modelfile", "parse_model"),
    ("infobs.modelfile", "reachable"),
    ("infobs.modelfile", "validate_profile"),
    ("infobs.observation", "project"),
    ("infobs.oracle", "project"),
    ("infobs.observation", "compose"),
    ("infobs.conditions", "build_frame"),
    ("infobs.cli", "synthesize"),
    ("infobs.cli", "verify_solution"),
    ("infobs.synthesis", "closed_loop"),
    ("infobs.cli", "save_supervisors"),
    ("infobs.cli", "load_supervisors"),
    ("infobs.oracle", "oracle_solves"),
    ("infobs.oracle", "oracle_condition"),
    ("infobs.oracle", "exhaustive_supervisor_search"),
)


def test_the_traced_targets_still_resolve():
    spans = load_spans()
    targets = {(module, attr) for module, attr, _name, _counter in spans.TARGETS}
    assert set(RESOLVED_TARGETS) <= targets
    for module, attr in RESOLVED_TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), attr


@pytest.mark.parametrize("path", [p for p in sorted(MODELS.glob("*.des"))
                                  if p.name != "diamond_unsolvable.des"],
                         ids=lambda p: p.name)
def test_traced_verify_and_solve_record_their_spans(path, tmp_path):
    # On every example that synthesizes.  The spans bind oracle_solves'
    # `model` and `k` and wrap the closed loop, the verifier and the
    # loader by name.
    spans = load_spans()
    model, _profile = load_model(path)
    assert main(["synthesize", str(path), "-o", str(tmp_path)]) == 0
    for argv, depth, names in (
            (["verify", str(path), "--supervisors", str(tmp_path)], 6,
             {"synthesis.closed_loop", "synthesis.verify_solution",
              "modelfile.load_supervisors", "oracle.solves"}),
            (["oracle", str(path), "--mode", "solve", "--supervisors",
              str(tmp_path), "--depth", "4"], 4,
             {"modelfile.load_supervisors", "oracle.solves"})):
        tracer, code = traced(spans, argv)
        assert code == 0
        assert names <= {span[0] for span in tracer.spans}
        assert tracer.counts["oracle.legal_words"] == len(
            list(walk_words(model, depth)))
