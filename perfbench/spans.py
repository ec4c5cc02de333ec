"""Spans around the package's public layer calls, recorded from outside.

While a :class:`Tracer` is installed it replaces each traced function, in
every module namespace the CLI reaches it through, by a wrapper that records
a span (name, start, end, parent, command id) and counts taken from the
call's arguments and result.  Span times are thread CPU times, the clock the
untraced run uses.  The CLI itself is unchanged, so the layers run
in the order and with the fresh frame per command that the untraced run
sees.  Spans stay in memory until :meth:`Tracer.dump`.

Names whose target the package no longer has are skipped, and their metrics
read zero.  ``fusion`` runs only inside ``closed_loop`` and the oracles, so
it cannot be timed from here; nor can the knowledge evaluator inside the
condition checkers, whose time is part of the ``conditions`` spans.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter

#: Every time metric of the traced run.  All are summed self time (span
#: duration minus the child spans it contains), except
#: ``synthesis.synthesize_s``, which includes its frame build and checks.
TIME_METRICS = (
    "conditions.controllability_s", "conditions.extended_s",
    "conditions.corrected_s", "conditions.split_s", "conditions.legacy_s",
    "conditions.cp_s", "conditions.da_s", "conditions.strong_cp_s",
    "conditions.strong_da_s", "kripke.build_frame_s",
    "synthesis.synthesize_s", "synthesis.closed_loop_s",
    "synthesis.verify_solution_s", "automata.dfa_equivalent_s",
    "modelfile.save_supervisors_s", "modelfile.load_supervisors_s",
    "oracle.solves_s", "modelfile.parse_model_s", "automata.validate_model_s",
    "observation.project_s", "observation.compose_s", "oracle.condition_s",
    "oracle.search_s", "cli.unaccounted_s",
)

CASES = ("knows-enable", "knows-disable", "bet-enable", "bet-disable",
         "defers", "dont-know", "vacuous")

COUNT_METRICS = (
    "conditions.holds", "kripke.classes", "kripke.class_pairs",
    "synthesis.table_cells", *(f"synthesis.case.{c}" for c in CASES),
    "oracle.legal_words", "modelfile.states", "modelfile.transitions",
    "observation.estimates", "observation.worlds", "observation.legal_worlds",
    "oracle.refused",
)

PEAK_METRICS = ("conditions.peak_mb", "synthesis.peak_mb", "observation.peak_mb")

ROOT = "cli.main"


def _bound(fn, args, kwargs):
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _holds(_args, result, counts):
    counts["conditions.holds"] += bool(result.holds)


def _parsed(_args, result, counts):
    model, _profile = result
    counts["modelfile.states"] += len(model.states)
    counts["modelfile.transitions"] += len(model.delta)


def _projected(_args, result, counts):
    counts["observation.estimates"] += len(result.states)


def _composed(args, result, counts):
    legal = args["model"].legal_states
    counts["observation.worlds"] += len(result.worlds)
    counts["observation.legal_worlds"] += sum(w.plant in legal for w in result.worlds)


def _frame(_args, frame, counts):
    for i in range(frame.profile.n):
        sizes = Counter(w.estimates[i] for w in frame.worlds if frame.world_legal(w))
        counts["kripke.classes"] += len(sizes)
        counts["kripke.class_pairs"] += sum(s * s for s in sizes.values())


def _synthesized(_args, result, counts):
    counts["synthesis.table_cells"] += sum(len(s.table) for s in result.supervisors)
    for case in result.provenance.values():
        counts[f"synthesis.case.{case.value}"] += 1


def _legal_words(args, _result, counts):
    """Legal words of length <= k, counted per state without listing them."""
    model, k = args["model"], args["k"]
    layer = {model.initial: 1}
    total = 1
    for _ in range(k):
        nxt: Counter = Counter()
        for (src, _ev) in model.legal_transitions:
            if src in layer:
                nxt[model.delta[(src, _ev)]] += layer[src]
        layer = nxt
        total += sum(nxt.values())
    counts["oracle.legal_words"] += total


def _checker_name(prefix):
    def name(args):
        if "variant" in args:
            return f"conditions.{args['variant']}"
        if args.get("shape") == "split":
            return "conditions.split"
        return prefix
    return name


# (module, attribute, span name or function of the bound arguments, counter)
TARGETS = (
    ("infobs.modelfile", "parse_model", "modelfile.parse_model", _parsed),
    ("infobs.modelfile", "validate_model", "automata.validate_model", None),
    ("infobs.modelfile", "reachable", "automata.validate_model", None),
    ("infobs.modelfile", "validate_profile", "automata.validate_model", None),
    ("infobs.observation", "project", "observation.project", _projected),
    ("infobs.synthesis", "project", "observation.project", _projected),
    ("infobs.oracle", "project", "observation.project", _projected),
    ("infobs.observation", "compose", "observation.compose", _composed),
    ("infobs.conditions", "build_frame", "kripke.build_frame", _frame),
    ("infobs.cli", "check_inf_obs_extended", "conditions.extended", _holds),
    ("infobs.cli", "check_inf_obs_corrected",
     _checker_name("conditions.corrected"), _holds),
    ("infobs.cli", "check_inf_obs_legacy", "conditions.legacy", _holds),
    ("infobs.cli", "check_coobservability", _checker_name(None), _holds),
    ("infobs.synthesis", "check_controllability", "conditions.controllability",
     _holds),
    ("infobs.synthesis", "check_inf_obs_extended", "conditions.extended", _holds),
    ("infobs.cli", "synthesize", "synthesis.synthesize", _synthesized),
    ("infobs.cli", "verify_solution", "synthesis.verify_solution", None),
    ("infobs.synthesis", "closed_loop", "synthesis.closed_loop", None),
    ("infobs.synthesis", "dfa_equivalent", "automata.dfa_equivalent", None),
    ("infobs.cli", "save_supervisors", "modelfile.save_supervisors", None),
    ("infobs.cli", "load_supervisors", "modelfile.load_supervisors", None),
    ("infobs.oracle", "oracle_solves", "oracle.solves", _legal_words),
    ("infobs.oracle", "oracle_condition", "oracle.condition", None),
    ("infobs.oracle", "exhaustive_supervisor_search", "oracle.search", None),
)


class Tracer:
    """Records spans while installed; optionally tracks allocation peaks."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        # [name, start, end, parent, command, peak bytes, bytes at start]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.command = -1

    def install(self) -> None:
        from infobs.errors import EnumerationBound, InstanceTooLarge
        refusals = (InstanceTooLarge, EnumerationBound)
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter, refusals))
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        if self.memory:
            tracemalloc.stop()

    def _open(self, name: str) -> int:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                top = self.spans[self._stack[-1]]
                top[5] = max(top[5], peak - top[6])
            tracemalloc.reset_peak()
            base = current
        else:
            base = 0
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.thread_time(), 0.0, parent, self.command,
                           0, base])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.thread_time()
        self._stack.pop()
        if self.memory:
            _current, peak = tracemalloc.get_traced_memory()
            span[5] = max(span[5], peak - span[6])
            if self._stack:
                parent = self.spans[self._stack[-1]]
                parent[5] = max(parent[5], span[6] + span[5] - parent[6])

    def _wrap(self, fn, name, counter, refusals):
        tracer = self

        def traced(*args, **kwargs):
            bound = None
            if callable(name) or counter is not None:
                bound = _bound(fn, args, kwargs)
            label = name(bound) if callable(name) else name
            index = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            except refusals:
                tracer.counts["oracle.refused"] += label.startswith("oracle.")
                raise
            finally:
                tracer._close(index)
            if counter is not None:
                counter(bound, result, tracer.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def root(self, command: int):
        """The span of one whole CLI command."""
        self.command = command
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time per span name: duration minus that of direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        out: Counter = Counter()
        for span, inner in zip(self.spans, child_time):
            out[span[0]] += span[2] - span[1] - inner
        return out

    def inclusive(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def peaks_mb(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            module = span[0].split(".")[0]
            out[module] = max(out.get(module, 0.0), span[5] / 1e6)
        return out

    def dump(self, path) -> None:
        rows = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "command": s[4], "peak_bytes": s[5]} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
