"""Property test of the supervisor file loader over mutated directories.

Each directory is one that ``synthesize`` wrote for a two-supervisor
fixture, with a few generated edits applied to its JSON: a value replaced
(by a wrong type, a string where a list belongs, or a value taken from
elsewhere in the same files), a dict key or list element deleted, a list
element repeated, or the text cut short.  Every mutant either loads or
raises :class:`FormatError`, and ``verify`` and ``oracle --mode solve`` on
it exit 0, 1 or 2 without a traceback; on a mutant that does not load they
exit 2.
"""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from infobs import (default_frame, load_model, load_supervisors,  # noqa: E402
                    save_supervisors, synthesize)
from infobs.cli import main  # noqa: E402
from infobs.errors import FormatError  # noqa: E402

from conftest import MODELS  # noqa: E402

BETS = MODELS / "conditional_bets.des"


@functools.cache
def synthesized_files() -> tuple[tuple[str, str], ...]:
    """The (name, text) pairs ``synthesize`` writes for the fixture."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = save_supervisors(synthesize(default_frame(*load_model(BETS))), tmp)
        return tuple((p.name, p.read_text(encoding="utf-8")) for p in paths)


def paths_in(node, prefix=()):
    """Every path to a value inside a JSON document, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths_in(child, prefix + (key,))


def values_in(node):
    yield node
    for path in paths_in(node):
        child = node
        for key in path:
            child = child[key]
        yield child


FOREIGN = st.sampled_from(["", "a", "ab", "s0", "q0", "g", "on", "enable",
                           "1", 0, 1, 2, -1, 1.5, True, None, [], {}, ["q0"],
                           [["q0"]], {"a": 1}, [1, 2]])


@st.composite
def mutants(draw):
    """The fixture's files, as texts, with one to three edits applied."""
    files = {name: json.loads(text) for name, text in synthesized_files()}
    pool = [v for doc in files.values() for v in values_in(doc)]
    cut = None
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(files)))
        paths = list(paths_in(files[name]))
        op = draw(st.sampled_from(["replace", "delete", "repeat", "cut"]))
        if op == "cut" or not paths:
            cut = (name, draw(st.integers(0, 40)))
            continue
        *parent_path, key = draw(st.sampled_from(paths))
        parent = files[name]
        for step in parent_path:
            parent = parent[step]
        if op == "replace":
            parent[key] = json.loads(json.dumps(draw(st.one_of(
                FOREIGN, st.sampled_from(pool)))))
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.append(json.loads(json.dumps(parent[key])))
    texts = {name: json.dumps(doc, indent=2) for name, doc in files.items()}
    if cut is not None:
        name, length = cut
        texts[name] = texts[name][:length]
    return texts


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(mutants())
def test_mutated_supervisor_files_load_or_refuse_and_verify_exits_cleanly(texts):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in texts.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        try:
            load_supervisors(tmp)
            loaded = True
        except FormatError:
            loaded = False
        for command in (["verify"], ["oracle", "--mode", "solve"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([*command, str(BETS), "--supervisors", tmp,
                             "--depth", "4"])
            assert code in (0, 1, 2)
            if not loaded:
                assert code == 2 and not out.getvalue()
