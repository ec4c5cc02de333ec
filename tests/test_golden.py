"""Golden CLI outputs: exit code, stdout and stderr, replayed byte for byte.

Covers ``check`` (text and ``--json``) and ``oracle --mode condition`` for
every CLI condition on every example model, ``synthesize --json`` on every
example model (written to a fresh temporary directory, named ``<tmp>`` in
the case), ``verify`` of what ``synthesize`` wrote for every model that
synthesizes, twice more with one decision turned wrong, plus the refused flag
combinations.  Regenerate after an
intended output change with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from infobs.cli import main

MODELS = Path(__file__).resolve().parent.parent / "examples" / "models"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

CONDITIONS = ("extended", "corrected", "split", "legacy", "cp", "da",
              "strong-cp", "strong-da")
REFUSED = (("strong-cp", "--relation", "partial"),
           ("corrected", "--relation", "total"),
           ("extended", "--worlds", "all"))
TMP = "<tmp>"
#: Synthesized directories with one decision of supervisor 1 turned wrong:
#: ``g`` enabled before ``a``, or disabled after it.
CORRUPTED = {"<tmp, supervisor 1 table[0] on>": (0, "on"),
             "<tmp, supervisor 1 table[1] off>": (1, "off")}
UNSOLVABLE = ("diamond_unsolvable.des",)


def cases() -> list[tuple[str, ...]]:
    """Each case is (model file name, *CLI arguments after the command)."""
    out = []
    for path in sorted(MODELS.glob("*.des")):
        for c in CONDITIONS:
            out.append((path.name, "check", "--condition", c))
            out.append((path.name, "check", "--condition", c, "--json"))
            out.append((path.name, "oracle", "--mode", "condition",
                        "--condition", c))
        out.append((path.name, "synthesize", "-o", TMP, "--json"))
        if path.name not in UNSOLVABLE:
            out.append((path.name, "verify", "--supervisors", TMP))
    for corrupted in CORRUPTED:
        out.append(("legacy_gap.des", "verify", "--supervisors", corrupted))
    for c, flag, value in REFUSED:
        out.append(("legacy_gap.des", "check", "--condition", c, flag, value))
    return out


def replay(case: tuple[str, ...]) -> dict:
    name, command, *rest = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if command == "verify":
            write_supervisors(MODELS / name, tmp, CORRUPTED.get(rest[-1]))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(MODELS / name),
                         *(tmp if arg == TMP or arg in CORRUPTED else arg
                           for arg in rest)])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_supervisors(model: Path, directory: str, corrupt) -> None:
    """Synthesize into ``directory``; ``corrupt``, when given, is the
    ``(entry, decision)`` written over supervisor 1's table."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synthesize", str(model), "-o", directory]) == 0
    if corrupt is not None:
        entry, decision = corrupt
        path = Path(directory) / "supervisor_1.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["table"][entry]["decision"] = decision
        path.write_text(json.dumps(data), encoding="utf-8")


def case_id(case: tuple[str, ...]) -> str:
    return " ".join(case)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(c) for c in cases())


@pytest.mark.parametrize("case", cases(), ids=case_id)
def test_cli_output_matches_the_golden_file(golden, case):
    assert replay(case) == golden[case_id(case)]


if __name__ == "__main__":
    table = {case_id(c): replay(c) for c in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    sys.exit(0)
