"""Command-line surface: exit codes, JSON schema, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from infobs.cli import main

from conftest import MODELS

GAP = str(MODELS / "legacy_gap.des")
BETS = str(MODELS / "conditional_bets.des")
DIAMOND = str(MODELS / "diamond_unsolvable.des")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_holds_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", GAP, "--condition", "corrected")
        assert code == 0
        assert "condition corrected: holds" in out
        assert "g=enable" in out

    def test_failing_condition_exits_one_with_the_witness(self, capsys):
        code, out, _ = run(capsys, "check", GAP, "--condition", "legacy")
        assert code == 1
        assert "fails" in out and "g a" in out

    def test_json_field_names_are_stable(self, capsys):
        code, out, _ = run(capsys, "check", GAP, "--condition", "legacy",
                           "--json")
        payload = json.loads(out)
        assert code == 1
        assert payload["holds"] is False
        assert payload["counterexample"]["event"] == "g"
        assert payload["counterexample"]["string"] == "g a"
        code, out, _ = run(capsys, "check", GAP, "--condition", "extended",
                           "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["holds"] is True
        assert payload["defaults"] == {"g": "enable"}
        assert payload["counterexample"] is None

    def test_conflicting_world_pair_in_json(self, capsys):
        code, out, _ = run(capsys, "check", DIAMOND, "--condition", "extended",
                           "--json")
        payload = json.loads(out)
        assert code == 1
        assert payload["counterexample"]["string"] == "a"
        assert payload["counterexample"]["conflict"]["string"] == ""

    def test_strong_variant_refuses_the_partial_relation(self, capsys):
        code, _, err = run(capsys, "check", BETS, "--condition", "strong-cp",
                           "--relation", "partial")
        assert code == 2
        assert "total" in err

    def test_world_domain_is_a_legacy_only_flag(self, capsys):
        code, _, err = run(capsys, "check", BETS, "--condition", "extended",
                           "--worlds", "all")
        assert code == 2

    def test_parse_errors_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.des"
        bad.write_text("supervisors 1\nevent a\nstate q0 init legal\n"
                       "trans q0 a q9\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "line 4" in err

    def test_usage_error_exits_two(self, capsys):
        assert main(["check"]) == 2


class TestSynthesizeVerify:
    def test_round_trip_through_files(self, capsys, tmp_path):
        out_dir = tmp_path / "sup"
        code, out, _ = run(capsys, "synthesize", GAP, "-o", str(out_dir))
        assert code == 0
        assert (out_dir / "supervisor_1.json").exists()
        assert (out_dir / "defaults.json").exists()
        code, out, _ = run(capsys, "verify", GAP, "--supervisors",
                           str(out_dir), "--depth", "6")
        assert code == 0
        assert "equals the legal language" in out
        assert "oracle cross-check at depth 6: pass" in out

    def test_synthesize_json_lists_supervisor_tables(self, capsys, tmp_path):
        code, out, _ = run(capsys, "synthesize", BETS, "-o",
                           str(tmp_path / "sup"), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["holds"] is True
        assert payload["defaults"] == {"g": "enable"}
        tables = {sup["supervisor"]: sup["table"] for sup in payload["supervisors"]}
        assert set(tables) == {1, 2}
        first = tables[1][0]
        assert set(first) == {"state", "event", "decision", "case"}

    def test_failed_synthesis_exits_one(self, capsys, tmp_path):
        code, out, _ = run(capsys, "synthesize", DIAMOND, "-o",
                           str(tmp_path / "sup"))
        assert code == 1
        assert "fails" in out
        code, out, _ = run(capsys, "synthesize", DIAMOND, "-o",
                           str(tmp_path / "sup"), "--json")
        payload = json.loads(out)
        assert code == 1
        assert payload["holds"] is False
        assert payload["counterexample"]["event"] == "g"

    def test_tampered_supervisor_is_caught(self, capsys, tmp_path):
        out_dir = tmp_path / "sup"
        run(capsys, "synthesize", GAP, "-o", str(out_dir))
        sup_file = out_dir / "supervisor_1.json"
        data = json.loads(sup_file.read_text())
        for entry in data["table"]:
            if entry["state"] == ["q0", "q2"]:
                entry["decision"] = "on"
        sup_file.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", GAP, "--supervisors", str(out_dir))
        assert code == 1
        assert "distinguishing word: g" in out


class TestSimulateCommand:
    def test_simulate_refuses_unsolvable_models(self, capsys):
        code, out, _ = run(capsys, "simulate", DIAMOND)
        assert code == 1
        assert "cannot simulate" in out

    def test_simulate_with_saved_supervisors(self, tmp_path):
        import subprocess
        import sys
        out_dir = tmp_path / "sup"
        subprocess.run([sys.executable, "-m", "infobs.cli", "synthesize", GAP,
                        "-o", str(out_dir)], check=True, capture_output=True)
        proc = subprocess.run(
            [sys.executable, "-m", "infobs.cli", "simulate", GAP,
             "--supervisors", str(out_dir)],
            input="events\nstep a\nstep g\nquit\n",
            capture_output=True, text=True, check=True)
        assert "g: possible; fused disable (supervisor 1); blocked" in proc.stdout
        assert "stepped on g; word so far: a g" in proc.stdout


class TestExportDot:
    def test_plant_graph_marks_legality(self, capsys):
        code, out, _ = run(capsys, "export-dot", GAP)
        assert code == 0
        assert '"q0" [peripheries=2]' in out
        assert '"q2" [peripheries=1]' in out
        assert 'style=dashed' in out  # illegal transition

    def test_composite_graph_stacks_components(self, capsys):
        code, out, _ = run(capsys, "export-dot", GAP, "--composite")
        assert code == 0
        assert 'label="q0\\n{q0,q2}\\n{q0,q1,q2,q3,q4,q5}"' in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, _, _ = run(capsys, "export-dot", GAP, "-o", str(target))
        assert code == 0
        assert target.read_text().startswith("digraph plant")


class TestOracleCommand:
    def test_condition_mode(self, capsys):
        code, out, _ = run(capsys, "oracle", BETS, "--mode", "condition",
                           "--condition", "extended")
        assert code == 0 and "holds" in out
        code, out, _ = run(capsys, "oracle", BETS, "--mode", "condition",
                           "--condition", "cp")
        assert code == 1 and "fails" in out

    def test_solve_mode_synthesizes_when_needed(self, capsys):
        code, out, _ = run(capsys, "oracle", GAP, "--mode", "solve",
                           "--depth", "6")
        assert code == 0
        assert "solves the control problem" in out

    def test_search_mode(self, capsys):
        code, out, _ = run(capsys, "oracle", DIAMOND, "--mode", "search")
        assert code == 1
        assert "no supervisor assignment" in out
        code, out, _ = run(capsys, "oracle", GAP, "--mode", "search")
        assert code == 0


class TestInputHardening:
    """Malformed input is a usage or parse error (exit 2), never a traceback
    and never a pass."""

    @pytest.fixture
    def sup_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "sup"
        assert run(capsys, "synthesize", GAP, "-o", str(out_dir))[0] == 0
        return out_dir

    def test_negative_depth_is_a_usage_error(self, capsys, sup_dir):
        code, out, err = run(capsys, "verify", GAP, "--supervisors",
                             str(sup_dir), "--depth", "-1")
        assert code == 2 and "pass" not in out and "--depth" in err
        for mode in ("solve", "search"):
            code, out, err = run(capsys, "oracle", GAP, "--mode", mode,
                                 "--depth", "-3")
            assert code == 2 and not out and "--depth" in err

    def test_depth_above_the_oracle_ceiling_is_a_usage_error(self, capsys,
                                                            sup_dir, tmp_path):
        loop = tmp_path / "loop.des"
        loop.write_text("supervisors 1\nevent a obs=1 ctrl=1\n"
                        "state q0 init legal\ntrans q0 a q0 legal\n")
        for argv in (("oracle", str(loop), "--mode", "search", "--depth", "50000"),
                     ("oracle", GAP, "--mode", "search", "--depth", "11"),
                     ("verify", GAP, "--supervisors", str(sup_dir),
                      "--depth", "11")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out and "--depth" in err

    def test_default_search_depth_above_the_ceiling_exits_two(self, capsys,
                                                              tmp_path):
        # Ten states give a default depth of 11; one blind supervisor keeps
        # the table to a single cell, so only the depth ceiling can refuse.
        states = [f"q{k}" for k in range(10)]
        chain = tmp_path / "chain.des"
        chain.write_text(
            "supervisors 1\nevent a ctrl=1\n"
            + "".join(f"state {q}{' init' if k == 0 else ''} legal\n"
                      for k, q in enumerate(states))
            + "".join(f"trans {q} a {r} legal\n"
                      for q, r in zip(states, states[1:])))
        code, out, err = run(capsys, "oracle", str(chain), "--mode", "search")
        assert code == 2 and not out and "ceiling" in err

    def test_oracle_seed_is_not_a_flag(self, capsys):
        code, out, _ = run(capsys, "oracle", GAP, "--mode", "search",
                           "--seed", "3")
        assert code == 2 and not out

    def test_zero_depth_is_still_accepted(self, capsys, sup_dir):
        code, out, _ = run(capsys, "verify", GAP, "--supervisors",
                           str(sup_dir), "--depth", "0")
        assert code == 0 and "depth 0: pass" in out

    @pytest.mark.parametrize("name, mangle", [
        ("defaults.json", lambda text: text[:-5]),
        ("defaults.json", lambda text: text.replace('"enable"', '"maybe"')),
        ("defaults.json", lambda text: "[]"),
        ("supervisor_1.json", lambda text: text.replace('"decision": "off"',
                                                        '"decision": "maybe"')),
        ("supervisor_1.json", lambda text: text.replace('"table"', '"tabel"')),
    ], ids=["defaults-not-json", "defaults-unknown-value", "defaults-wrong-shape",
            "supervisor-bad-decision", "supervisor-missing-field"])
    def test_malformed_supervisor_files_exit_two(self, capsys, sup_dir, name,
                                                 mangle):
        path = sup_dir / name
        mangled = mangle(path.read_text())
        assert mangled != path.read_text()
        path.write_text(mangled)
        code, _, err = run(capsys, "verify", GAP, "--supervisors", str(sup_dir))
        assert code == 2
        assert name in err

    def test_directory_as_model_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path))
        assert code == 2
        assert "directory" in err

    def test_directory_as_defaults_file_exits_two(self, capsys, sup_dir):
        (sup_dir / "defaults.json").unlink()
        (sup_dir / "defaults.json").mkdir()
        code, _, err = run(capsys, "verify", GAP, "--supervisors", str(sup_dir))
        assert code == 2
        assert "defaults.json" in err

    def test_non_utf8_model_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.des"
        bad.write_bytes(b"supervisors 1\n\xff\xfe\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "UTF-8" in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "infobs", "check", GAP],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "condition extended: holds" in proc.stdout
