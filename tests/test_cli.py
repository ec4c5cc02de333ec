"""Command-line surface: exit codes, JSON schema, file outputs."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from infobs import cli, oracle
from infobs.cli import CHOICES, main
from infobs.modelfile import load_model

from conftest import MODELS, write_peeking_supervisors

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


    def test_resynthesis_removes_stale_supervisor_files(self, capsys, tmp_path):
        # A three-supervisor solution first, then a two-supervisor one into
        # the same directory: supervisor_3.json must not survive to make the
        # directory disagree with the model.
        three = tmp_path / "three.des"
        three.write_text("supervisors 3\nevent a obs=1,2,3 ctrl=1\n"
                         "state q0 init legal\nstate q1 legal\n"
                         "trans q0 a q1 legal\n")
        out_dir = tmp_path / "sup"
        assert run(capsys, "synthesize", str(three), "-o", str(out_dir))[0] == 0
        assert (out_dir / "supervisor_3.json").exists()
        assert run(capsys, "synthesize", BETS, "-o", str(out_dir))[0] == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "defaults.json", "supervisor_1.json", "supervisor_2.json"]
        code, out, err = run(capsys, "verify", BETS, "--supervisors", str(out_dir))
        assert code == 0, err
        assert "equals the legal language" in out


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

    @pytest.fixture
    def escapes(self, tmp_path):
        model = tmp_path / "escapes.des"
        model.write_text("supervisors 1\nevent a obs=1\nstate q\\ init legal\n"
                         'state r" legal\ntrans q\\ a r" legal\n')
        return str(model)

    def test_plant_graph_escapes_backslashes_and_quotes(self, capsys, escapes):
        code, out, _ = run(capsys, "export-dot", escapes)
        assert code == 0
        lines = out.splitlines()
        assert r'  "q\\" [peripheries=2];' in lines
        assert r'  __start -> "q\\";' in lines
        assert r'  "q\\" -> "r\"" [label="a", style=solid];' in lines

    def test_composite_labels_escape_each_row(self, capsys, escapes):
        code, out, _ = run(capsys, "export-dot", escapes, "--composite")
        assert code == 0
        lines = out.splitlines()
        assert r'  w0 [label="q\\\n{q\\}", peripheries=2];' in lines
        assert r'  w1 [label="r\"\n{r\"}", peripheries=2];' in lines

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


def test_commands_build_no_pair_table(capsys, monkeypatch, tmp_path):
    # Every layer of these commands reads the per-event rows; the pair views
    # are derived only on a read, so none may appear on the loaded model.
    models = []

    def load(path):
        model, profile = load_model(path)
        models.append(model)
        return model, profile

    monkeypatch.setattr(cli, "load_model", load)
    sup = str(tmp_path / "sup")
    commands = [("check", GAP, "--condition", c) for c in CHOICES]
    commands += [("synthesize", GAP, "-o", sup),
                 ("verify", GAP, "--supervisors", sup)]
    commands += [("oracle", GAP, "--mode", mode)
                 for mode in ("condition", "solve", "search")]
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1) and not err, argv
    assert len(models) == len(commands)
    for model in models:
        assert not {"delta", "legal_transitions"} & vars(model).keys()


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

    def test_default_search_depth_stops_at_the_ceiling(self, capsys, tmp_path):
        # Eleven states would give a default depth of 12.
        states = [f"s{k}" for k in range(11)]
        chain = tmp_path / "chain.des"
        chain.write_text(
            "supervisors 1\nevent a obs=1\n"
            + "".join(f"state {q}{' init' if k == 0 else ''} legal\n"
                      for k, q in enumerate(states))
            + "".join(f"trans {q} a {r} legal\n"
                      for q, r in zip(states, states[1:])))
        code, out, err = run(capsys, "oracle", str(chain), "--mode", "search")
        assert code == 0 and not err
        assert out == "a solving supervisor assignment exists (checked depth 10)\n"

    @pytest.mark.parametrize("argv", [
        ("oracle", "--mode", "solve", "--depth", "9"),
        ("oracle", "--mode", "search", "--depth", "9"),
        ("verify", "--supervisors", "<sup>", "--depth", "9")])
    def test_a_walk_past_the_word_budget_exits_two(self, capsys, tmp_path, argv):
        # Four legal self-loops give 349,525 words up to depth 9, more than
        # the budget and few enough to walk in full where there is none.
        loops = tmp_path / "loops.des"
        loops.write_text("supervisors 1\n"
                         + "".join(f"event {ev} obs=1\n" for ev in "abcd")
                         + "state q init legal\n"
                         + "".join(f"trans q {ev} q legal\n" for ev in "abcd"))
        sup = str(tmp_path / "sup")
        assert run(capsys, "synthesize", str(loops), "-o", sup)[0] == 0
        argv = [argv[0], str(loops), *(sup if a == "<sup>" else a for a in argv[1:])]
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert "depth 9" in err and f"{oracle.MAX_ORACLE_WORDS} legal words" in err

    @pytest.mark.parametrize("mode", ["solve", "search"])
    def test_condition_flag_outside_condition_mode_is_refused(self, capsys,
                                                             mode):
        code, out, err = run(capsys, "oracle", GAP, "--mode", mode,
                             "--condition", "cp")
        assert code == 2 and not out and "--condition" in err

    @pytest.mark.parametrize("mode", ["condition", "search"])
    def test_supervisors_flag_outside_solve_mode_is_refused(self, capsys,
                                                           sup_dir, mode):
        code, out, err = run(capsys, "oracle", GAP, "--mode", mode,
                             "--supervisors", str(sup_dir))
        assert code == 2 and not out and "--supervisors" in err

    def test_a_supervisor_observing_a_hidden_event_exits_two(self, capsys,
                                                            monkeypatch, tmp_path):
        sup = write_peeking_supervisors(tmp_path / "peek")
        monkeypatch.setattr(sys, "stdin", io.StringIO("step b\nstep g\nquit\n"))
        for argv in (("verify", DIAMOND, "--supervisors", sup),
                     ("oracle", DIAMOND, "--mode", "solve", "--supervisors", sup),
                     ("simulate", DIAMOND, "--supervisors", sup)):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out
            assert "supervisor 1 observes events hidden from it: b" in err

    def test_a_decision_on_an_uncontrolled_event_exits_two(self, capsys, sup_dir):
        # Supervisor 1 of the gap model controls g only; a decision on the
        # uncontrollable a would otherwise be ignored without a word.
        path = sup_dir / "supervisor_1.json"
        data = json.loads(path.read_text())
        data["table"].append({"state": data["states"][0], "event": "a",
                              "decision": "off"})
        path.write_text(json.dumps(data))
        for argv in (("verify", GAP, "--supervisors", str(sup_dir)),
                     ("oracle", GAP, "--mode", "solve", "--supervisors", str(sup_dir))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out
            assert "supervisor 1 decides events it does not control: a" in err

    @pytest.mark.parametrize("argv", [("verify",), ("oracle", "--mode", "solve"),
                                      ("simulate",)], ids=lambda a: a[-1])
    def test_defaults_for_uncontrolled_events_exit_two(self, capsys, monkeypatch,
                                                       tmp_path, argv):
        # a is uncontrollable in the bets model and zzz is no event at all;
        # a default for either would otherwise be accepted and never read.
        out_dir = tmp_path / "sup"
        assert run(capsys, "synthesize", BETS, "-o", str(out_dir))[0] == 0
        path = out_dir / "defaults.json"
        data = json.loads(path.read_text())
        data["defaults"].update(a="disable", zzz="enable")
        path.write_text(json.dumps(data))
        monkeypatch.setattr(sys, "stdin", io.StringIO("events\nquit\n"))
        code, out, err = run(capsys, argv[0], BETS, *argv[1:],
                             "--supervisors", str(out_dir))
        assert code == 2 and not out
        assert "defaults for events no supervisor controls: a, zzz" in err

    def test_depth_flag_in_condition_mode_is_refused(self, capsys):
        code, out, err = run(capsys, "oracle", GAP, "--mode", "condition",
                             "--depth", "3")
        assert code == 2 and not out and "--depth" in err

    def test_non_ascii_digit_supervisor_count_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "count.des"
        bad.write_text("supervisors \u00b2\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2 and not out and "line 1" in err

    def test_supervisor_count_above_the_ceiling_exits_two(self, capsys,
                                                          tmp_path):
        bad = tmp_path / "count.des"
        bad.write_text("supervisors 1000000000\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2 and not out and "line 1" in err and "ceiling" in err

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

    @pytest.mark.parametrize("mangle, message", [
        (lambda data: data.update(supervisor=1.5), "supervisor must be an integer"),
        (lambda data: data.update(states={"a": 1}), "states must be a list"),
        (lambda data: data.update(observable="ab"), "observable must be a list"),
        (lambda data: data.update(initial="s0"), "initial must be a list"),
        (lambda data: data["transitions"][0].update(dst=["q1"]),
         "transitions[0].dst ['q1'] is not among states"),
        (lambda data: data["table"][0].update(state=["q9"]),
         "table[0].state ['q9'] is not among states"),
        (lambda data: data["table"].append({**data["table"][0], "decision": "on"}),
         "table[2] repeats state"),
    ], ids=["supervisor-not-an-integer", "states-not-a-list", "observable-a-string", "initial-a-string",
            "transition-target-not-a-state", "table-state-not-a-state",
            "repeated-table-entry"])
    def test_supervisor_file_defects_exit_two(self, capsys, sup_dir, mangle,
                                              message):
        # Each of these once loaded: a number rounded down to an index, a
        # dict read by its keys, a string read letter by letter, an estimate
        # that is not a state, a repeated entry replacing the first one.
        path = sup_dir / "supervisor_1.json"
        data = json.loads(path.read_text())
        mangle(data)
        path.write_text(json.dumps(data))
        for argv in (("verify", GAP, "--supervisors", str(sup_dir)),
                     ("oracle", GAP, "--mode", "solve", "--supervisors",
                      str(sup_dir))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out
            assert "supervisor_1.json" in err and message in err

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

    @pytest.mark.parametrize("argv, target", [
        (("synthesize", GAP, "-o"), "taken"),
        (("synthesize", GAP, "-o"), "taken/sub"),
        (("export-dot", GAP, "-o"), "."),
    ], ids=["synthesize-onto-a-file", "synthesize-below-a-file",
            "export-dot-onto-a-directory"])
    def test_unwritable_output_path_exits_two(self, capsys, tmp_path, argv,
                                              target):
        # These raised FileExistsError, NotADirectoryError and
        # IsADirectoryError with a traceback and exit 1.
        (tmp_path / "taken").write_text("")
        code, out, err = run(capsys, *argv, str(tmp_path / target))
        assert code == 2 and not out and err.startswith("error: ")

    def test_a_model_file_with_a_byte_order_mark_is_read(self, capsys, tmp_path):
        # The mark used to reach the parser and fail line 1 as an unknown
        # directive '\ufeffsupervisors'.
        marked = tmp_path / "gap.des"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(GAP).read_bytes())
        assert run(capsys, "check", str(marked)) == run(capsys, "check", GAP)

    def test_supervisor_files_with_a_byte_order_mark_are_read(self, capsys,
                                                             sup_dir):
        # The mark used to make each file invalid JSON.
        expected = run(capsys, "verify", GAP, "--supervisors", str(sup_dir))
        assert expected[0] == 0
        for path in sup_dir.glob("*.json"):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(capsys, "verify", GAP, "--supervisors", str(sup_dir)) == expected

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
