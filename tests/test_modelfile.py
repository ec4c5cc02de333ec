"""Model file parsing/serialization and supervisor file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from infobs import (load_supervisors, parse_model, save_supervisors,
                    serialize_model, synthesize)
from infobs.errors import FormatError

from conftest import MODELS, estimate_moves, estimate_table


GOOD = """\
# comment line
supervisors 2
event a obs=1
event g ctrl=1,2   # inline comment
state q0 init legal
state q1 legal
trans q0 a q1 legal
trans q1 g q1 legal
"""


class TestParse:
    def test_minimal_model(self):
        model, profile = parse_model(GOOD)
        assert model.initial == "q0"
        assert model.events == {"a", "g"}
        assert profile.n == 2
        assert profile.observable == (frozenset({"a"}), frozenset())
        assert profile.controllable == (frozenset({"g"}),) * 2

    def test_fixture_files_parse(self, legacy_gap):
        model, profile = legacy_gap
        assert len(model.states) == 6
        assert len(model.events) == 2
        assert profile.n == 2

    @pytest.mark.parametrize("mutation,fragment,bad_line", [
        ("trans q1 a q9", "undefined state 'q9'", 9),
        ("trans q0 z q1", "undefined event 'z'", 9),
        ("trans q0 a q1", "duplicate transition", 9),
        ("state q0", "duplicate state", 9),
        ("event a", "duplicate event", 9),
        ("supervisors 2", "duplicate supervisors", 9),
        ("event h obs=7", "out of range", 9),
        # int() alone would read a sign or an underscore.
        ("event h obs=+1", "supervisor index '+1' is not a number", 9),
        ("event h obs=1_0", "supervisor index '1_0' is not a number", 9),
        ("event h obs=-1", "supervisor index '-1' is not a number", 9),
        ("state q9", "unreachable", 9),
        ("banana", "unknown directive", 9),
    ])
    def test_errors_carry_line_numbers(self, mutation, fragment, bad_line):
        with pytest.raises(FormatError) as err:
            parse_model(GOOD + mutation + "\n")
        assert fragment in str(err.value)
        assert err.value.line == bad_line

    @pytest.mark.parametrize("count,message", [
        ("\u00b2", "positive count"), ("0", "positive count"),
        ("-1", "positive count"), ("two", "positive count"),
        ("1 2", "positive count"),
        ("1000000000", "exceeds the ceiling of 1000"),
        ("9" * 5000, "exceeds the ceiling of 1000"),
    ], ids=["\u00b2", "0", "-1", "two", "1 2", "1000000000", "5000-digits"])
    def test_supervisor_count_must_be_a_positive_number(self, count, message):
        # A superscript two passes str.isdigit but not int(), and int()
        # refuses digit strings past a few thousand digits.
        with pytest.raises(FormatError, match=message) as err:
            parse_model(GOOD.replace("supervisors 2", f"supervisors {count}"))
        assert err.value.line == 2

    def test_exactly_one_init(self):
        with pytest.raises(FormatError, match="exactly one init"):
            parse_model("supervisors 1\nevent a\nstate q0 legal\n")
        doubled = GOOD.replace("state q1 legal", "state q1 init legal")
        with pytest.raises(FormatError, match="exactly one init"):
            parse_model(doubled)

    def test_init_must_be_legal(self):
        with pytest.raises(FormatError, match="must be legal"):
            parse_model("supervisors 1\nevent a\nstate q0 init\n")

    @pytest.mark.parametrize("hash_seed", ["1", "6", "8"])
    def test_the_first_unknown_state_option_is_named(self, hash_seed):
        # Which member a set gives up depends on string hashing; under hash
        # seed 6 a set of these two options yields 'bar' first.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("from infobs import parse_model\n"
                "try:\n"
                "    parse_model('supervisors 1\\nstate q0 init legal foo bar\\n')\n"
                "except Exception as exc:\n"
                "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "unknown state option 'foo'" in proc.stdout

    @pytest.mark.parametrize("first, second, message", [
        ("trans q9 g q1", "trans q8 a q1", "undefined state 'q9'"),
        ("trans q0 g q9", "trans q1 a q8", "undefined state 'q9'"),
        ("trans q0 z q1", "trans q1 y q1", "undefined event 'z'"),
        ("trans q0 g q2 legal", "trans q1 a q2 legal",
         "legal transition q0 -g-> q2 must run between legal states"),
    ], ids=["source", "target", "event", "legal-endpoint"])
    def test_the_first_of_two_bad_transitions_is_named(self, first, second,
                                                       message):
        # The tables are checked whole, so file order, not the order of the
        # per-event rows (a before g here), must pick the one to name.
        text = GOOD + "state q2\n" + first + "\n" + second + "\n"
        with pytest.raises(FormatError) as err:
            parse_model(text)
        assert (str(err.value), err.value.line) == (f"line 10: {message}", 10)

    def test_legal_transition_endpoints(self):
        text = ("supervisors 1\nevent a\nstate q0 init legal\nstate q1\n"
                "trans q0 a q1 legal\n")
        with pytest.raises(FormatError, match="legal states"):
            parse_model(text)


class TestRoundTrip:
    @pytest.mark.parametrize("name", [
        "legacy_gap", "conditional_bets", "conditional_bets_mirror",
        "diamond_unsolvable", "forced_disable"])
    def test_serialize_is_a_fixpoint_of_parsing(self, name):
        text = (MODELS / f"{name}.des").read_text()
        once = serialize_model(*parse_model(text))
        twice = serialize_model(*parse_model(once))
        assert once == twice
        model_a, profile_a = parse_model(text)
        model_b, profile_b = parse_model(once)
        assert model_a == model_b and profile_a == profile_b


class TestSupervisorFiles:
    def test_save_and_load_round_trip(self, conditional_bets, tmp_path):
        model, profile = conditional_bets
        result = synthesize(model, profile)
        save_supervisors(result, tmp_path)
        loaded = load_supervisors(tmp_path)
        assert loaded.defaults == result.defaults
        for original, back in zip(result.supervisors, loaded.supervisors):
            assert estimate_table(back) == estimate_table(original)
            assert back.observer.states[0] == original.observer.states[0]
            assert estimate_moves(back.observer) == estimate_moves(original.observer)
        assert ({(i, loaded.supervisors[i].observer.states[k], ev): case
                 for (i, k, ev), case in loaded.provenance.items()}
                == {(i, result.supervisors[i].observer.states[k], ev): case
                    for (i, k, ev), case in result.provenance.items()})

    def test_loaded_estimates_are_the_stored_ones(self, conditional_bets,
                                                  tmp_path):
        # The loader numbers the estimates ``initial`` first, then
        # ``states`` in file order, and every id a loaded supervisor names
        # is one of them.
        save_supervisors(synthesize(*conditional_bets), tmp_path)
        for sup in load_supervisors(tmp_path).supervisors:
            data = json.loads((tmp_path / f"supervisor_{sup.index + 1}.json")
                              .read_text())
            obs = sup.observer
            assert [sorted(est) for est in obs.states] == [
                data["initial"], *(s for s in data["states"] if s != data["initial"])]
            named = {k for row in obs.moves.values() for k in (*row, *row.values())}
            named |= {k for k, _ev in sup.table}
            assert named <= set(range(len(obs.states)))

    def test_a_transition_on_an_unobserved_event_is_refused(self,
                                                             conditional_bets,
                                                             tmp_path):
        save_supervisors(synthesize(*conditional_bets), tmp_path)
        path = tmp_path / "supervisor_1.json"
        data = json.loads(path.read_text())
        assert "b" not in data["observable"]
        data["transitions"].append({"src": data["states"][1], "event": "b",
                                    "dst": data["states"][0]})
        path.write_text(json.dumps(data))
        k = len(data["transitions"]) - 1
        with pytest.raises(FormatError,
                           match=rf"transitions\[{k}\] is on event 'b', which is not"
                                 " observable"):
            load_supervisors(tmp_path)

    def test_an_estimate_in_another_order_loads_as_the_sorted_one(
            self, conditional_bets, tmp_path):
        # A hand-edited file may name an estimate's states in any order
        # outside `states`; it denotes the same estimate, with the same id.
        save_supervisors(synthesize(*conditional_bets), tmp_path / "sorted")
        shuffled = tmp_path / "shuffled"
        save_supervisors(synthesize(*conditional_bets), shuffled)
        path = shuffled / "supervisor_1.json"
        data = json.loads(path.read_text())
        est = data["states"][-1]
        assert len(est) > 1

        def flip(value):
            return value[::-1] if value == est else value

        data["initial"] = flip(data["initial"])
        for t in data["transitions"]:
            t["src"], t["dst"] = flip(t["src"]), flip(t["dst"])
        for entry in data["table"]:
            entry["state"] = flip(entry["state"])
        assert est[::-1] in (*(t["dst"] for t in data["transitions"]),
                             *(e["state"] for e in data["table"]))
        path.write_text(json.dumps(data))
        assert load_supervisors(shuffled) == load_supervisors(tmp_path / "sorted")

    @pytest.mark.parametrize("member", [7, ["s1"]], ids=["non-string", "unhashable"])
    @pytest.mark.parametrize("field", ["states", "initial", "transitions", "table"])
    def test_a_bad_estimate_member_keeps_its_message(self, conditional_bets,
                                                     tmp_path, field, member):
        save_supervisors(synthesize(*conditional_bets), tmp_path)
        path = tmp_path / "supervisor_1.json"
        data = json.loads(path.read_text())
        if field == "initial":
            what, bad = "initial", data["initial"] + [member]
            data["initial"] = bad
        elif field == "states":
            what, bad = "states[1]", data["states"][1] + [member]
            data["states"][1] = bad
        elif field == "transitions":
            what, bad = "transitions[0].dst", data["transitions"][0]["dst"] + [member]
            data["transitions"][0]["dst"] = bad
        else:
            what, bad = "table[0].state", data["table"][0]["state"] + [member]
            data["table"][0]["state"] = bad
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError) as info:
            load_supervisors(tmp_path)
        assert str(info.value) == (f"{path}: {what} must be a list of names,"
                                   f" not {bad!r}")

    def test_missing_directory_content_is_reported(self, tmp_path):
        with pytest.raises(FormatError, match="no supervisor"):
            load_supervisors(tmp_path)
