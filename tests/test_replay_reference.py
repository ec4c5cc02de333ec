"""The closed loop's table of fused decisions and the oracle's memoized
replay against their literal forms in ``conftest``.

``closed_loop`` fuses once per event and tuple of controller estimates, and
``oracle_solves`` steps each observer once per word prefix; neither may
change a verdict, a column, an error or the place an error is raised.
"""

import json
import random
from dataclasses import replace

import pytest

from infobs import (ABSTAIN, ENABLE, OFF, ON, WOFF, WON, SupervisionProfile,
                    closed_loop, default_frame, load_supervisors, oracle_solves,
                    save_supervisors, synthesize)
from infobs.errors import InfobsError, SynthesisError
from infobs.synthesis import Supervisor, SynthesisResult

from conftest import (CORRUPT_SEED, plant_from_pairs, reference_closed_loop,
                      reference_solves)
from randgen import instance_stream

REPLAY_SEED = 20240607


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except InfobsError as exc:
        return type(exc), str(exc)


def columns(fn, *args):
    """The closed loop's columns, or the error building it raises."""
    loop = outcome(fn, *args)
    if isinstance(loop, tuple):
        return loop
    return loop.plants, loop.ids, loop.edges


def assert_agree(model, profile, result):
    assert (columns(closed_loop, model, profile, result)
            == columns(reference_closed_loop, model, profile, result))
    assert (outcome(oracle_solves, model, profile, result)
            == outcome(reference_solves, model, profile, result))


def raised_at(function, *args):
    """The error ``function(*args)`` raises and the word its replay loop was
    on when it did, read from the loop's local ``word``."""
    with pytest.raises(InfobsError) as info:
        function(*args)
    tb = info.value.__traceback__
    while tb.tb_frame.f_code.co_name != function.__name__:
        tb = tb.tb_next
    return type(info.value), str(info.value), tb.tb_frame.f_locals["word"]


def test_synthesized_and_reloaded_supervisors_agree(tmp_path):
    # Reloading renumbers some observers' estimates, so the tables are
    # also read through ids other than the composite's.
    solved = 0
    for n, (model, profile) in enumerate(instance_stream(REPLAY_SEED, 300)):
        try:
            result = synthesize(default_frame(model, profile))
        except SynthesisError:
            continue
        solved += 1
        save_supervisors(result, tmp_path / str(n))
        for run in (result, load_supervisors(tmp_path / str(n))):
            assert_agree(model, profile, run)
    assert solved >= 100


def test_corrupted_tables_agree(synthesized_instances):
    # The corruption of test_agrees_with_the_pair_walk_on_corrupted_tables:
    # about 30% of the cells get another decision, so verdicts fail and
    # fusion raises on both paths.
    rng = random.Random(CORRUPT_SEED)
    decisions = (ON, OFF, WON, WOFF, ABSTAIN)
    failing = raising = 0
    for model, profile, result in synthesized_instances:
        corrupted = SynthesisResult(tuple(
            Supervisor(s.observer, {
                key: rng.choice([d for d in decisions if d is not old])
                if rng.random() < 0.3 else old
                for key, old in s.table.items()})
            for s in result.supervisors), result.defaults, {})
        assert_agree(model, profile, corrupted)
        verdict = outcome(oracle_solves, model, profile, corrupted)
        raising += isinstance(verdict, tuple)
        failing += not isinstance(verdict, tuple) and not verdict.ok
    assert failing > 0 and raising > 0


@pytest.mark.parametrize("supervisor", [1, 2])
def test_a_file_without_transitions_cannot_follow_at_the_same_word(
        conditional_bets, tmp_path, supervisor):
    model, profile = conditional_bets
    save_supervisors(synthesize(default_frame(model, profile)), tmp_path)
    path = tmp_path / f"supervisor_{supervisor}.json"
    data = json.loads(path.read_text())
    data["transitions"] = []
    path.write_text(json.dumps(data))
    result = load_supervisors(tmp_path)
    seen = "a" if supervisor == 1 else "b"
    new = raised_at(oracle_solves, model, profile, result)
    assert new == raised_at(reference_solves, model, profile, result)
    assert new[1:] == (f"observer {supervisor} cannot follow observable event"
                       f" {seen!r} from estimate {data['initial']}", (seen,))
    assert (columns(closed_loop, model, profile, result)
            == columns(reference_closed_loop, model, profile, result))


def test_a_missing_cell_is_reported_before_a_later_observer_is_stuck():
    # Both supervisors observe `a` and control `g`.  After `a`, supervisor
    # 1 reaches an estimate without a cell for `g` and supervisor 2 cannot
    # follow; a replay reads supervisor 1's decision first.
    model = plant_from_pairs({"a", "g"}, {"q0", "q1", "t0", "t1"}, "q0",
                             {("q0", "a"): "q1", ("q0", "g"): "t0",
                              ("q1", "g"): "t1"},
                             {"q0", "q1", "t1"}, {("q0", "a"), ("q1", "g")})
    both = frozenset({"a"}), frozenset({"a"})
    profile = SupervisionProfile(both, (frozenset({"g"}),) * 2)
    first, second = synthesize(default_frame(model, profile)).supervisors
    table = {key: d for key, d in first.table.items() if key[0] == 0}
    stuck = replace(second.observer, moves={"a": {}})
    result = SynthesisResult((Supervisor(first.observer, table),
                              Supervisor(stuck, second.table)), {"g": ENABLE}, {})
    new = raised_at(oracle_solves, model, profile, result)
    assert new == raised_at(reference_solves, model, profile, result)
    assert new[1].startswith("supervisor 1 has no decision for event 'g'")
    assert new[2] == ("a",)
