"""Scripted sessions through the interactive simulator."""

import io
from dataclasses import replace

from infobs import (closed_loop, default_frame, load_supervisors,
                    save_supervisors, synthesize)
from infobs.errors import SynthesisError
from infobs.repl import run_simulation
from infobs.synthesis import Supervisor, SynthesisResult

from randgen import instance_stream

#: The stream whose reloaded supervisors are renumbered: save writes each
#: observer's estimates sorted and load numbers them in file order.
RELOAD_SEED = 7


def session(model_profile, *commands, edit=None):
    """The simulator's output for ``commands``; ``edit``, when given, turns
    the synthesized result into the one the session runs."""
    model, profile = model_profile
    frame = default_frame(model, profile)
    result = synthesize(model, profile, frame)
    if edit is not None:
        result = edit(result)
    out = io.StringIO()
    run_simulation(model, profile, result, frame,
                   io.StringIO("\n".join(commands) + "\n"), out)
    return out.getvalue()


class TestSimulator:
    def test_blocked_event_is_refused_with_the_blockers(self, legacy_gap):
        text = session(legacy_gap, "events", "step g", "quit")
        assert "g: possible; fused disable (supervisor 1); blocked" in text
        assert "refused: g is disabled by supervisor 1" in text

    def test_stepping_follows_the_closed_loop(self, legacy_gap):
        text = session(legacy_gap, "step a", "events", "why g", "step g", "quit")
        assert "stepped on a" in text
        assert "g: possible; fused enable; allowed" in text
        assert "decision: on (knows-enable)" in text
        assert "fused(on, abstain) with default enable -> enable" in text
        assert "stepped on g; word so far: a g" in text

    def test_why_shows_the_knowledge_lines(self, conditional_bets):
        text = session(conditional_bets, "why g", "why a", "quit")
        assert "decision: woff (bet-disable)" in text
        assert "knows others cover enabling: yes" in text
        assert "fused(woff, woff) with default enable -> disable" in text
        assert "uncontrollable; always allowed" in text

    def test_estimates_and_reset(self, conditional_bets):
        text = session(conditional_bets, "step a", "estimates", "reset",
                       "estimates", "quit")
        lines = text.splitlines()
        first = lines.index("supervisor 1: {s1,s3,t1,t3}")
        assert "supervisor 2: {s0,s1,t0,t1}" == lines[first + 1]
        assert "back to the initial state" in text
        assert "supervisor 1: {s0,s2,t0,t2}" in text

    def test_unknown_inputs_are_handled(self, legacy_gap):
        text = session(legacy_gap, "step zz", "why zz", "frobnicate", "help",
                       "quit")
        assert "unknown event 'zz'" in text
        assert "unrecognized command" in text
        assert "step <event>" in text

    def test_impossible_event_cannot_be_stepped(self, legacy_gap):
        text = session(legacy_gap, "step a", "step a", "quit")
        assert "a is not possible at q1" in text

    def test_session_ends_on_eof_without_quit(self, legacy_gap):
        text = session(legacy_gap, "events")
        assert text.rstrip().endswith("bye")

    def test_default_action_blocking_is_attributed(self, forced_disable):
        # After ab both supervisors abstain and the event default blocks g.
        text = session(forced_disable, "step a", "step b", "step g", "quit")
        assert "refused: g is disabled by the default action" in text

    def test_a_step_a_supervisor_cannot_follow_changes_nothing(self, legacy_gap):
        # Supervisor 1 has lost its observer moves, so it cannot follow `a`.
        def lose_moves(result):
            first, *rest = result.supervisors
            lost = Supervisor(replace(first.observer, moves={}), first.table)
            return SynthesisResult((lost, *rest), result.defaults,
                                   result.provenance)

        text = session(legacy_gap, "estimates", "events", "step a",
                       "estimates", "events", "quit", edit=lose_moves)
        lines = text.splitlines()[1:-1]
        error = lines.index("error: observer 1 cannot follow observable"
                            " event 'a' from estimate ['q0', 'q2']")
        assert lines[:error] == lines[error + 1:]
        assert "a: possible; uncontrollable; allowed" in lines

    def test_why_explains_the_decisions_the_simulator_fuses(self, conditional_bets):
        # Supervisor 1's observer is edited to stay put on `a`, so after `a`
        # it still decides at its initial estimate while the frame's world
        # has moved on; `why` must fuse the same bag as `events`.
        def stay_put(result):
            first, *rest = result.supervisors
            assert [sorted(est) for est in first.observer.states] == [
                ["s0", "s2", "t0", "t2"], ["s1", "s3", "t1", "t3"]]
            still = replace(first.observer, moves={"a": {0: 0, 1: 1}})
            return SynthesisResult((Supervisor(still, first.table), *rest),
                                   result.defaults, result.provenance)

        text = session(conditional_bets, "step a", "events", "why g", "quit",
                       edit=stay_put)
        assert ("g: possible; fused disable (supervisor 1, supervisor 2);"
                " blocked") in text
        assert "supervisor 1: estimate {s0,s2,t0,t2}" in text
        assert "decision: woff (from table)" in text
        assert "fused(woff, woff) with default enable -> disable" in text
        # No world of the frame pairs s1 with those estimates, so there is
        # no class and no knowledge to show.
        assert ("  an observer has left the projection: no world is"
                " (s1 | {s0,s2,t0,t2} | {s0,s1,t0,t1})") in text.splitlines()
        assert "considers possible" not in text

    def test_why_reports_a_missing_decision_like_events(self, conditional_bets):
        def drop_cell(result):
            first, *rest = result.supervisors
            table = dict(first.table)
            del table[(0, "g")]
            return SynthesisResult((Supervisor(first.observer, table), *rest),
                                   result.defaults, result.provenance)

        text = session(conditional_bets, "events", "why g", "quit",
                       edit=drop_cell)
        error = ("error: supervisor 1 has no decision for event 'g' at"
                 " estimate ['s0', 's2', 't0', 't2']")
        # `events` reports the error on g's line and keeps the other events.
        assert text.splitlines()[1:-1] == [
            "a: possible; uncontrollable; allowed",
            "b: possible; uncontrollable; allowed",
            f"g: possible; {error}",
            error]

    def test_reloaded_supervisors_explain_the_same_worlds(self, tmp_path):
        # Reloading renumbers the estimates of some supervisors, so worlds
        # must be matched by estimate sets, not by ids.
        renumbered = 0
        for n, (model, profile) in enumerate(instance_stream(RELOAD_SEED, 200)):
            frame = default_frame(model, profile)
            try:
                result = synthesize(model, profile, frame)
            except SynthesisError:
                continue
            save_supervisors(result, tmp_path / str(n))
            reloaded = load_supervisors(tmp_path / str(n))
            if all(a.observer.states == b.observer.states
                   for a, b in zip(result.supervisors, reloaded.supervisors)):
                continue
            renumbered += 1
            commands = []
            for word in closed_loop(model, profile, result).words:
                commands += ["reset", *(f"step {ev}" for ev in word),
                             "estimates", "events",
                             *(f"why {ev}" for ev in sorted(model.events))]
            texts = []
            for run in (result, reloaded):
                out = io.StringIO()
                run_simulation(model, profile, run, frame,
                               io.StringIO("\n".join(commands) + "\n"), out)
                texts.append(out.getvalue())
            assert texts[0] == texts[1]
            assert "considers possible" in texts[0] or not profile.sigma_c
        assert renumbered == 13
