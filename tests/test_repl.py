"""Scripted sessions through the interactive simulator."""

import io
from dataclasses import replace

from infobs import default_frame, synthesize
from infobs.repl import run_simulation
from infobs.synthesis import Supervisor, SynthesisResult


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
            lost = Supervisor(replace(first.observer, delta={}), first.table)
            return SynthesisResult((lost, *rest), result.defaults,
                                   result.provenance)

        text = session(legacy_gap, "estimates", "events", "step a",
                       "estimates", "events", "quit", edit=lose_moves)
        lines = text.splitlines()[1:-1]
        error = lines.index("error: observer 1 cannot follow observable"
                            " event 'a' from estimate ['q0', 'q2']")
        assert lines[:error] == lines[error + 1:]
        assert "a: possible; uncontrollable; allowed" in lines
