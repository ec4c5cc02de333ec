"""Controllability and the observability condition family."""

import pytest

from infobs import (DISABLE, ENABLE, SupervisionProfile, can_enable, check,
                    default_frame, must_disable, must_enable)
from infobs.conditions import _extended_lines
from infobs.errors import ModelError
from infobs.kripke import And, Not, Var, possible

from conftest import plant_from_pairs
from randgen import instance_stream


def blind_two_step_chain():
    """g twice in a row: first legal, second not; nobody observes anything."""
    model = plant_from_pairs(
        events={"g"},
        states={"q0", "q1", "q2"},
        initial="q0",
        delta={("q0", "g"): "q1", ("q1", "g"): "q2"},
        legal_states={"q0", "q1"},
        legal_transitions={("q0", "g")},
    )
    profile = SupervisionProfile((frozenset(),), (frozenset({"g"}),))
    return model, profile


class TestShorthand:
    def test_must_disable_is_possible_and_not_enableable(self, legacy_gap_frame):
        frame = legacy_gap_frame
        for k in range(len(frame.worlds)):
            for ev in frame.model.events:
                lhs = frame.eval(k, must_disable(ev))
                rhs = frame.eval(k, And(Not(can_enable(ev)), Var(possible(ev))))
                assert lhs == rhs

    def test_must_enable_implies_possible(self, legacy_gap_frame):
        frame = legacy_gap_frame
        for k in range(len(frame.worlds)):
            for ev in frame.model.events:
                if frame.eval(k, must_enable(ev)):
                    assert frame.eval(k, Var(possible(ev)))

    def test_can_enable_does_not_imply_must_enable(self, legacy_gap_frame):
        frame = legacy_gap_frame
        falsified = any(
            frame.eval(k, can_enable(ev)) and not frame.eval(k, must_enable(ev))
            for k in range(len(frame.worlds)) for ev in frame.model.events)
        assert falsified


class TestControllability:
    def test_gap_model_is_controllable(self, legacy_gap, legacy_gap_frame):
        model, profile = legacy_gap
        assert check(legacy_gap_frame, "controllability").holds

    def test_everything_legal_is_controllable(self):
        for model, profile in instance_stream(101, 15, legal_state_bias=1.1):
            frame = default_frame(model, profile)
            assert check(frame, "controllability").holds

    def test_uncontrollable_escape_is_reported_at_the_initial_world(self, legacy_gap):
        model, profile = legacy_gap
        weakened = plant_from_pairs(model.events, model.states, model.initial,
                                    model.delta, model.legal_states,
                                    model.legal_transitions - {("q0", "a")})
        verdict = check(default_frame(weakened, profile), "controllability")
        assert not verdict.holds
        ce = verdict.counterexample
        assert (ce.event, ce.string, ce.world.plant) == ("a", (), "q0")


class TestExtended:
    def test_bets_model_holds_with_enable_default(self, conditional_bets,
                                                   conditional_bets_frame):
        model, profile = conditional_bets
        verdict = check(conditional_bets_frame, "extended")
        assert verdict.holds
        assert verdict.defaults == {"g": ENABLE}

    def test_blind_chain_fails_with_a_conflicting_world_pair(self):
        model, profile = blind_two_step_chain()
        verdict = check(default_frame(model, profile), "extended")
        assert not verdict.holds
        ce = verdict.counterexample
        assert ce.event == "g"
        assert ce.string == ()          # needs the default to enable
        assert ce.conflict_string == ("g",)  # needs the default to disable

    def test_full_observation_full_control_holds_whenever_controllable(self):
        for model, profile_ignored in instance_stream(107, 30):
            profile = SupervisionProfile((model.events,), (model.events,))
            frame = default_frame(model, profile)
            if check(frame, "controllability").holds:
                assert check(frame, "extended").holds

    def test_forced_default_pins_the_partition(self, forced_disable):
        # After ab every supervisor abstains while g must stay blocked, so
        # the default for g is not a free choice here.
        model, profile = forced_disable
        frame = default_frame(model, profile)
        verdict = check(frame, "extended")
        assert verdict.holds
        assert verdict.defaults == {"g": DISABLE}
        uncovered = frame.legal_bits
        for line in _extended_lines(profile, "g"):
            uncovered &= ~frame.truth_set(line)
        enable_fails = uncovered & ~frame.truth_set(can_enable("g"))
        assert frame.composite.words[frame.lowest(enable_fails)] == ("a", "b")


class TestCorrected:
    def test_gap_model_holds_in_both_shapes(self, legacy_gap, legacy_gap_frame):
        model, profile = legacy_gap
        for which in ("corrected", "split"):
            assert check(legacy_gap_frame, which).holds

    def test_bets_model_holds(self, conditional_bets, conditional_bets_frame):
        model, profile = conditional_bets
        assert check(conditional_bets_frame, "corrected").holds

    def test_symmetric_diamond_fails_at_the_initial_world(self, diamond,
                                                          diamond_frame):
        model, profile = diamond
        verdict = check(diamond_frame, "corrected")
        assert not verdict.holds
        assert verdict.counterexample.string == ()

    def test_coupled_and_split_always_agree(self, n2_instances):
        disagreements = 0
        for model, profile, frame in n2_instances:
            coupled = check(frame, "corrected")
            split = check(frame, "split")
            disagreements += (coupled.holds != split.holds)
        assert disagreements == 0


class TestLegacy:
    def test_gap_model_fails_over_all_worlds(self, legacy_gap, legacy_gap_frame):
        model, profile = legacy_gap
        verdict = check(legacy_gap_frame, "legacy",
                        worlds="all", relation="total")
        assert not verdict.holds
        assert verdict.counterexample.event == "g"
        assert verdict.counterexample.string == ("g", "a")

    def test_gap_model_holds_over_legal_worlds(self, legacy_gap, legacy_gap_frame):
        model, profile = legacy_gap
        assert check(legacy_gap_frame, "legacy",
                     worlds="legal", relation="total").holds

    def test_everything_legal_makes_legacy_agree_with_corrected(self):
        for model, profile in instance_stream(113, 25, legal_state_bias=1.1):
            frame = default_frame(model, profile)
            legacy = check(frame, "legacy",
                           worlds="all", relation="total")
            corrected = check(frame, "corrected")
            assert legacy.holds == corrected.holds

    def test_separating_controllability(self, n2_instances):
        # Quantifying the coupled condition over every event equals
        # controllability plus the condition over controlled events.
        disagreements = 0
        for model, profile, frame in n2_instances:
            left = (check(frame, "controllability").holds
                    and check(frame, "corrected").holds)
            right = check(frame, "legacy",
                          worlds="legal",
                          events="all",
                          relation="partial").holds
            disagreements += (left != right)
        assert disagreements == 0


class TestCoobservability:
    def test_veto_style_fails_on_the_bets_model(self, conditional_bets,
                                                conditional_bets_frame):
        model, profile = conditional_bets
        verdict = check(conditional_bets_frame, "cp")
        assert not verdict.holds
        assert verdict.counterexample.string == ()

    def test_veto_style_holds_on_the_gap_model(self, legacy_gap,
                                               legacy_gap_frame):
        model, profile = legacy_gap
        assert check(legacy_gap_frame, "cp").holds

    def test_approve_style_fails_on_the_mirrored_model(self, conditional_bets_mirror,
                                                       mirror_frame):
        model, profile = conditional_bets_mirror
        verdict = check(mirror_frame, "da")
        assert not verdict.holds
        assert verdict.counterexample.string == ()
        # and the mirror's veto side is fine, mirroring the bets model
        assert check(mirror_frame, "cp").holds

    def test_approve_style_holds_on_the_bets_model(self, conditional_bets,
                                                   conditional_bets_frame):
        # Every world where g must stay live is covered by a definite
        # knower, so the approve-only architecture suffices here; the
        # mirrored model is the one that defeats it.
        model, profile = conditional_bets
        assert check(conditional_bets_frame, "da").holds

    def test_defaults_carry_the_architecture_bias(self, legacy_gap,
                                                  legacy_gap_frame):
        model, profile = legacy_gap
        cp = check(legacy_gap_frame, "cp")
        da = check(legacy_gap_frame, "da")
        assert cp.defaults == {"g": ENABLE}
        assert da.defaults == {"g": DISABLE}


class TestWeakeningChain:
    def test_chain_on_the_instance_set(self, n2_instances):
        violations = 0
        for model, profile, frame in n2_instances:
            extended = check(frame, "extended").holds
            corrected = check(frame, "corrected").holds
            cp = check(frame, "cp").holds
            da = check(frame, "da").holds
            strong_cp = check(frame, "strong_cp").holds
            strong_da = check(frame, "strong_da").holds
            for stronger, weaker in ((corrected, extended), (cp, extended),
                                     (da, extended), (strong_cp, cp),
                                     (strong_da, da)):
                violations += (stronger and not weaker)
        assert violations == 0

    def test_extended_is_strictly_weaker_than_every_other_condition(self, forced_disable):
        model, profile = forced_disable
        frame = default_frame(model, profile)
        assert check(frame, "extended").holds
        assert not check(frame, "corrected").holds
        assert not check(frame, "cp").holds
        assert not check(frame, "da").holds

    def test_strictness_witnesses(self, conditional_bets, conditional_bets_frame,
                                  legacy_gap, legacy_gap_frame,
                                  conditional_bets_mirror, mirror_frame):
        model, profile = conditional_bets
        assert check(conditional_bets_frame, "extended").holds
        assert not check(conditional_bets_frame, "cp").holds
        model, profile = conditional_bets_mirror
        assert check(mirror_frame, "extended").holds
        assert not check(mirror_frame, "da").holds
        model, profile = legacy_gap
        assert check(legacy_gap_frame, "extended").holds
        assert not check(legacy_gap_frame, "legacy",
                         worlds="all",
                         relation="total").holds


class TestVerdictShape:
    def test_counterexample_and_defaults_presence(self, n2_instances):
        for model, profile, frame in n2_instances[:40]:
            verdicts = [
                check(frame, "controllability"),
                check(frame, "extended"),
                check(frame, "corrected"),
                check(frame, "cp"),
                check(frame, "legacy"),
            ]
            for verdict in verdicts:
                assert (verdict.counterexample is None) == verdict.holds
                assert (verdict.defaults is not None) == verdict.holds
                if verdict.holds:
                    assert set(verdict.defaults) == set(profile.sigma_c)


class TestConditionTable:
    def test_unknown_ids_and_domains_are_refused(self, legacy_gap,
                                                 legacy_gap_frame):
        model, profile = legacy_gap
        for which, kwargs in [("nonsense", {}),
                              ("corrected", {"relation": "total"}),
                              ("strong_cp", {"relation": "partial"}),
                              ("extended", {"worlds": "all"}),
                              ("extended", {"events": "nonsense"}),
                              ("legacy", {"events": "nonsense"})]:
            with pytest.raises(ModelError):
                check(legacy_gap_frame, which, **kwargs)


class TestDeterminism:
    def test_counterexamples_are_reproducible(self, diamond):
        model, profile = diamond
        first = check(default_frame(model, profile), "extended")
        second = check(default_frame(model, profile), "extended")
        assert first.counterexample == second.counterexample
        assert first.counterexample.string == ("a",)
        assert first.counterexample.conflict_string == ()
