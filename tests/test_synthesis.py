"""The knowledge-based policy, supervisor tables, closed loop, verification."""

import random
import re

import pytest

from infobs import (ABSTAIN, ENABLE, OFF, ON, WOFF, WON, SupervisionProfile,
                    closed_loop, default_frame, load_supervisors,
                    must_disable, must_enable, oracle_solves, project_policy,
                    synthesize, verify_solution)
from infobs.errors import (InfobsError, ModelError, NotControllable,
                           NotInferenceObservable, PolicyAmbiguity)
from infobs.fusion import ControlConflict, UndefinedFusion
from infobs.kripke import KripkeFrame
from infobs.observation import build_composite, project
from infobs.synthesis import (PolicyCase, Supervisor, SynthesisResult, kp_case,
                              policy_truths)

from conftest import (CORRUPT_SEED, automaton_language, composite_delta,
                      legal_rows, plant_from_pairs, reference_equivalent,
                      world_after, write_peeking_supervisors)


def policy_at(frame, k, event, i):
    """The policy's decision and case for supervisor ``i`` at world ``k``."""
    return kp_case(*policy_truths(frame, k, event, i))


class TestPolicy:
    def test_bets_model_initial_decision_is_a_conditional_veto(self, conditional_bets_frame):
        k = world_after(conditional_bets_frame, ())
        decision, case = policy_at(conditional_bets_frame, k, "g", 0)
        assert decision is WOFF and case is PolicyCase.BET_DISABLE

    def test_gap_model_initial_decision_is_a_definite_veto(self, legacy_gap_frame):
        k = world_after(legacy_gap_frame, ())
        decision, _case = policy_at(legacy_gap_frame, k, "g", 0)
        assert decision is OFF

    def test_blind_supervisor_defers_to_the_informed_one(self, legacy_gap_frame):
        k = world_after(legacy_gap_frame, ())
        decision, case = policy_at(legacy_gap_frame, k, "g", 1)
        assert decision is ABSTAIN and case is PolicyCase.DEFERS

    def test_mirrored_model_bets_on_enabling(self, mirror_frame):
        k = world_after(mirror_frame, ())
        decision, case = policy_at(mirror_frame, k, "g", 0)
        assert decision is WON and case is PolicyCase.BET_ENABLE


class TestProjectPolicy:
    def test_bets_model_supervisor_one_table(self, conditional_bets_frame):
        table = project_policy(conditional_bets_frame, 0, "g")
        names = conditional_bets_frame.composite.observers[0].states
        by_initial = {frozenset({"s0", "s2", "t0", "t2"}): WOFF,
                      frozenset({"s1", "s3", "t1", "t3"}): ON}
        assert {names[e]: decision for e, (decision, _case) in table.items()} == by_initial

    def test_full_observation_table_mirrors_transition_legality(self, legacy_gap):
        model, _ = legacy_gap
        profile = SupervisionProfile((model.events,), (frozenset({"g"}),))
        frame = default_frame(model, profile)
        names = frame.composite.observers[0].states
        table = {next(iter(names[e])): decision
                 for e, (decision, _case) in project_policy(frame, 0, "g").items()}
        assert table["q0"] is OFF      # possible but illegal
        assert table["q1"] is ON       # legal
        assert table["q5"] is ABSTAIN  # impossible

    def test_blind_supervisor_abstains_on_its_single_estimate(self, legacy_gap_frame):
        table = project_policy(legacy_gap_frame, 1, "g")
        assert len(table) == 1
        ((_est, (decision, case)),) = table.items()
        assert decision is ABSTAIN and case is PolicyCase.DEFERS

    def test_disagreement_inside_an_estimate_is_reported(self, legacy_gap):
        # The policy is constant on accessibility classes, so ambiguity can
        # only come from a frame whose classes are inconsistent; simulate one
        # by pretending every world is its own class.
        model, profile = legacy_gap

        class BrokenFrame(KripkeFrame):
            def _classes_of(self, i, relation):
                if i == 0 and relation == "partial":
                    return [1 << k for k in range(len(self.worlds))
                            if self.legal_bits >> k & 1]
                return super()._classes_of(i, relation)

        broken = BrokenFrame(build_composite(model, profile), model, profile)
        with pytest.raises(PolicyAmbiguity):
            project_policy(broken, 0, "g")


class TestSynthesize:
    def test_gap_model_supervisors(self, legacy_gap, legacy_gap_frame):
        model, profile = legacy_gap
        result = synthesize(legacy_gap_frame)
        sup1, sup2 = result.supervisors
        assert sup1.observer.states == (frozenset({"q0", "q2"}),
                                        frozenset({"q1", "q3", "q4", "q5"}))
        assert sup1.table == {(0, "g"): OFF, (1, "g"): ON}
        assert set(sup2.table.values()) == {ABSTAIN}
        assert result.defaults == {"g": ENABLE}

    def test_provenance_records_the_cases(self, conditional_bets):
        model, profile = conditional_bets
        result = synthesize(default_frame(model, profile))
        cases = set(result.provenance.values())
        assert PolicyCase.BET_DISABLE in cases and PolicyCase.KNOWS_ENABLE in cases

    def test_supervisors_reuse_the_composite_observers(self, conditional_bets):
        model, profile = conditional_bets
        frame = default_frame(model, profile)
        result = synthesize(frame)
        for sup, observer in zip(result.supervisors, frame.composite.observers,
                                 strict=True):
            assert sup.observer is observer

    def test_not_controllable_is_raised_with_the_verdict(self, legacy_gap):
        model, profile = legacy_gap
        weakened = plant_from_pairs(model.events, model.states, model.initial,
                                    model.delta, model.legal_states,
                                    model.legal_transitions - {("q0", "a")})
        with pytest.raises(NotControllable) as err:
            synthesize(default_frame(weakened, profile))
        assert err.value.verdict.counterexample.event == "a"

    def test_unsolvable_diamond_is_refused_with_the_world_pair(self, diamond):
        model, profile = diamond
        with pytest.raises(NotInferenceObservable) as err:
            synthesize(default_frame(model, profile))
        ce = err.value.verdict.counterexample
        assert ce.conflict_world is not None


class TestClosedLoop:
    def test_gap_model_closed_loop_language(self, legacy_gap):
        model, profile = legacy_gap
        result = synthesize(default_frame(model, profile))
        loop = (0, composite_delta(closed_loop(model, profile, result)))
        assert automaton_language(loop, 4) == {(), ("a",), ("a", "g")}
        expected = (0, {(0, "a"): 1, (1, "g"): 2})
        assert reference_equivalent(loop, expected).equal

    def test_uncontrolled_plant_runs_free(self, legacy_gap):
        model, _ = legacy_gap
        # A single supervisor controlling nothing: the loop is the plant,
        # legal or not.
        profile = SupervisionProfile((frozenset(),), (frozenset(),))
        all_legal = plant_from_pairs(model.events, model.states, model.initial,
                                     model.delta, model.states,
                                     frozenset(model.delta.keys()))
        result = synthesize(default_frame(all_legal, profile))
        loop = closed_loop(all_legal, profile, result)
        assert reference_equivalent((0, composite_delta(loop)),
                                    (all_legal.initial, all_legal.delta)).equal

    def test_bets_model_closed_loop_is_the_legal_language(self, conditional_bets):
        model, profile = conditional_bets
        result = synthesize(default_frame(model, profile))
        loop = (0, composite_delta(closed_loop(model, profile, result)))
        assert reference_equivalent(loop, legal_rows(model)).equal
        words = automaton_language(loop, 3)
        assert ("a", "g") in words and ("b", "g") in words
        assert ("g",) not in words
        assert ("a", "b", "g") in words and ("b", "a", "g") in words


class TestVerifySolution:
    def test_synthesized_fixtures_verify(self, legacy_gap, conditional_bets):
        for model, profile in (legacy_gap, conditional_bets):
            result = synthesize(default_frame(model, profile))
            assert verify_solution(model, profile, result).equal

    def test_corrupted_table_is_caught_with_a_short_word(self, legacy_gap):
        model, profile = legacy_gap
        result = synthesize(default_frame(model, profile))
        sup1 = result.supervisors[0]
        assert sup1.observer.states[0] == frozenset({"q0", "q2"})
        table = dict(sup1.table)
        table[(0, "g")] = ON
        corrupted = SynthesisResult(
            (Supervisor(sup1.observer, table), result.supervisors[1]),
            result.defaults, result.provenance)
        verdict = verify_solution(model, profile, corrupted)
        assert not verdict.equal
        assert verdict.counterexample == ("g",)

    def test_the_first_differing_event_by_name_ends_the_word(self):
        # Nobody controls anything, so both illegal moves at q0 stay.
        model = plant_from_pairs({"a", "b"}, {"q0", "q1", "q2"}, "q0",
                                 {("q0", "b"): "q2", ("q0", "a"): "q1"},
                                 {"q0"}, ())
        profile = SupervisionProfile((frozenset(),), (frozenset(),))
        free = SynthesisResult((Supervisor(project(model, profile, 0), {}),),
                               {}, {})
        verdict = verify_solution(model, profile, free)
        assert verdict.counterexample == ("a",)
        assert verdict == reference_equivalent(
            (0, composite_delta(closed_loop(model, profile, free))), legal_rows(model))

    def test_agrees_with_the_pair_walk_on_corrupted_tables(self,
                                                           synthesized_instances):
        # About 30% of the cells get another decision.  Closed loops the
        # fusion rule cannot run raise the same error from both paths.
        rng = random.Random(CORRUPT_SEED)
        decisions = (ON, OFF, WON, WOFF, ABSTAIN)
        failing = 0
        for model, profile, result in synthesized_instances:
            corrupted = SynthesisResult(tuple(
                Supervisor(s.observer, {
                    key: rng.choice([d for d in decisions if d is not old])
                    if rng.random() < 0.3 else old
                    for key, old in s.table.items()})
                for s in result.supervisors), result.defaults, {})
            try:
                loop = closed_loop(model, profile, corrupted)
            except InfobsError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    verify_solution(model, profile, corrupted)
                continue
            verdict = verify_solution(model, profile, corrupted)
            assert verdict == reference_equivalent((0, composite_delta(loop)),
                                                   legal_rows(model))
            failing += not verdict.equal
        assert failing > 0


    def test_a_supervisor_observing_a_hidden_event_does_not_fit(self, diamond,
                                                                tmp_path):
        model, profile = diamond
        result = load_supervisors(write_peeking_supervisors(tmp_path / "peek"))
        with pytest.raises(ModelError, match="observes events hidden from it: b"):
            verify_solution(model, profile, result)

    def test_a_supervisor_may_ignore_events_it_could_see(self, legacy_gap):
        # Supervisor 2 is blind; letting it see `a` does not oblige it to look.
        model, profile = legacy_gap
        result = synthesize(default_frame(model, profile))
        wider = SupervisionProfile(
            (profile.observable[0], profile.observable[1] | {"a"}),
            profile.controllable)
        assert verify_solution(model, wider, result).equal
        assert oracle_solves(model, wider, result).ok


class TestCouplingInvariants:
    def test_soundness_on_synthesized_instances(self, synthesized_instances):
        failures = 0
        for model, profile, result in synthesized_instances:
            try:
                if not verify_solution(model, profile, result).equal:
                    failures += 1
            except (ControlConflict, UndefinedFusion):
                failures += 1
        assert failures == 0

    def test_condition_lines_force_the_right_fused_decision(self, synthesized_instances):
        # Wherever some knowledge line covers a possible controlled event,
        # the fused decision matches the requirement exactly.
        from infobs.conditions import _extended_lines
        from infobs.fusion import fuse
        for model, profile, _result in synthesized_instances[:60]:
            frame = default_frame(model, profile)
            result = synthesize(frame)
            for ev in sorted(profile.sigma_c):
                lines = _extended_lines(profile, ev)
                for k, w in enumerate(frame.worlds):
                    if not frame.world_legal(w):
                        continue
                    if (w.plant, ev) not in model.delta:
                        continue
                    if not any(frame.eval(k, line, "partial") for line in lines):
                        continue
                    bag = [result.supervisors[i].decide(frame.composite.ids[i][k], ev)
                           for i in profile.controllers(ev)]
                    fused = fuse(bag, result.defaults[ev])
                    if frame.eval(k, must_enable(ev), "partial"):
                        assert fused is ENABLE
                    if frame.eval(k, must_disable(ev), "partial"):
                        assert fused is not ENABLE

    def test_deferring_abstention_is_backed_by_another_definite_vote(self, synthesized_instances):
        for model, profile, _result in synthesized_instances[:60]:
            frame = default_frame(model, profile)
            for ev in sorted(profile.sigma_c):
                controllers = profile.controllers(ev)
                for k, w in enumerate(frame.worlds):
                    if not frame.world_legal(w) or (w.plant, ev) not in model.delta:
                        continue
                    cases = [policy_at(frame, k, ev, i) for i in controllers]
                    if any(case is PolicyCase.DEFERS for _d, case in cases):
                        assert any(d in (ON, OFF) for d, _c in cases)

    def test_definite_votes_never_conflict_where_the_event_is_possible(self, synthesized_instances):
        for model, profile, _result in synthesized_instances[:60]:
            frame = default_frame(model, profile)
            for ev in sorted(profile.sigma_c):
                for k, w in enumerate(frame.worlds):
                    if (w.plant, ev) not in model.delta:
                        continue
                    votes = {policy_at(frame, k, ev, i)[0]
                             for i in profile.controllers(ev)}
                    assert not ({ON, OFF} <= votes)
