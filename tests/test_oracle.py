"""String-level replay, naive condition expansion, exhaustive table search."""

import random
from collections import Counter

import pytest

from infobs import (ABSTAIN, CONDITIONS, DISABLE, ENABLE, ON, PlantSpec,
                    SupervisionProfile, check, closed_loop, default_frame,
                    exhaustive_supervisor_search, oracle_condition,
                    oracle_solves, project, synthesize)
from infobs.automata import closure, validate_model, validate_profile
from infobs.errors import EnumerationBound, InstanceTooLarge
import infobs.oracle as oracle_mod
from infobs.oracle import (RULE_ILLEGAL_ENABLED, RULE_LEGAL_DISABLED,
                           RULE_UNCONTROLLABLE)
from infobs.synthesis import Supervisor, SynthesisResult

from conftest import composite_delta, plant_from_pairs, reference_equivalent

INCOHERENT_SEED = 20240607


def incoherent_instance(rng: random.Random):
    """A random plant without the coherent shape of the shipped fixtures and
    ``randgen``: moves may lead from illegal states back to legal ones, and
    a move between legal states need not be legal."""
    events = ("a", "b", "c")[:rng.randint(1, 3)]
    states = [f"q{k}" for k in range(rng.randint(1, 5))]
    successors = {ev: {q: rng.choice(states) for q in states if rng.random() < 0.6}
                  for ev in events}
    reach = closure({"q0"}, successors.values())
    successors = {ev: {q: dst for q, dst in row.items() if q in reach}
                  for ev, row in successors.items()}
    legal = {q for q in states if q in reach and rng.random() < 0.6} | {"q0"}
    legal_sources = {ev: frozenset(q for q, dst in row.items()
                                   if q in legal and dst in legal and rng.random() < 0.7)
                     for ev, row in successors.items()}
    model = PlantSpec(frozenset(events), frozenset(reach), "q0", successors,
                      frozenset(legal), legal_sources)
    n = rng.randint(1, 3)
    profile = SupervisionProfile(
        tuple(frozenset(ev for ev in events if rng.random() < 0.4) for _ in range(n)),
        tuple(frozenset(ev for ev in events if rng.random() < 0.6) for _ in range(n)))
    validate_model(model)
    validate_profile(model, profile)
    return model, profile


def incoherence(model: PlantSpec) -> set[str]:
    """The coherence rules a plant breaks: ``escape`` for a move from an
    illegal state back to a legal one, ``not-induced`` for a move between
    legal states that is not legal."""
    broken = set()
    for ev, row in model.successors.items():
        for q, dst in row.items():
            if dst in model.legal_states and q not in model.legal_states:
                broken.add("escape")
            elif dst in model.legal_states and q not in model.legal_sources[ev]:
                broken.add("not-induced")
    return broken


class TestOracleSolves:
    def test_synthesized_gap_model_passes(self, legacy_gap):
        model, profile = legacy_gap
        result = synthesize(default_frame(model, profile))
        assert oracle_solves(model, profile, result, 6).ok

    def test_corrupted_table_enables_an_illegal_event(self, legacy_gap):
        model, profile = legacy_gap
        result = synthesize(default_frame(model, profile))
        sup1 = result.supervisors[0]
        assert sup1.observer.states[0] == frozenset({"q0", "q2"})
        table = dict(sup1.table)
        table[(0, "g")] = ON
        corrupted = SynthesisResult(
            (Supervisor(sup1.observer, table), result.supervisors[1]),
            result.defaults, {})
        verdict = oracle_solves(model, profile, corrupted, 2)
        assert not verdict.ok
        assert (verdict.string, verdict.event) == ((), "g")
        assert verdict.rule == RULE_ILLEGAL_ENABLED

    def test_everything_legal_with_always_on_supervisors_passes(self, legacy_gap):
        model, _ = legacy_gap
        all_legal = plant_from_pairs(model.events, model.states, model.initial,
                                     model.delta, model.states,
                                     frozenset(model.delta.keys()))
        profile = SupervisionProfile((frozenset(),), (model.events,))
        observer = project(all_legal, profile, 0)
        table = {(k, ev): ON for k in range(len(observer.states)) for ev in model.events}
        result = SynthesisResult((Supervisor(observer, table),),
                                 {ev: ENABLE for ev in model.events}, {})
        assert oracle_solves(all_legal, profile, result, 6).ok

    def test_uncontrollable_escape_rule(self, legacy_gap):
        model, profile = legacy_gap
        result = synthesize(default_frame(model, profile))
        weakened = plant_from_pairs(model.events, model.states, model.initial,
                                    model.delta, model.legal_states,
                                    model.legal_transitions - {("q0", "a")})
        verdict = oracle_solves(weakened, profile, result, 3)
        assert not verdict.ok and verdict.rule == RULE_UNCONTROLLABLE

    def test_overly_cautious_supervisors_block_legal_words(self, legacy_gap):
        model, profile = legacy_gap
        result = synthesize(default_frame(model, profile))
        sup1 = result.supervisors[0]
        table = {key: ABSTAIN for key in sup1.table}
        timid = SynthesisResult(
            (Supervisor(sup1.observer, table), result.supervisors[1]),
            {"g": DISABLE}, {})
        verdict = oracle_solves(model, profile, timid, 3)
        assert not verdict.ok and verdict.rule == RULE_LEGAL_DISABLED

    def test_depth_above_the_ceiling_is_rejected(self, legacy_gap):
        model, profile = legacy_gap
        result = synthesize(default_frame(model, profile))
        with pytest.raises(EnumerationBound):
            oracle_solves(model, profile, result, 11)
        with pytest.raises(EnumerationBound):
            exhaustive_supervisor_search(model, profile, 11)


class TestOracleCondition:
    def test_fixture_conditions_by_direct_expansion(self, conditional_bets, diamond):
        model, profile = conditional_bets
        assert oracle_condition(model, profile, "extended")
        model, profile = diamond
        assert not oracle_condition(model, profile, "extended")

    def test_full_observation_corrected_holds(self, legacy_gap):
        model, _ = legacy_gap
        profile = SupervisionProfile((model.events,), (frozenset({"g"}),))
        assert oracle_condition(model, profile, "corrected")

    def test_agreement_with_the_checkers(self, n2_instances, n3_instances):
        mismatches = 0
        for model, profile, frame in [*n2_instances, *n3_instances]:
            checks = {
                "extended": check(frame, "extended").holds,
                "corrected": check(frame, "corrected").holds,
                "split": check(frame, "split").holds,
                "cp": check(frame, "cp").holds,
                "da": check(frame, "da").holds,
                "strong_cp": check(frame, "strong_cp").holds,
                "strong_da": check(frame, "strong_da").holds,
                "controllability": check(frame, "controllability").holds,
                "legacy": check(frame, "legacy").holds,
            }
            for which, expected in checks.items():
                if oracle_condition(model, profile, which) != expected:
                    mismatches += 1
        assert mismatches == 0

    def test_agreement_beyond_coherent_plants(self):
        rng = random.Random(INCOHERENT_SEED)
        broken = Counter()
        mismatches = []
        for _ in range(700):
            model, profile = incoherent_instance(rng)
            frame = default_frame(model, profile)
            broken.update(incoherence(model))
            for which in CONDITIONS:
                if oracle_condition(model, profile, which) != check(frame, which).holds:
                    mismatches.append((model, profile, which))
        assert broken["escape"] > 100 and broken["not-induced"] > 100
        assert mismatches == []

    def test_oversized_instances_are_refused(self, legacy_gap, monkeypatch):
        monkeypatch.setattr(oracle_mod, "MAX_ORACLE_WORLDS", 4)
        model, profile = legacy_gap
        with pytest.raises(InstanceTooLarge):
            oracle_condition(model, profile, "extended")

    def test_unknown_condition_id(self, legacy_gap, monkeypatch):
        model, profile = legacy_gap
        with pytest.raises(ValueError):
            oracle_condition(model, profile, "nonsense")
        # The id is looked up before the composite is built and sized.
        monkeypatch.setattr(oracle_mod, "MAX_ORACLE_WORLDS", 4)
        with pytest.raises(ValueError):
            oracle_condition(model, profile, "nonsense")


class TestExhaustiveSearch:
    def test_diamond_has_no_solution_at_all(self, diamond):
        model, profile = diamond
        assert not exhaustive_supervisor_search(model, profile,
                                                len(model.states) + 1).exists

    def test_gap_model_witness_matches_the_synthesized_loop(self, legacy_gap):
        model, profile = legacy_gap
        found = exhaustive_supervisor_search(model, profile,
                                             len(model.states) + 1)
        assert found.exists
        synthesized = synthesize(default_frame(model, profile))
        assert reference_equivalent(
            (0, composite_delta(closed_loop(model, profile, found.result))),
            (0, composite_delta(closed_loop(model, profile, synthesized)))).equal

    def test_trivial_single_state_plant(self):
        model = plant_from_pairs({"a"}, {"q0"}, "q0", {}, {"q0"}, ())
        profile = SupervisionProfile((frozenset(),), (frozenset(),))
        assert exhaustive_supervisor_search(model, profile, 2).exists

    def test_cell_bound_is_enforced(self, legacy_gap):
        model, _ = legacy_gap
        # Six supervisors, each with a couple of estimates, exceed ten cells.
        profile = SupervisionProfile((frozenset({"a"}),) * 6,
                                     (frozenset({"g"}),) * 6)
        with pytest.raises(InstanceTooLarge):
            exhaustive_supervisor_search(model, profile, 3)

    def test_completeness_against_the_checkers(self, tiny_instances):
        disagreements = 0
        for model, profile, frame, depth, holds in tiny_instances:
            found = exhaustive_supervisor_search(model, profile, depth)
            disagreements += (found.exists != holds)
            if found.exists:
                assert oracle_solves(model, profile, found.result, depth).ok
        assert disagreements == 0
