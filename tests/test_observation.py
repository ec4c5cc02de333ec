"""Observer construction and the plant/observer composite."""

import pytest

from infobs import (SupervisionProfile, compose, dfa_equivalent,
                    plant_automaton, project, reachable)
from infobs.errors import ModelError
from infobs.observation import build_composite
from infobs.randgen import instance_stream

from conftest import estimate_groups


class TestProject:
    def test_gap_model_estimates_match_the_string_oracle(self, legacy_gap):
        # Supervisor 1 sees only a.  The initial estimate is the closure of
        # q0 under the unobservable g; observing a then leads into the
        # closure of {q1, q3}, which g-moves extend with q5 and q4.
        model, profile = legacy_gap
        observer = project(model, profile, 0)
        oracle = estimate_groups(model, profile, 0)
        assert observer.states == frozenset(oracle.values())
        assert observer.initial == oracle[()] == frozenset({"q0", "q2"})
        assert oracle[("a",)] == frozenset({"q1", "q3", "q4", "q5"})
        assert observer.delta == {
            (frozenset({"q0", "q2"}), "a"): frozenset({"q1", "q3", "q4", "q5"})}

    def test_full_observation_mirrors_the_plant(self, legacy_gap):
        model, _ = legacy_gap
        profile = SupervisionProfile((model.events,), (frozenset(),))
        observer = project(model, profile, 0)
        assert observer.states == frozenset(frozenset({q}) for q in reachable(model))
        assert dfa_equivalent(observer.automaton(), plant_automaton(model)).equal

    def test_blind_observer_is_a_single_estimate(self, legacy_gap):
        model, profile = legacy_gap
        observer = project(model, profile, 1)
        assert observer.states == frozenset({frozenset(reachable(model))})
        assert observer.delta == {}

    def test_every_estimate_is_closed_under_unobservable_moves(self):
        for model, profile in instance_stream(31, 40):
            for i in range(profile.n):
                observer = project(model, profile, i)
                unobservable = model.events - profile.observable[i]
                for est in observer.states:
                    for q in est:
                        for ev in unobservable:
                            dst = model.delta.get((q, ev))
                            assert dst is None or dst in est

    def test_transition_targets_are_the_stored_estimates(self):
        # Equal estimates are one object, so lookups keyed on them hit by
        # identity instead of comparing plant-state sets.
        for model, profile in instance_stream(32, 40):
            for i in range(profile.n):
                observer = project(model, profile, i)
                stored = {id(est) for est in observer.states}
                assert all(id(target) in stored
                           for target in observer.delta.values())
                assert all(id(est) in stored for est, _ev in observer.delta)


class TestCompose:
    def test_gap_model_has_one_world_per_word_class(self, legacy_gap, legacy_gap_frame):
        composite = legacy_gap_frame.composite
        assert len(composite.worlds) == 6
        witnesses = sorted(composite.witnesses.values())
        assert witnesses == [(), ("a",), ("a", "g"), ("g",), ("g", "a"),
                             ("g", "a", "g")]

    def test_at_least_one_observer_required(self, legacy_gap):
        model, _ = legacy_gap
        with pytest.raises(ModelError):
            compose(model, [])

    def test_full_observation_worlds_mirror_plant_states(self, legacy_gap):
        model, _ = legacy_gap
        profile = SupervisionProfile((model.events, model.events),
                                     (frozenset(), frozenset()))
        composite = build_composite(model, profile)
        assert {w.plant for w in composite.worlds} == reachable(model)
        assert all(w.estimates == (frozenset({w.plant}),) * 2
                   for w in composite.worlds)

    def test_language_preserved_and_plant_state_inside_every_estimate(self):
        for model, profile in instance_stream(47, 60):
            composite = build_composite(model, profile)
            assert dfa_equivalent(composite.automaton(),
                                  plant_automaton(model)).equal
            for w in composite.worlds:
                assert all(w.plant in est for est in w.estimates)

    def test_composition_is_deterministic(self, legacy_gap):
        model, profile = legacy_gap
        first = build_composite(model, profile)
        second = build_composite(model, profile)
        assert first.worlds == second.worlds
        assert first.delta == second.delta
        assert first.witnesses == second.witnesses
