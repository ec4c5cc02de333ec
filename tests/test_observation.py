"""Observer construction and the plant/observer composite."""

from dataclasses import replace

import pytest

from infobs import (SupervisionProfile, check, closed_loop,
                    compose, default_frame, dfa_equivalent, load_supervisors,
                    plant_automaton, project, reachable, save_supervisors,
                    synthesis)
from infobs.errors import ModelError
from infobs.observation import build_composite
from infobs.randgen import instance_stream

from conftest import estimate_groups, reference_compose


def assert_matches_reference(composite, model, observers, enabled=None):
    initial, worlds, delta, witnesses = reference_compose(model, observers, enabled)
    assert composite.initial == initial
    assert composite.worlds == worlds
    assert composite.delta == delta
    assert composite.witnesses == witnesses


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


class TestComposeAgainstTheReference:
    """The id-keyed walk against the World-keyed ``reference_compose``."""

    @pytest.mark.parametrize("stream", ["n2_instances", "n3_instances"])
    def test_unsupervised_composites_match(self, request, stream):
        for model, _profile, frame in request.getfixturevalue(stream):
            composite = frame.composite
            assert_matches_reference(composite, model, composite.observers)

    @staticmethod
    def _closed_loops(monkeypatch, instances):
        """Run ``closed_loop`` on each instance, checking every composite it
        builds; return how many of them the supervisors pruned."""
        pruned = []

        def checked(model, observers, enabled=None):
            composite = compose(model, observers, enabled)
            assert_matches_reference(composite, model, observers, enabled)
            pruned.append(len(composite.edges) < len(compose(model, observers).edges))
            return composite

        monkeypatch.setattr(synthesis, "compose", checked)
        for model, profile, result in instances:
            closed_loop(model, profile, result)
        assert len(pruned) == len(instances)
        return sum(pruned)

    def test_closed_loops_of_synthesized_supervisors_match(self, monkeypatch,
                                                           synthesized_instances):
        assert self._closed_loops(monkeypatch, synthesized_instances) > 0

    def test_closed_loops_of_loaded_supervisors_match(self, monkeypatch, tmp_path,
                                                      synthesized_instances):
        loaded = []
        for k, (model, profile, result) in enumerate(synthesized_instances[:40]):
            save_supervisors(result, tmp_path / str(k))
            loaded.append((model, profile, load_supervisors(tmp_path / str(k))))
        assert self._closed_loops(monkeypatch, loaded) > 0

    def test_a_missing_observer_move_raises_the_step_error(self, legacy_gap):
        model, profile = legacy_gap
        observers = [project(model, profile, i) for i in range(profile.n)]
        observers[0] = replace(observers[0], delta={})
        with pytest.raises(ModelError) as ours:
            compose(model, observers)
        with pytest.raises(ModelError) as theirs:
            reference_compose(model, observers)
        assert str(ours.value) == str(theirs.value)
        assert "observer 1 cannot follow observable event 'a'" in str(ours.value)

    def test_moves_on_unobserved_events_are_ignored(self, legacy_gap):
        # Supervisor 2 observes nothing, so a stray transition on g in its
        # observer never moves it, as in ``Observer.step``.
        model, profile = legacy_gap
        observers = [project(model, profile, i) for i in range(profile.n)]
        blind = observers[1]
        observers[1] = replace(blind, delta={(blind.initial, "g"): frozenset({"q9"})})
        assert_matches_reference(compose(model, observers), model, observers)

    def test_a_check_does_not_build_the_world_keyed_delta(self, legacy_gap):
        model, profile = legacy_gap
        frame = default_frame(model, profile)
        check(frame, model, profile, "extended")
        composite = frame.composite
        assert "delta" not in vars(composite)
        assert composite.automaton().delta is composite.delta
