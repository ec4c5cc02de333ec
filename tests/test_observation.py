"""Observer construction and the plant/observer composite."""

from dataclasses import replace

import pytest

from infobs import (SupervisionProfile, check, closed_loop, compose,
                    default_frame, load_supervisors, project, reachable,
                    save_supervisors, synthesis, synthesize, verify_solution)
from infobs.errors import ModelError
from infobs.observation import build_composite
from infobs.randgen import instance_stream

from conftest import estimate_groups, reference_compose, reference_equivalent


def assert_matches_reference(composite, model, observers, enabled=None):
    """Compare with the World-keyed ``reference_compose``, naming each world
    number by ``composite.worlds``; the reference hands ``enabled`` a
    ``World``, which becomes its key through the observers' ids."""
    by_key = enabled
    if enabled is not None:
        ids = [{est: e for e, est in enumerate(o.numbered[0])} for o in observers]

        def enabled(world, ev):
            key = (world.plant, *map(dict.__getitem__, ids, world.estimates))
            return by_key(key, ev)

    initial, worlds, delta, witnesses = reference_compose(model, observers, enabled)
    named = composite.worlds
    assert composite.world(0) == initial
    assert named == worlds
    assert {(named[src], ev): named[dst]
            for (src, ev), dst in composite.delta.items()} == delta
    assert dict(zip(named, composite.words)) == witnesses


@pytest.fixture
def closed_loop_calls(monkeypatch):
    """Every ``compose`` call ``closed_loop`` makes, in order, as
    ``(model, observers, enabled, composite)``."""
    calls = []

    def kept(model, observers, enabled=None):
        calls.append((model, observers, enabled, compose(model, observers, enabled)))
        return calls[-1][-1]

    monkeypatch.setattr(synthesis, "compose", kept)
    return calls


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
        assert reference_equivalent((observer.initial, observer.delta),
                                    (model.initial, model.delta)).equal

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
        witnesses = sorted(composite.words)
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
            assert reference_equivalent((0, composite.delta),
                                        (model.initial, model.delta)).equal
            for w in composite.worlds:
                assert all(w.plant in est for est in w.estimates)

    def test_composition_is_deterministic(self, legacy_gap):
        model, profile = legacy_gap
        first = build_composite(model, profile)
        second = build_composite(model, profile)
        assert first.worlds == second.worlds
        assert first.delta == second.delta
        assert first.words == second.words


class TestComposeAgainstTheReference:
    """The id-keyed walk against the World-keyed ``reference_compose``."""

    @pytest.mark.parametrize("stream", ["n2_instances", "n3_instances"])
    def test_unsupervised_composites_match(self, request, stream):
        for model, _profile, frame in request.getfixturevalue(stream):
            composite = frame.composite
            assert_matches_reference(composite, model, composite.observers)

    @staticmethod
    def _closed_loops(calls, instances):
        """Run ``closed_loop`` on each instance, checking every composite it
        builds; return how many of them the supervisors pruned."""
        for model, profile, result in instances:
            closed_loop(model, profile, result)
        assert len(calls) == len(instances)
        pruned = 0
        for model, observers, enabled, composite in calls:
            assert_matches_reference(composite, model, observers, enabled)
            pruned += len(composite.edges) < len(compose(model, observers).edges)
        return pruned

    def test_closed_loops_of_synthesized_supervisors_match(self, closed_loop_calls,
                                                           synthesized_instances):
        assert self._closed_loops(closed_loop_calls, synthesized_instances) > 0

    def test_closed_loops_of_loaded_supervisors_match(self, closed_loop_calls, tmp_path,
                                                      synthesized_instances):
        loaded = []
        for k, (model, profile, result) in enumerate(synthesized_instances[:40]):
            save_supervisors(result, tmp_path / str(k))
            loaded.append((model, profile, load_supervisors(tmp_path / str(k))))
        assert self._closed_loops(closed_loop_calls, loaded) > 0

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
        assert check(frame, model, profile, "extended").holds
        assert not check(frame, model, profile, "legacy").holds
        composite = frame.composite
        assert not {"worlds", "delta"} & vars(composite).keys()
        assert reference_equivalent((0, composite.delta),
                                    (model.initial, model.delta)).equal

    def test_a_holding_check_does_not_build_the_witnesses(self, legacy_gap):
        model, profile = legacy_gap
        frame = default_frame(model, profile)
        assert check(frame, model, profile, "extended").holds
        composite = frame.composite
        assert not {"worlds", "words"} & vars(composite).keys()
        failed = check(frame, model, profile, "legacy")
        assert not failed.holds
        assert not {"worlds", "delta"} & vars(composite).keys()
        k = composite.worlds.index(failed.counterexample.world)
        assert composite.words[k] == ("g", "a")

    @pytest.mark.parametrize("name", ["legacy_gap", "conditional_bets",
                                      "conditional_bets_mirror"])
    def test_synthesis_and_verification_build_no_world(self, request, name,
                                                       closed_loop_calls):
        model, profile = request.getfixturevalue(name)
        result = synthesize(model, profile)
        assert verify_solution(model, profile, result).equal
        ((*_args, loop),) = closed_loop_calls
        for composite in (result.frame.composite, loop):
            assert "worlds" not in vars(composite)

    @pytest.mark.parametrize("name", ["legacy_gap", "diamond"])
    def test_failing_verdicts_name_the_derived_worlds_and_words(self, request, name):
        model, profile = request.getfixturevalue(name)
        frame = default_frame(model, profile)
        verdicts = [check(frame, model, profile, which)
                    for which in ("extended", "corrected", "legacy", "cp", "da")]
        failing = [v.counterexample for v in verdicts if not v.holds]
        assert "worlds" not in vars(frame.composite)
        worlds = frame.composite.worlds
        witnesses = dict(zip(worlds, frame.composite.words))
        assert failing
        for ce in failing:
            assert ce.world in worlds
            assert witnesses[ce.world] == ce.string
            if ce.conflict_world is not None:
                assert witnesses[ce.conflict_world] == ce.conflict_string


def estimate_moves(observer):
    """The observer's moves on observed events, read off its id view."""
    names, moves = observer.numbered
    return {(names[src], ev): names[dst]
            for ev, table in moves.items() for src, dst in table.items()}


class TestObserverIds:
    @pytest.mark.parametrize("stream", ["n2_instances", "n3_instances"])
    def test_the_view_is_the_one_read_off_delta(self, request, stream):
        for model, profile, _frame in request.getfixturevalue(stream):
            for i in range(profile.n):
                observer = project(model, profile, i)
                names, _moves = observer.numbered
                assert names[0] == observer.initial
                assert set(names) == observer.states
                assert estimate_moves(observer) == observer.delta

    def test_a_replaced_observer_derives_its_view(self, legacy_gap):
        model, profile = legacy_gap
        observer = project(model, profile, 0)
        assert observer.numbered[1] == {"a": {0: 1}}
        emptied = replace(observer, delta={})
        assert "numbered" not in vars(emptied)
        assert emptied.numbered == ([observer.initial], {"a": {}})
        stray = replace(observer, observable=frozenset({"a", "g"}))
        assert stray.numbered == (observer.numbered[0], {"a": {0: 1}, "g": {}})

    def test_closed_loops_over_reloaded_supervisors(self, tmp_path,
                                                    synthesized_instances):
        for k, (model, profile, result) in enumerate(synthesized_instances[:40]):
            save_supervisors(result, tmp_path / str(k))
            loaded = load_supervisors(tmp_path / str(k))
            observers = [s.observer for s in loaded.supervisors]
            assert not any("numbered" in vars(o) for o in observers)
            ours = closed_loop(model, profile, loaded)
            theirs = closed_loop(model, profile, result)
            assert ours.delta == theirs.delta
            assert ours.worlds == theirs.worlds
            for o, original in zip(observers, result.supervisors):
                assert estimate_moves(o) == estimate_moves(original.observer)
