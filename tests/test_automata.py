"""Plant model, reachability, language enumeration, and the test-side
language-equivalence reference."""

from dataclasses import replace

import pytest

from infobs import reachable, validate_model
from infobs.automata import walk_words
from infobs.errors import ModelError

from conftest import (automaton_language, legal_rows, plant_from_pairs,
                      reference_equivalent, run_word)
from randgen import instance_stream


def chain(states, moves, legal_states=None, legal_moves=None, events=None):
    """Small helper to build models tersely in tests."""
    delta = {(s, e): d for s, e, d in moves}
    return plant_from_pairs(
        events=events or {e for _, e, _ in moves},
        states=states,
        initial=states[0],
        delta=delta,
        legal_states=legal_states if legal_states is not None else states,
        legal_transitions=legal_moves if legal_moves is not None else delta.keys(),
    )


class TestPairViews:
    def test_pair_views_equal_the_rows_and_are_built_once(self):
        for model, _profile in instance_stream(33, 40):
            assert set(model.successors) == set(model.legal_sources) == model.events
            delta, legal = model.delta, model.legal_transitions
            assert delta is model.delta and legal is model.legal_transitions
            assert dict(delta) == {(q, ev): dst for ev, row in model.successors.items()
                                   for q, dst in row.items()}
            assert legal == {(q, ev) for ev, sources in model.legal_sources.items()
                             for q in sources}
            assert legal <= delta.keys()
            with pytest.raises(TypeError):
                delta[("q0", "a")] = "q0"  # read-only
            # Pairs regrouped into rows give back the model and its pairs.
            rebuilt = plant_from_pairs(model.events, model.states, model.initial,
                                       delta, model.legal_states, legal)
            assert rebuilt == model
            assert (rebuilt.delta, rebuilt.legal_transitions) == (delta, legal)

    def test_pair_views_are_built_on_first_read_and_leave_equality_alone(
            self, legacy_gap):
        model, _ = legacy_gap
        fresh = replace(model)
        assert not {"delta", "legal_transitions"} & vars(fresh).keys()
        assert model.delta and model.legal_transitions and model == fresh
        assert {"delta", "legal_transitions"} <= vars(model).keys()


class TestReachable:
    def test_plant_reachability_covers_all_states(self, legacy_gap):
        model, _ = legacy_gap
        assert reachable(model) == frozenset({"q0", "q1", "q2", "q3", "q4", "q5"})

    def test_no_transitions_reaches_only_initial(self):
        model = chain(["q0"], [], events={"a"})
        assert reachable(model) == frozenset({"q0"})


def language(model, k):
    return {word for word, _state in walk_words(model, k)}


class TestWalkWords:
    def test_legal_language_of_the_gap_model(self, legacy_gap):
        model, _ = legacy_gap
        assert language(model, 3) == {(), ("a",), ("a", "g")}

    def test_zero_bound_gives_the_empty_word(self, legacy_gap):
        model, _ = legacy_gap
        assert language(model, 0) == {()}

    def test_prefix_closed_and_legal_subsets_plant(self):
        for model, _profile in instance_stream(11, 40):
            for k in (0, 2, 4):
                words = language(model, k)
                assert all(w[:-1] in words for w in words if w)
                assert words <= automaton_language((model.initial, model.delta), k)

    def test_walk_is_shortest_first_in_event_order(self):
        for model, _profile in instance_stream(13, 30):
            walked = list(walk_words(model, 4))
            words = [word for word, _state in walked]
            assert words == sorted(set(words), key=lambda w: (len(w), w))
            assert set(words) == automaton_language(legal_rows(model), 4)
            for word, state in walked:
                assert state == run_word(model, word)


class TestReferenceEquivalent:
    def test_identity(self, legacy_gap):
        model, _ = legacy_gap
        a = (model.initial, model.delta)
        assert reference_equivalent(a, a).equal

    def test_shortest_distinguishing_word(self, legacy_gap):
        # Legal language is {(), a, ag}; drop the trailing g.
        model, _ = legacy_gap
        small = (0, {(0, "a"): 1})
        verdict = reference_equivalent(legal_rows(model), small)
        assert not verdict.equal
        assert verdict.counterexample == ("a", "g")

    def test_state_count_does_not_matter(self):
        three = (0, {(0, "a"): 1, (1, "g"): 2})
        four = (0, {(0, "a"): 1, (1, "g"): 3})  # state 2 skipped
        assert reference_equivalent(three, four).equal

    def test_symmetry(self, legacy_gap):
        model, _ = legacy_gap
        small = (0, {(0, "a"): 1})
        assert (reference_equivalent(legal_rows(model), small)
                == reference_equivalent(small, legal_rows(model)))

    def test_agrees_with_bounded_enumeration(self):
        instances = list(instance_stream(23, 30, max_events=2))
        for (m1, _), (m2, _) in zip(instances[::2], instances[1::2]):
            if m1.events != m2.events:
                continue
            k = len(m1.states) + len(m2.states)
            a, b = (m1.initial, m1.delta), (m2.initial, m2.delta)
            same_words = automaton_language(a, k) == automaton_language(b, k)
            assert reference_equivalent(a, b).equal == same_words


class TestValidation:
    def test_unreachable_states_are_rejected(self):
        model = chain(["q0", "q1"], [], events={"a"})
        with pytest.raises(ModelError, match="unreachable"):
            validate_model(model)

    def test_initial_must_be_legal(self):
        model = chain(["q0"], [], legal_states=[], events={"a"})
        with pytest.raises(ModelError, match="legal"):
            validate_model(model)

    def test_legal_transition_needs_legal_endpoints(self):
        model = chain(["q0", "q1"], [("q0", "a", "q1")], legal_states=["q0"],
                      legal_moves=[("q0", "a")])
        with pytest.raises(ModelError, match="legal states"):
            validate_model(model)

    def test_legal_transition_must_exist(self):
        model = chain(["q0"], [], legal_moves=[("q0", "a")], events={"a"})
        with pytest.raises(ModelError, match="does not exist"):
            validate_model(model)


class TestSupervisionProfile:
    def test_derived_event_classes(self, legacy_gap):
        model, profile = legacy_gap
        assert profile.n == 2
        assert profile.sigma_c == frozenset({"g"})
        assert profile.controllers("g") == (0, 1)
        assert profile.controllers("a") == ()

    def test_controllers_nonempty_exactly_on_controllable(self):
        for model, profile in instance_stream(5, 30):
            for ev in model.events:
                assert bool(profile.controllers(ev)) == (ev in profile.sigma_c)
