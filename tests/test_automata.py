"""Plant model, reachability, language enumeration, language equivalence."""

import pytest

from infobs import (Automaton, PlantSpec, dfa_equivalent, language_upto,
                    legal_automaton, plant_automaton, reachable,
                    validate_model)
from infobs.errors import AlphabetMismatch, EnumerationBound, ModelError
from infobs.randgen import instance_stream

from conftest import automaton_language


def chain(states, moves, legal_states=None, legal_moves=None, events=None):
    """Small helper to build models tersely in tests."""
    delta = {(s, e): d for s, e, d in moves}
    events = frozenset(events or {e for _, e, _ in moves})
    return PlantSpec(
        events=events,
        states=frozenset(states),
        initial=states[0],
        delta=delta,
        legal_states=frozenset(legal_states if legal_states is not None else states),
        legal_transitions=frozenset(legal_moves if legal_moves is not None
                                    else delta.keys()),
    )


class TestReachable:
    def test_plant_reachability_covers_all_states(self, legacy_gap):
        model, _ = legacy_gap
        assert reachable(model) == frozenset({"q0", "q1", "q2", "q3", "q4", "q5"})

    def test_no_transitions_reaches_only_initial(self):
        model = chain(["q0"], [], events={"a"})
        assert reachable(model) == frozenset({"q0"})

    def test_legal_reachability_follows_legal_transitions_only(self, legacy_gap):
        model, _ = legacy_gap
        assert reachable(model, legal_only=True) == frozenset({"q0", "q1", "q5"})


class TestLanguageUpto:
    def test_legal_language_of_the_gap_model(self, legacy_gap):
        model, _ = legacy_gap
        assert language_upto(model, 3, legal_only=True) == {
            (), ("a",), ("a", "g")}

    def test_full_language_of_the_gap_model(self, legacy_gap):
        model, _ = legacy_gap
        assert language_upto(model, 3) == {
            (), ("a",), ("g",), ("a", "g"), ("g", "a"), ("g", "a", "g")}

    def test_zero_bound_gives_the_empty_word(self, legacy_gap):
        model, _ = legacy_gap
        assert language_upto(model, 0) == {()}

    def test_bound_above_the_ceiling_is_rejected(self, legacy_gap):
        model, _ = legacy_gap
        with pytest.raises(EnumerationBound):
            language_upto(model, 13)

    def test_prefix_closed_and_legal_subsets_plant(self):
        for model, _profile in instance_stream(11, 40):
            for k in (0, 2, 4):
                words = language_upto(model, k)
                assert all(w[:-1] in words for w in words if w)
                assert language_upto(model, k, legal_only=True) <= words


class TestDfaEquivalent:
    def test_identity(self, legacy_gap):
        model, _ = legacy_gap
        a = plant_automaton(model)
        assert dfa_equivalent(a, a).equal

    def test_shortest_distinguishing_word(self, legacy_gap):
        # Legal language is {(), a, ag}; drop the trailing g.
        model, _ = legacy_gap
        small = Automaton(model.events, 0, {(0, "a"): 1})
        verdict = dfa_equivalent(legal_automaton(model), small)
        assert not verdict.equal
        assert verdict.counterexample == ("a", "g")

    def test_state_count_does_not_matter(self):
        three = Automaton(frozenset({"a", "g"}), 0, {(0, "a"): 1, (1, "g"): 2})
        four = Automaton(frozenset({"a", "g"}), 0,
                         {(0, "a"): 1, (1, "g"): 3})  # state 2 skipped
        assert dfa_equivalent(three, four).equal

    def test_symmetry_and_alphabet_mismatch(self, legacy_gap):
        model, _ = legacy_gap
        small = Automaton(model.events, 0, {(0, "a"): 1})
        assert (dfa_equivalent(legal_automaton(model), small).equal
                == dfa_equivalent(small, legal_automaton(model)).equal)
        with pytest.raises(AlphabetMismatch):
            dfa_equivalent(small, Automaton(frozenset({"a"}), 0, {}))

    def test_agrees_with_bounded_enumeration(self):
        instances = list(instance_stream(23, 30, max_events=2))
        for (m1, _), (m2, _) in zip(instances[::2], instances[1::2]):
            if m1.events != m2.events:
                continue
            k = len(m1.states) + len(m2.states)
            a, b = plant_automaton(m1), plant_automaton(m2)
            same_words = automaton_language(a, k) == automaton_language(b, k)
            assert dfa_equivalent(a, b).equal == same_words


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
        assert profile.sigma_uc(model.events) == frozenset({"a"})
        assert profile.controllers("g") == (0, 1)
        assert profile.controllers("a") == ()

    def test_controllers_nonempty_exactly_on_controllable(self):
        for model, profile in instance_stream(5, 30):
            for ev in model.events:
                assert bool(profile.controllers(ev)) == (ev in profile.sigma_c)
