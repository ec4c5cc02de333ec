"""Frames, accessibility families, formula evaluation, the guard transform."""

import random

import pytest

from infobs import (And, Implies, Know, Not, Or, STATE_LEGAL, Var, any_knows,
                    build_frame, default_frame, guard_transform, legal,
                    possible)
from infobs.kripke import FALSE
from infobs.errors import ModelError
from infobs.observation import build_composite

from conftest import (FORMULA_SEED, expand_derived, random_formula,
                      reference_eval, world_after)
from randgen import instance_stream


class TestAccessibility:
    def test_partial_classes_of_the_gap_model(self, legacy_gap_frame):
        frame = legacy_gap_frame
        w_eps = world_after(frame, ())
        w_a = world_after(frame, ("a",))
        w_ag = world_after(frame, ("a", "g"))
        w_g = world_after(frame, ("g",))
        # Supervisor 1: the illegal g-branch worlds drop out entirely, so the
        # initial world sits alone and the two post-a legal worlds share a class.
        assert frame.class_of(w_eps, 0) == (w_eps,)
        assert set(frame.class_of(w_a, 0)) == {w_a, w_ag}
        assert frame.class_of(w_a, 0) == frame.class_of(w_ag, 0)
        assert frame.class_of(w_g, 0) == ()

    def test_blind_supervisor_total_class_holds_all_worlds(self, legacy_gap_frame):
        frame = legacy_gap_frame
        everything = set(range(len(frame.worlds)))
        for k in everything:
            assert set(frame.class_of(k, 1, "total")) == everything

    def test_partial_refines_total_and_vacuous_class_iff_illegal(self):
        for model, profile, frame in _frames(instance_stream(61, 30)):
            for k, w in enumerate(frame.worlds):
                for i in range(profile.n):
                    partial = set(frame.class_of(k, i, "partial"))
                    total = set(frame.class_of(k, i, "total"))
                    assert partial <= total
                    assert (not partial) == (w.plant not in model.legal_states)

    def test_classes_match_a_reference_built_from_the_worlds(self):
        # Same estimate set; under the partial relation both worlds legal.
        for model, profile, frame in _frames(instance_stream(61, 30)):
            worlds = frame.worlds
            for k, w in enumerate(worlds):
                for i in range(profile.n):
                    same = tuple(v for v, u in enumerate(worlds)
                                 if u.estimates[i] == w.estimates[i])
                    legal_same = tuple(v for v in same
                                       if worlds[v].plant in model.legal_states)
                    assert frame.class_of(k, i, "total") == same
                    assert frame.class_of(k, i, "partial") == (
                        legal_same if w.plant in model.legal_states else ())

    def test_all_legal_model_collapses_partial_into_total(self):
        for model, profile, frame in _frames(
                instance_stream(67, 20, legal_state_bias=1.1)):
            assert model.legal_states == model.states
            for k in range(len(frame.worlds)):
                for i in range(profile.n):
                    assert (frame.class_of(k, i, "partial")
                            == frame.class_of(k, i, "total"))


def _frames(instances):
    for model, profile in instances:
        yield model, profile, build_frame(build_composite(model, profile),
                                          model, profile)


class TestEval:
    def test_knowledge_is_vacuous_at_illegal_worlds(self, legacy_gap_frame):
        k = world_after(legacy_gap_frame, ("g", "a"))
        assert legacy_gap_frame.eval(k, Know(0, Var(legal("g"))), "partial")

    def test_initial_world_knows_g_is_forbidden(self, legacy_gap_frame):
        k = world_after(legacy_gap_frame, ())
        assert legacy_gap_frame.eval(k, Know(0, Not(Var(legal("g")))), "partial")

    def test_tautologies_hold_everywhere(self, legacy_gap_frame):
        phi = Or(Var(possible("g")), Not(Var(possible("g"))))
        for k in range(len(legacy_gap_frame.worlds)):
            assert legacy_gap_frame.eval(k, phi, "partial")
            assert legacy_gap_frame.eval(k, phi, "total")

    def test_unknown_event_is_rejected(self, legacy_gap_frame):
        with pytest.raises(ModelError):
            legacy_gap_frame.eval(0, Var(possible("zz")), "partial")

    def test_derived_connectives_match_their_expansions(self):
        rng = random.Random(71)
        for model, profile, frame in _frames(instance_stream(71, 15)):
            events = sorted(model.events)
            for _ in range(10):
                phi = random_formula(rng, events, profile.n, 3)
                expanded = expand_derived(phi)
                for k in range(len(frame.worlds)):
                    for relation in ("partial", "total"):
                        assert (frame.eval(k, phi, relation)
                                == frame.eval(k, expanded, relation))

    def test_macros_expand_over_the_controllers(self, conditional_bets_frame):
        frame = conditional_bets_frame
        phi = Var(legal("g"))
        controllers = frame.profile.controllers("g")
        assert any_knows((), phi) == FALSE
        for k in range(len(frame.worlds)):
            someone = frame.eval(k, any_knows(controllers, phi), "partial")
            by_hand = any(frame.eval(k, Know(i, phi), "partial")
                          for i in controllers)
            assert someone == by_hand
            for i in controllers:
                others = [j for j in controllers if j != i]
                other = frame.eval(k, any_knows(others, phi), "partial")
                rest = any(frame.eval(k, Know(j, phi), "partial")
                           for j in others)
                assert other == rest

    def test_memoization_never_changes_results(self, legacy_gap, legacy_gap_frame):
        # A warmed-up frame and a fresh one must agree on every query,
        # whichever order the queries arrive in.
        model, profile = legacy_gap
        fresh = default_frame(model, profile)
        rng = random.Random(73)
        formulas = [random_formula(rng, sorted(model.events), profile.n, 4)
                    for _ in range(12)]
        queries = [(k, phi) for phi in formulas
                   for k in range(len(legacy_gap_frame.worlds))]
        rng.shuffle(queries)
        for k, phi in queries:
            assert (legacy_gap_frame.eval(k, phi, "partial")
                    == fresh.eval(k, phi, "partial"))


class TestTruthSets:
    """Bottom-up labelling against the naive world-by-world semantics."""

    @pytest.mark.parametrize("instances", ["n2_instances", "n3_instances"])
    def test_agrees_with_the_reference_semantics(self, request, instances):
        rng = random.Random(FORMULA_SEED)
        for model, profile, frame in request.getfixturevalue(instances):
            events = sorted(model.events)
            for _ in range(4):
                event = rng.choice(events)
                phi = random_formula(rng, events, profile.n, 3,
                                     controllers=profile.controllers(event))
                for relation in ("partial", "total"):
                    expected = sum(
                        1 << k for k, w in enumerate(frame.worlds)
                        if reference_eval(frame, w, phi, relation))
                    assert frame.truth_set(phi, relation) == expected
                    for k in range(len(frame.worlds)):
                        assert (frame.eval(k, phi, relation)
                                == bool(expected >> k & 1))

    def test_fixture_condition_lines_agree(self, conditional_bets_frame,
                                           diamond_frame):
        from infobs.conditions import _extended_lines
        for frame in (conditional_bets_frame, diamond_frame):
            for ev in sorted(frame.profile.sigma_c):
                for line in _extended_lines(frame.profile, ev):
                    bits = frame.truth_set(line, "partial")
                    for k, w in enumerate(frame.worlds):
                        assert (bool(bits >> k & 1)
                                == reference_eval(frame, w, line, "partial"))

    def test_first_is_the_lowest_world_in_breadth_first_order(self, legacy_gap_frame):
        frame = legacy_gap_frame
        assert frame.lowest(frame.all_bits) == 0
        illegal = frame.all_bits & ~frame.legal_bits
        assert frame.composite.world(frame.lowest(illegal)) == next(
            w for w in frame.worlds if not frame.world_legal(w))


class TestGuardTransform:
    def test_single_knowledge_operator(self):
        d = Not(Var(legal("g")))
        assert guard_transform(Know(0, d)) == Implies(
            Var(STATE_LEGAL), Know(0, Implies(Var(STATE_LEGAL), d)))

    def test_bare_proposition_only_gets_the_root_guard(self):
        p = Var(possible("g"))
        assert guard_transform(p) == Implies(Var(STATE_LEGAL), p)

    def test_nested_operators_are_guarded_at_every_level(self):
        p = Var(possible("g"))
        inner = Know(1, Implies(Var(STATE_LEGAL), p))
        middle = Know(0, Implies(Var(STATE_LEGAL), inner))
        assert guard_transform(Know(0, Know(1, p))) == Implies(Var(STATE_LEGAL),
                                                               middle)

    def test_guarded_input_is_rejected(self):
        with pytest.raises(ValueError):
            guard_transform(Var(STATE_LEGAL))

    @pytest.mark.parametrize("phi", [
        Know(0, Var(STATE_LEGAL)),
        Not(Var(STATE_LEGAL)),
        And(Var(possible("g")), Var(STATE_LEGAL)),
        Implies(Var(STATE_LEGAL), Var(possible("g"))),
    ], ids=["under-know", "under-not", "right-of-and", "left-of-implies"])
    def test_nested_state_legal_is_rejected(self, phi):
        with pytest.raises(ValueError):
            guard_transform(phi)

    def test_the_first_defect_in_left_first_order_decides_the_error(self):
        with pytest.raises(TypeError):
            guard_transform(And("not a formula", Var(STATE_LEGAL)))
        with pytest.raises(ValueError):
            guard_transform(And(Var(STATE_LEGAL), "not a formula"))

    def test_partial_relation_packs_the_guards(self):
        # At legal worlds: partial-relation truth == total-relation truth of
        # the guarded formula.  At illegal worlds knowledge is vacuous.
        rng = random.Random(FORMULA_SEED)
        for model, profile, frame in _frames(instance_stream(79, 40)):
            events = sorted(model.events)
            for _ in range(6):
                phi = random_formula(rng, events, profile.n, 4)
                guarded = guard_transform(phi)
                for k, w in enumerate(frame.worlds):
                    if frame.world_legal(w):
                        assert (frame.eval(k, phi, "partial")
                                == frame.eval(k, guarded, "total"))
                    else:
                        assert frame.eval(k, Know(0, phi), "partial")

    def test_total_knowledge_implies_partial_knowledge(self):
        rng = random.Random(83)
        for model, profile, frame in _frames(instance_stream(83, 25)):
            events = sorted(model.events)
            for _ in range(6):
                phi = Know(rng.randrange(profile.n),
                           random_formula(rng, events, profile.n, 2))
                for k in range(len(frame.worlds)):
                    if frame.eval(k, phi, "total"):
                        assert frame.eval(k, phi, "partial")
