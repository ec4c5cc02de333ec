"""Shared fixtures: the example models, instance sets, and test oracles."""

from __future__ import annotations

import random
from collections import defaultdict, deque
from pathlib import Path

import pytest

from infobs import (And, Const, Implies, Know, Not, Or, PlantSpec,
                    SupervisionProfile, Var, any_knows, default_frame,
                    language_upto, legal, load_model, possible, synthesize)
from infobs.errors import ModelError, SynthesisError
from infobs.observation import World
from infobs.randgen import instance_stream, random_instance

MODELS = Path(__file__).resolve().parent.parent / "examples" / "models"

# Seeds are pinned so every run exercises the identical instance sets.
N2_SEED = 20240601
SOUND_SEED = 20240602
TINY_SEED = 20240603
FORMULA_SEED = 20240604
N3_SEED = 20240605


@pytest.fixture(scope="session")
def legacy_gap():
    return load_model(MODELS / "legacy_gap.des")


@pytest.fixture(scope="session")
def conditional_bets():
    return load_model(MODELS / "conditional_bets.des")


@pytest.fixture(scope="session")
def conditional_bets_mirror():
    return load_model(MODELS / "conditional_bets_mirror.des")


@pytest.fixture(scope="session")
def diamond():
    return load_model(MODELS / "diamond_unsolvable.des")


@pytest.fixture(scope="session")
def forced_disable():
    return load_model(MODELS / "forced_disable.des")


@pytest.fixture(scope="session")
def legacy_gap_frame(legacy_gap):
    model, profile = legacy_gap
    return default_frame(model, profile)


@pytest.fixture(scope="session")
def conditional_bets_frame(conditional_bets):
    model, profile = conditional_bets
    return default_frame(model, profile)


@pytest.fixture(scope="session")
def mirror_frame(conditional_bets_mirror):
    model, profile = conditional_bets_mirror
    return default_frame(model, profile)


@pytest.fixture(scope="session")
def diamond_frame(diamond):
    model, profile = diamond
    return default_frame(model, profile)


# ---------------------------------------------------------------------------
# Randomized instance sets (session scoped; generating them is the cheap part,
# the frames are what the property tests share).

@pytest.fixture(scope="session")
def n2_instances():
    """Two-supervisor instances for the equivalence/separation/chain checks."""
    out = []
    for model, profile in instance_stream(N2_SEED, 220, n_choices=(2,),
                                          obs_membership=0.4,
                                          legal_state_bias=0.6):
        out.append((model, profile, default_frame(model, profile)))
    return out


@pytest.fixture(scope="session")
def n3_instances():
    """Three-supervisor instances; composites stay inside the oracle bound."""
    out = []
    for model, profile in instance_stream(N3_SEED, 200, n_choices=(3,),
                                          max_states=8, transition_density=0.75,
                                          obs_membership=0.4,
                                          legal_state_bias=0.6):
        out.append((model, profile, default_frame(model, profile)))
    return out


@pytest.fixture(scope="session")
def synthesized_instances():
    """At least 200 instances on which synthesis succeeds, with their results."""
    rng = random.Random(SOUND_SEED)
    out = []
    attempts = 0
    while len(out) < 200 and attempts < 5000:
        attempts += 1
        model, profile = random_instance(rng)
        try:
            result = synthesize(model, profile)
        except SynthesisError:
            continue
        out.append((model, profile, result))
    assert len(out) >= 200, "the seeded generator should reach 200 successes"
    return out


@pytest.fixture(scope="session")
def tiny_instances():
    """Small instances inside the exhaustive-search bounds.

    Kept instances satisfy: at most 8 decision-table cells, and every
    composite world reachable within |Q|+1 steps so the depth-bounded string
    replay sees every situation the world-level checkers see.  Sampling
    continues past 50 until at least 8 unsolvable instances are present.
    """
    rng = random.Random(TINY_SEED)
    out = []
    negatives = 0
    attempts = 0
    from infobs import check_controllability, check_inf_obs_extended, project
    while (len(out) < 50 or negatives < 8) and attempts < 20000:
        attempts += 1
        model, profile = random_instance(
            rng, max_states=4, max_events=2, n_choices=(1, 2),
            legal_state_bias=0.5, event_membership=0.8, obs_membership=0.3,
            transition_density=0.7)
        observers = [project(model, profile, i) for i in range(profile.n)]
        cells = sum(len(o.states) * len(profile.controllable[i])
                    for i, o in enumerate(observers))
        if not 0 < cells <= 8:
            continue
        frame = default_frame(model, profile)
        depth = len(model.states) + 1
        if any(len(frame.witness(w)) > depth for w in frame.worlds):
            continue
        holds = (check_controllability(model, profile, frame).holds
                 and check_inf_obs_extended(frame, model, profile).holds)
        negatives += (not holds)
        out.append((model, profile, frame, depth, holds))
    assert len(out) >= 50 and negatives >= 8
    return out


# ---------------------------------------------------------------------------
# Test oracles

def run_word(model: PlantSpec, word) -> str | None:
    state = model.initial
    for ev in word:
        state = model.delta.get((state, ev))
        if state is None:
            return None
    return state


def reference_compose(model: PlantSpec, observers, enabled=None):
    """The composite walk keyed by :class:`World` throughout.

    Each move is looked up in ``model.delta`` and ``Observer.step`` and
    each target hashed as a ``World``; no successor tables, no ids.
    Returns ``(initial, worlds, delta, witnesses)``.
    """
    if len(observers) < 1:
        raise ModelError("the composite needs at least one observer")
    initial = World(model.initial, tuple(o.initial for o in observers))
    worlds = [initial]
    seen = {initial}
    delta = {}
    witnesses = {initial: ()}
    queue = deque([initial])
    while queue:
        world = queue.popleft()
        for ev in sorted(model.events):
            dst = model.delta.get((world.plant, ev))
            if dst is None or (enabled is not None and not enabled(world, ev)):
                continue
            estimates = tuple(o.step(est, ev) for o, est in zip(observers, world.estimates))
            target = World(dst, estimates)
            delta[(world, ev)] = target
            if target not in seen:
                seen.add(target)
                worlds.append(target)
                witnesses[target] = witnesses[world] + (ev,)
                queue.append(target)
    return initial, tuple(worlds), delta, witnesses


def estimate_groups(model: PlantSpec, profile: SupervisionProfile, i: int,
                    k: int = 8) -> dict:
    """String-level estimates: group plant states by the projected word.

    Independent of the subset construction; only valid when ``k`` words reach
    every composite configuration, which holds for the desk-scale fixtures.
    """
    groups: dict = defaultdict(set)
    for word in language_upto(model, k):
        proj = tuple(ev for ev in word if ev in profile.observable[i])
        groups[proj].add(run_word(model, word))
    return {proj: frozenset(states) for proj, states in groups.items()}


def automaton_language(automaton, k: int) -> set:
    """Enumerate an automaton's words up to length ``k`` (test-side only)."""
    words = {()}
    frontier = [(automaton.initial, ())]
    for _ in range(k):
        nxt = []
        for state, word in frontier:
            for ev in sorted(automaton.events):
                target = automaton.step(state, ev)
                if target is None:
                    continue
                extended = word + (ev,)
                words.add(extended)
                nxt.append((target, extended))
        frontier = nxt
    return words


def random_formula(rng: random.Random, events, n_agents: int, depth: int,
                   controllers=None):
    """Random formula over the model's propositions.

    Given ``controllers``, the formula may also say that some of them, or
    some of them other than one supervisor, knows a subformula: the
    disjunctions :func:`any_knows` builds.
    """
    if depth == 0 or rng.random() < 0.25:
        ev = rng.choice(events)
        return Var(possible(ev)) if rng.random() < 0.5 else Var(legal(ev))
    kinds = ("not", "and", "or", "implies", "know", "know")
    if controllers is not None:
        kinds += ("someone", "other")

    def sub():
        return random_formula(rng, events, n_agents, depth - 1, controllers)

    kind = rng.choice(kinds)
    if kind == "not":
        return Not(sub())
    if kind == "someone":
        return any_knows(controllers, sub())
    if kind == "other":
        skip = rng.randrange(n_agents)
        return any_knows([j for j in controllers if j != skip], sub())
    if kind == "know":
        return Know(rng.randrange(n_agents), sub())
    left, right = sub(), sub()
    return {"and": And, "or": Or, "implies": Implies}[kind](left, right)


def reference_eval(frame, w, phi, relation="partial") -> bool:
    """The inductive semantics, world by world, straight off the model.

    Deliberately naive (no memo, no bitsets): it reads only the frame's
    ``model`` and ``worlds`` and rebuilds valuation and accessibility from
    the transition tables and the worlds' estimates, so it shares nothing
    with the :class:`KripkeFrame` under test.
    """
    model = frame.model
    if isinstance(phi, Const):
        return phi.value
    if isinstance(phi, Var):
        prop = phi.prop
        if prop.kind == "state_legal":
            return w.plant in model.legal_states
        table = model.delta if prop.kind == "possible" else model.legal_transitions
        return (w.plant, prop.event) in table
    if isinstance(phi, Not):
        return not reference_eval(frame, w, phi.sub, relation)
    if isinstance(phi, (And, Or, Implies)):
        left = reference_eval(frame, w, phi.left, relation)
        right = reference_eval(frame, w, phi.right, relation)
        if isinstance(phi, And):
            return left and right
        return (left or right) if isinstance(phi, Or) else (not left or right)
    if isinstance(phi, Know):
        i = phi.agent
        if relation == "partial" and w.plant not in model.legal_states:
            return True
        return all(reference_eval(frame, v, phi.sub, relation)
                   for v in frame.worlds
                   if v.estimates[i] == w.estimates[i]
                   and (relation == "total" or v.plant in model.legal_states))
    raise TypeError(f"not a formula: {phi!r}")
