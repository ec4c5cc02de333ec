"""Seeded random instances for property tests and oracle cross-checks.

The generator keeps instances *coherent*: the legal subautomaton is induced
by the legal state set (every transition between legal states is legal) and
the illegal region is absorbing (no transition leads from an illegal state
back to a legal one).  Under these two rules a world whose plant state is
legal is always reachable by a legal word, so the world-level conditions and
the string-level solvability requirements talk about the same situations.
All shipped fixtures have this shape too.
"""

from __future__ import annotations

import random
from typing import Sequence

from infobs.automata import (PlantSpec, SupervisionProfile, closure,
                             validate_model, validate_profile)

_EVENT_NAMES = ("a", "b", "c")


def random_instance(rng: random.Random, max_states: int = 5, max_events: int = 3,
                    n_choices: Sequence[int] = (1, 2, 3),
                    transition_density: float = 0.55,
                    legal_state_bias: float = 0.75,
                    event_membership: float = 0.6,
                    obs_membership: float | None = None,
                    ) -> tuple[PlantSpec, SupervisionProfile]:
    """One random plant/profile pair; deterministic given the rng state.

    ``event_membership`` is the chance an event is controllable per
    supervisor; ``obs_membership`` (defaulting to the same value) the chance
    it is observable.
    """
    if obs_membership is None:
        obs_membership = event_membership
    n_states = rng.randint(1, max_states)
    n_events = rng.randint(1, max_events)
    events = list(_EVENT_NAMES[:n_events])
    states = [f"q{k}" for k in range(n_states)]
    successors: dict[str, dict[str, str]] = {ev: {} for ev in events}
    for q in states:
        for ev in events:
            if rng.random() < transition_density:
                successors[ev][q] = rng.choice(states)

    legal = {q for q in states if rng.random() < legal_state_bias}
    legal.add("q0")
    # Absorbing illegal region: drop any transition escaping back to legality,
    # then every state the plant cannot reach.
    successors = {ev: {q: dst for q, dst in row.items()
                       if q in legal or dst not in legal}
                  for ev, row in successors.items()}
    reach = closure({"q0"}, successors.values())
    successors = {ev: {q: dst for q, dst in row.items() if q in reach}
                  for ev, row in successors.items()}
    legal &= reach
    legal_sources = {ev: frozenset(q for q, dst in row.items()
                                   if q in legal and dst in legal)
                     for ev, row in successors.items()}

    model = PlantSpec(frozenset(events), frozenset(reach), "q0", successors,
                      frozenset(legal), legal_sources)
    n = rng.choice(list(n_choices))
    observable = tuple(frozenset(ev for ev in events
                                 if rng.random() < obs_membership)
                       for _ in range(n))
    controllable = tuple(frozenset(ev for ev in events
                                   if rng.random() < event_membership)
                         for _ in range(n))
    profile = SupervisionProfile(observable, controllable)
    validate_model(model)
    validate_profile(model, profile)
    return model, profile


def instance_stream(seed: int, count: int, **kwargs):
    """Yield ``count`` instances from one seeded generator."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_instance(rng, **kwargs)
