"""Observer automata and the plant/observer composite.

Each supervisor sees the plant through its projection: unobservable events
are erased and the result is determinized.  The observer's states are state
*estimates*: closures of plant-state sets under unobservable moves.  The
composite automaton pairs the plant state with every supervisor's current
estimate; its worlds are the carriers of the epistemic structures built in
:mod:`infobs.kripke`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

from .automata import Automaton, PlantSpec, SupervisionProfile, Word
from .errors import ModelError

Estimate = frozenset[str]


@dataclass(frozen=True)
class Observer:
    """Determinized view of the plant for one supervisor.

    States are estimates (closed under unobservable moves); transitions are
    labelled only with the supervisor's observable events.  The observer
    generates exactly the projection of the plant language.
    """

    supervisor: int
    observable: frozenset[str]
    initial: Estimate
    states: frozenset[Estimate]
    delta: Mapping[tuple[Estimate, str], Estimate]

    def step(self, estimate: Estimate, event: str) -> Estimate:
        """Advance on one *plant* event; unobservable events do not move."""
        if event not in self.observable:
            return estimate
        target = self.delta.get((estimate, event))
        if target is None:
            raise ModelError(
                f"observer {self.supervisor + 1} cannot follow observable event "
                f"{event!r} from estimate {sorted(estimate)}"
            )
        return target

    def run(self, word: Sequence[str]) -> Estimate:
        est = self.initial
        for ev in word:
            est = self.step(est, ev)
        return est

    def automaton(self) -> Automaton:
        return Automaton(self.observable, self.initial, dict(self.delta))


def _closure(model: PlantSpec, unobservable: frozenset[str], seed: set[str]) -> Estimate:
    out = set(seed)
    queue = deque(seed)
    while queue:
        q = queue.popleft()
        for ev in unobservable:
            dst = model.delta.get((q, ev))
            if dst is not None and dst not in out:
                out.add(dst)
                queue.append(dst)
    return frozenset(out)


def project(model: PlantSpec, profile: SupervisionProfile, i: int) -> Observer:
    """Subset construction over unobservable closures for supervisor ``i``."""
    if not 0 <= i < profile.n:
        raise ModelError(f"no supervisor with index {i}")
    observable = profile.observable[i]
    unobservable = model.events - observable
    initial = _closure(model, unobservable, {model.initial})
    states = {initial}
    delta: dict[tuple[Estimate, str], Estimate] = {}
    queue = deque([initial])
    while queue:
        est = queue.popleft()
        for ev in sorted(observable):
            step = {model.delta[(q, ev)] for q in est if (q, ev) in model.delta}
            if not step:
                continue
            target = _closure(model, unobservable, step)
            delta[(est, ev)] = target
            if target not in states:
                states.add(target)
                queue.append(target)
    return Observer(i, observable, initial, frozenset(states), delta)


class World(NamedTuple):
    """A composite state: the plant state plus one estimate per supervisor."""

    plant: str
    estimates: tuple[Estimate, ...]

    def pretty(self) -> str:
        parts = [self.plant] + ["{" + ",".join(sorted(e)) + "}" for e in self.estimates]
        return "(" + " | ".join(parts) + ")"


@dataclass(frozen=True)
class Composite:
    """Reachable product of the plant with every observer.

    Only reachable worlds are materialized; ``worlds`` is in breadth-first
    order (events expanded in name order), and ``witnesses`` maps each world
    to its shortest generating word, ties broken lexicographically.  The
    composite generates the same language as the plant.
    """

    events: frozenset[str]
    initial: World
    worlds: tuple[World, ...]
    delta: Mapping[tuple[World, str], World]
    witnesses: Mapping[World, Word]

    def automaton(self) -> Automaton:
        return Automaton(self.events, self.initial, dict(self.delta))


def compose(model: PlantSpec, observers: Sequence[Observer],
            enabled: Callable[[World, str], bool] | None = None) -> Composite:
    """Walk the reachable part of ``G x P_1(G) x ... x P_n(G)``.

    The plant component follows the plant's transition function; observer
    ``i`` advances only on events it observes.  For observers built by
    :func:`project`, the plant state is always a member of every estimate.
    ``enabled(world, event)``, when given, drops every move it rejects, which
    turns the walk into a closed loop under supervision.
    """
    if len(observers) < 1:
        raise ModelError("the composite needs at least one observer")
    initial = World(model.initial, tuple(o.initial for o in observers))
    worlds: list[World] = [initial]
    seen = {initial}
    delta: dict[tuple[World, str], World] = {}
    witnesses: dict[World, Word] = {initial: ()}
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
    return Composite(model.events, initial, tuple(worlds), delta, witnesses)


def build_composite(model: PlantSpec, profile: SupervisionProfile) -> Composite:
    """Project every supervisor and compose; the usual entry point."""
    observers = [project(model, profile, i) for i in range(profile.n)]
    return compose(model, observers)
