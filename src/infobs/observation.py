"""Observer automata and the plant/observer composite.

Each supervisor sees the plant through its projection: unobservable events
are erased and the result is determinized.  The observer's states are state
*estimates*: closures of plant-state sets under unobservable moves.  The
composite automaton pairs the plant state with every supervisor's current
estimate; its worlds are the carriers of the epistemic structures built in
:mod:`infobs.kripke`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

from .automata import PlantSpec, SupervisionProfile, Word, closure
from .errors import ModelError

Estimate = frozenset[str]


@dataclass(frozen=True)
class Observer:
    """Determinized view of the plant for one supervisor.

    States are estimates (closed under unobservable moves), numbered by the
    order in which :func:`project` discovers them: ``states[k]`` is estimate
    ``k`` and the initial estimate is 0.  ``moves`` holds one ``id -> id``
    table per observable event.  The observer generates exactly the
    projection of the plant language.
    """

    supervisor: int
    observable: frozenset[str]
    states: tuple[Estimate, ...]
    moves: Mapping[str, Mapping[int, int]]

    def step(self, k: int, event: str) -> int:
        """Advance estimate ``k`` on one *plant* event; unobservable events
        do not move."""
        if event not in self.observable:
            return k
        target = self.moves.get(event, {}).get(k)
        if target is None:
            raise self.stuck(k, event)
        return target

    def stuck(self, k: int, event: str) -> ModelError:
        """The error for an observable event with no move from estimate ``k``."""
        return ModelError(
            f"observer {self.supervisor + 1} cannot follow observable event "
            f"{event!r} from estimate {sorted(self.states[k])}"
        )


def project(model: PlantSpec, profile: SupervisionProfile, i: int) -> Observer:
    """Subset construction over unobservable closures for supervisor ``i``."""
    if not 0 <= i < profile.n:
        raise ModelError(f"no supervisor with index {i}")
    observable = profile.observable[i]
    succ = model.successors
    silent = [succ[ev] for ev in model.events - observable]
    initial = frozenset(closure({model.initial}, silent))
    # ``ids`` numbers each estimate, and maps each step set to the id of its
    # closure, so each distinct step set is closed once; a step set equal to
    # an estimate is closed, so it already has the right id.
    ids = {initial: 0}
    states = [initial]
    moves: dict[str, dict[int, int]] = {ev: {} for ev in observable}
    events = [(succ[ev].keys(), succ[ev].get, moves[ev]) for ev in sorted(observable)]
    for src, est in enumerate(states):  # grows while it is read
        for sources, step_from, row in events:
            if sources.isdisjoint(est):  # no state of est can take ev
                continue
            step = frozenset(map(step_from, est))  # None where ev is not possible
            target = ids.get(step)
            if target is None:
                found = frozenset(closure(step - {None}, silent))
                target = ids.get(found)
                if target is None:
                    target = ids[found] = len(states)
                    states.append(found)
                ids[step] = target
            row[src] = target
    return Observer(i, observable, tuple(states), moves)


class World(NamedTuple):
    """A composite state: the plant state plus one estimate per supervisor."""

    plant: str
    estimates: tuple[Estimate, ...]

    def pretty(self) -> str:
        parts = [self.plant] + ["{" + ",".join(sorted(e)) + "}" for e in self.estimates]
        return "(" + " | ".join(parts) + ")"


@dataclass(frozen=True)
class Composite:
    """Reachable product of the plant with every observer, as columns.

    World k, in breadth-first order (events expanded in name order), is the
    plant state ``plants[k]`` with estimate ``observers[i].states[ids[i][k]]``
    for observer i; ``edges`` lists every move flat as ``source, event, target``
    by world number.  From world 0 the composite generates the plant's
    language, or the part of it a :func:`compose` filter keeps, and
    ``observers`` are the observers it was composed from.  Past the walk a
    world is its number: :attr:`words` (shortest generating words, ties
    broken lexicographically) is indexed by it and built on first read, and
    :class:`World` objects, from :meth:`world` or :attr:`worlds`, exist only
    for output and the oracle.
    """

    plants: tuple[str, ...]
    ids: tuple[tuple[int, ...], ...]
    edges: tuple[int | str, ...]
    observers: tuple[Observer, ...]

    def world(self, k: int) -> World:
        return World(self.plants[k], tuple(o.states[c[k]]
                                           for o, c in zip(self.observers, self.ids)))

    @cached_property
    def worlds(self) -> tuple[World, ...]:
        rows = zip(*(map(o.states.__getitem__, c) for o, c in zip(self.observers, self.ids)))
        return tuple(map(World, self.plants, rows))

    @cached_property
    def words(self) -> list[Word]:
        # Worlds are numbered as the walk reaches them, each by its first edge.
        words: list[Word] = [()]
        moves = iter(self.edges)
        for src, ev, dst in zip(moves, moves, moves):
            if dst == len(words):
                words.append(words[src] + (ev,))
        return words


def compose(model: PlantSpec, observers: Sequence[Observer],
            enabled: Callable[[tuple, str], bool] | None = None) -> Composite:
    """Walk the reachable part of ``G x P_1(G) x ... x P_n(G)``.

    The plant component follows the plant's transition function; observer
    ``i`` advances only on events it observes.  For observers built by
    :func:`project`, the plant state is always a member of every estimate.

    The walk runs on ``(plant state, estimate id, ...)`` keys over each
    observer's :attr:`Observer.moves`, and each move steps only the observers
    whose ``observable`` holds its event.  The keys become the composite's
    columns.
    ``enabled(key, event)``, when given, drops every move it rejects, which
    turns the walk into a closed loop under supervision.
    """
    if len(observers) < 1:
        raise ModelError("the composite needs at least one observer")
    succ = model.successors
    # Per event, the key position and id table of each observer seeing it.
    plan = [(ev, succ[ev], [(j, o.moves.get(ev, {}))
                            for j, o in enumerate(observers, start=1)
                            if ev in o.observable])
            for ev in sorted(model.events)]
    keys = [(model.initial, *(0 for _ in observers))]
    index = {keys[0]: 0}
    edges: list[int | str] = []
    for src, key in enumerate(keys):  # grows while it is read
        plant = key[0]
        for ev, moves, steps in plan:
            dst = moves.get(plant)
            if dst is None or (enabled is not None and not enabled(key, ev)):
                continue
            nxt = list(key)
            nxt[0] = dst
            for j, step in steps:
                k = step.get(key[j])
                if k is None:
                    raise observers[j - 1].stuck(key[j], ev)
                nxt[j] = k
            nxt = tuple(nxt)
            target = index.get(nxt)
            if target is None:
                target = index[nxt] = len(keys)
                keys.append(nxt)
            edges += (src, ev, target)
    plants, *ids = zip(*keys)
    return Composite(plants, tuple(ids), tuple(edges), tuple(observers))


def build_composite(model: PlantSpec, profile: SupervisionProfile) -> Composite:
    """Project every supervisor and compose; the usual entry point."""
    observers = [project(model, profile, i) for i in range(profile.n)]
    return compose(model, observers)
