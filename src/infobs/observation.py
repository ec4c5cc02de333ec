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

from .automata import (Automaton, PlantSpec, SupervisionProfile, Word,
                       closure)
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
            raise self.stuck(estimate, event)
        return target

    def stuck(self, estimate: Estimate, event: str) -> ModelError:
        """The error for an observable event with no move from ``estimate``."""
        return ModelError(
            f"observer {self.supervisor + 1} cannot follow observable event "
            f"{event!r} from estimate {sorted(estimate)}"
        )

    def run(self, word: Sequence[str]) -> Estimate:
        est = self.initial
        for ev in word:
            est = self.step(est, ev)
        return est

    def automaton(self) -> Automaton:
        return Automaton(self.observable, self.initial, dict(self.delta))

    @cached_property
    def numbered(self) -> tuple[list[Estimate], dict[str, dict[int, int]]]:
        """Estimates by id in order of first appearance in ``delta`` (the
        initial one 0), and an ``id -> id`` table per observable event."""
        ids: dict[Estimate, int] = {self.initial: 0}
        moves: dict[str, dict[int, int]] = {ev: {} for ev in self.observable}
        for (est, ev), dst in self.delta.items():
            if ev in moves:
                moves[ev][ids.setdefault(est, len(ids))] = ids.setdefault(dst, len(ids))
        return list(ids), moves


def project(model: PlantSpec, profile: SupervisionProfile, i: int) -> Observer:
    """Subset construction over unobservable closures for supervisor ``i``."""
    if not 0 <= i < profile.n:
        raise ModelError(f"no supervisor with index {i}")
    observable = profile.observable[i]
    moves = model.successors
    silent = [moves[ev] for ev in model.events - observable]
    initial = frozenset(closure({model.initial}, silent))
    # ``stored`` maps each estimate to its first stored object, so equal
    # estimates are one object and lookups keyed on them compare by
    # identity.  It also maps each step set to its closure, so each distinct
    # step set is closed once; a step set equal to an estimate is closed.
    stored = {initial: initial}
    states = [initial]
    delta: dict[tuple[Estimate, str], Estimate] = {}
    events = [(ev, moves[ev].keys(), moves[ev].get) for ev in sorted(observable)]
    for est in states:  # grows while it is read
        for ev, sources, step_from in events:
            if sources.isdisjoint(est):  # no state of est can take ev
                continue
            step = frozenset(map(step_from, est))  # None where ev is not possible
            target = stored.get(step)
            if target is None:
                found = frozenset(closure(step - {None}, silent))
                target = stored[step] = stored.setdefault(found, found)
                if target is found:
                    states.append(found)
            delta[(est, ev)] = target
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
    """Reachable product of the plant with every observer, as columns.

    World k, in breadth-first order (events expanded in name order), is the
    plant state ``plants[k]`` with estimate ``estimates[i][ids[i][k]]`` for
    observer i; ``edges`` lists every move flat as ``source, event, target``
    by world number.  The composite generates the plant's language, and
    ``observers`` are the observers it was composed from.  Past the walk a
    world is its number: :attr:`delta` and :attr:`words` (shortest
    generating words, ties broken lexicographically) are keyed by it and
    built on first read, and :class:`World` objects, from :meth:`world` or
    :attr:`worlds`, exist only for output and the oracle.
    """

    events: frozenset[str]
    plants: tuple[str, ...]
    ids: tuple[tuple[int, ...], ...]
    estimates: tuple[list[Estimate], ...]
    edges: tuple[int | str, ...]
    observers: tuple[Observer, ...]

    def world(self, k: int) -> World:
        return World(self.plants[k], tuple(n[c[k]] for n, c in zip(self.estimates, self.ids)))

    @cached_property
    def worlds(self) -> tuple[World, ...]:
        rows = zip(*(map(n.__getitem__, c) for n, c in zip(self.estimates, self.ids)))
        return tuple(map(World, self.plants, rows))

    @cached_property
    def delta(self) -> dict[tuple[int, str], int]:
        moves = iter(self.edges)
        return {(src, ev): dst for src, ev, dst in zip(moves, moves, moves)}

    @cached_property
    def words(self) -> list[Word]:
        # Worlds are numbered as the walk reaches them, each by its first edge.
        words: list[Word] = [()]
        moves = iter(self.edges)
        for src, ev, dst in zip(moves, moves, moves):
            if dst == len(words):
                words.append(words[src] + (ev,))
        return words

    def automaton(self) -> Automaton:
        return Automaton(self.events, 0, self.delta)


def compose(model: PlantSpec, observers: Sequence[Observer],
            enabled: Callable[[tuple, str], bool] | None = None) -> Composite:
    """Walk the reachable part of ``G x P_1(G) x ... x P_n(G)``.

    The plant component follows the plant's transition function; observer
    ``i`` advances only on events it observes.  For observers built by
    :func:`project`, the plant state is always a member of every estimate.

    The walk runs on ``(plant state, estimate id, ...)`` keys over each
    observer's :attr:`Observer.numbered` tables, and each move steps only the
    observers that see its event.  The keys become the composite's columns.
    ``enabled(key, event)``, when given, drops every move it rejects, which
    turns the walk into a closed loop under supervision.
    """
    if len(observers) < 1:
        raise ModelError("the composite needs at least one observer")
    names, tables = zip(*(o.numbered for o in observers))
    succ = model.successors
    # Per event, the key position and id table of each observer seeing it.
    plan = [(ev, succ[ev], [(j, t[ev]) for j, t in enumerate(tables, start=1)
                            if ev in t])
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
                    raise observers[j - 1].stuck(names[j - 1][key[j]], ev)
                nxt[j] = k
            nxt = tuple(nxt)
            target = index.get(nxt)
            if target is None:
                target = index[nxt] = len(keys)
                keys.append(nxt)
            edges += (src, ev, target)
    plants, *ids = zip(*keys)
    return Composite(model.events, plants, tuple(ids), names, tuple(edges),
                     tuple(observers))


def build_composite(model: PlantSpec, profile: SupervisionProfile) -> Composite:
    """Project every supervisor and compose; the usual entry point."""
    observers = [project(model, profile, i) for i in range(profile.n)]
    return compose(model, observers)
