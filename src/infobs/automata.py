"""Deterministic plant and specification automata plus language operations.

The plant is a deterministic finite automaton over named events.  The control
requirement is a subautomaton of the plant and is encoded *in place* as
legality flags on states and on transitions: a transition may only be legal
when both of its endpoint states are legal, so the legal part is itself a
deterministic automaton sharing the plant's state space.

Everything here is immutable after construction and all operations are pure,
so models can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping

from .errors import ModelError

#: A word is a tuple of event names; the empty tuple is the empty word.
Word = tuple[str, ...]


@dataclass(frozen=True)
class PlantSpec:
    """A plant automaton together with its legal subautomaton.

    ``successors`` holds one ``{state: successor}`` row per event, so the
    transition function is partial and the plant deterministic by
    construction.  ``legal_states`` and ``legal_sources`` (per event, the
    states where it is legal) select the subautomaton that describes the
    desired closed-loop behaviour.  Both tables have an entry for every
    event; ``delta`` and ``legal_transitions`` are the same relations keyed
    by ``(state, event)`` pairs, built on first read.

    Invariants (see :func:`validate_model`):

    * the initial state is legal;
    * every legal transition exists in ``successors`` and runs between legal
      states, hence a legal transition is always physically possible;
    * every state is reachable from the initial state.
    """

    events: frozenset[str]
    states: frozenset[str]
    initial: str
    successors: Mapping[str, Mapping[str, str]]
    legal_states: frozenset[str]
    legal_sources: Mapping[str, frozenset[str]]

    @cached_property
    def delta(self) -> Mapping[tuple[str, str], str]:
        """``(state, event) -> successor``, read-only."""
        return MappingProxyType({(src, ev): dst for ev, row in self.successors.items()
                                 for src, dst in row.items()})

    @cached_property
    def legal_transitions(self) -> frozenset[tuple[str, str]]:
        return frozenset((src, ev) for ev, sources in self.legal_sources.items()
                         for src in sources)

    def possible(self, state: str, event: str) -> bool:
        """True when the event can physically occur at the state."""
        return state in self.successors.get(event, ())


@dataclass(frozen=True)
class SupervisionProfile:
    """Per-supervisor observable and controllable event sets.

    Supervisors are indexed from 0 in code; user-facing surfaces (model
    files, reports) use 1-based indices.
    """

    observable: tuple[frozenset[str], ...]
    controllable: tuple[frozenset[str], ...]

    @property
    def n(self) -> int:
        return len(self.observable)

    @property
    def sigma_c(self) -> frozenset[str]:
        """Events controlled by at least one supervisor."""
        out: frozenset[str] = frozenset()
        for ctrl in self.controllable:
            out |= ctrl
        return out

    def sigma_uc(self, events: frozenset[str]) -> frozenset[str]:
        return events - self.sigma_c

    def controllers(self, event: str) -> tuple[int, ...]:
        """Indices of the supervisors that control ``event``."""
        return tuple(i for i, ctrl in enumerate(self.controllable) if event in ctrl)


def validate_model(model: PlantSpec) -> None:
    """Raise :class:`ModelError` unless the model satisfies its invariants."""
    if not model.states:
        raise ModelError("model has no states")
    if model.initial not in model.states:
        raise ModelError(f"initial state {model.initial!r} is not a state")
    if model.initial not in model.legal_states:
        raise ModelError(f"initial state {model.initial!r} must be legal")
    if not model.legal_states <= model.states:
        bad = sorted(model.legal_states - model.states)
        raise ModelError(f"unknown legal states: {', '.join(bad)}")
    if not model.successors.keys() == model.legal_sources.keys() == model.events:
        raise ModelError("the transition tables need one row per event")
    for ev, row in model.successors.items():
        for src, dst in row.items():
            if src not in model.states or dst not in model.states:
                raise ModelError(f"transition {src} -{ev}-> {dst} uses an unknown state")
        for src in model.legal_sources[ev]:
            if src not in row:
                raise ModelError(f"legal transition ({src}, {ev}) does not exist in the plant")
            if src not in model.legal_states or row[src] not in model.legal_states:
                raise ModelError(
                    f"legal transition {src} -{ev}-> {row[src]}"
                    " must run between legal states"
                )
    unreachable = model.states - reachable(model, legal_only=False)
    if unreachable:
        names = ", ".join(sorted(unreachable))
        raise ModelError(f"states unreachable from {model.initial!r} are rejected: {names}")


def validate_profile(model: PlantSpec, profile: SupervisionProfile) -> None:
    if profile.n < 1:
        raise ModelError("at least one supervisor is required")
    if len(profile.controllable) != profile.n:
        raise ModelError("observable and controllable lists disagree on the supervisor count")
    for i in range(profile.n):
        for name, group in (("observable", profile.observable[i]),
                            ("controllable", profile.controllable[i])):
            unknown = group - model.events
            if unknown:
                raise ModelError(
                    f"supervisor {i + 1} lists unknown {name} events: "
                    + ", ".join(sorted(unknown))
                )


def reachable(model: PlantSpec, legal_only: bool = False) -> frozenset[str]:
    """States reachable from the initial state; a fixed point of the moves.

    With ``legal_only`` only legal transitions are followed, which yields the
    state set of the legal subautomaton's accessible part.
    """
    rows = model.successors.values()
    if legal_only:
        rows = [{q: row[q] for q in model.legal_sources[ev]}
                for ev, row in model.successors.items()]
    return frozenset(closure({model.initial}, rows))


def closure(seed: Iterable[str], rows: Collection[Mapping[str, str]]) -> set[str]:
    """``seed`` and every state reached from it along the moves of ``rows``,
    each a ``state -> successor`` table; one pass per breadth-first level."""
    seen = set(seed)
    frontier = seen
    while frontier:
        reached: set[str | None] = set()
        for row in rows:
            reached.update(map(row.get, frontier))
        reached.discard(None)
        frontier = reached - seen
        seen |= frontier
    return seen


def walk_words(model: PlantSpec, k: int,
               legal_only: bool = False) -> Iterator[tuple[Word, str]]:
    """Every word of length at most ``k`` the plant (or its legal part)
    generates, with the state it reaches: shortest first, and in event order
    within a length.
    """
    moves = [(ev, model.successors[ev],
              model.legal_sources[ev] if legal_only else None)
             for ev in sorted(model.events)]
    frontier: list[tuple[Word, str]] = [((), model.initial)]
    yield frontier[0]
    for _ in range(k):
        nxt: list[tuple[Word, str]] = []
        for word, state in frontier:
            for ev, row, allowed in moves:
                dst = row.get(state)
                if dst is not None and (allowed is None or state in allowed):
                    nxt.append((word + (ev,), dst))
        yield from nxt
        frontier = nxt


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of a language comparison.

    ``counterexample`` is present exactly when the languages differ and is a
    shortest word in exactly one of them (ties broken lexicographically by
    event name).
    """

    equal: bool
    counterexample: Word | None = None

    def __bool__(self) -> bool:
        return self.equal


def format_word(word: Iterable[str]) -> str:
    """Human-readable rendering; the empty word prints as a visible marker."""
    word = tuple(word)
    return " ".join(word) if word else "(empty)"
