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

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping

from .errors import AlphabetMismatch, EnumerationBound, ModelError

#: Ceiling for explicit string enumeration.  Oracles are desk scale by design.
MAX_WORD_LENGTH = 12

#: A word is a tuple of event names; the empty tuple is the empty word.
Word = tuple[str, ...]


@dataclass(frozen=True)
class PlantSpec:
    """A plant automaton together with its legal subautomaton.

    ``delta`` maps ``(state, event)`` pairs to successor states and is a
    partial function, which makes the plant deterministic by construction.
    ``legal_states`` and ``legal_transitions`` select the subautomaton that
    describes the desired closed-loop behaviour.

    Invariants (see :func:`validate_model`):

    * the initial state is legal;
    * every legal transition exists in ``delta`` and runs between legal
      states, hence a legal transition is always physically possible;
    * every state is reachable from the initial state.
    """

    events: frozenset[str]
    states: frozenset[str]
    initial: str
    delta: Mapping[tuple[str, str], str]
    legal_states: frozenset[str]
    legal_transitions: frozenset[tuple[str, str]]

    @cached_property
    def successors(self) -> dict[str, dict[str, str]]:
        """``event -> {state: successor}``, one entry per event of the model."""
        table: dict[str, dict[str, str]] = {ev: {} for ev in self.events}
        for (src, ev), dst in self.delta.items():
            table.setdefault(ev, {})[src] = dst
        return table

    def possible(self, state: str, event: str) -> bool:
        """True when the event can physically occur at the state."""
        return (state, event) in self.delta


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
    for (src, ev), dst in model.delta.items():
        if src not in model.states or dst not in model.states:
            raise ModelError(f"transition {src} -{ev}-> {dst} uses an unknown state")
        if ev not in model.events:
            raise ModelError(f"transition {src} -{ev}-> {dst} uses an unknown event")
    for src, ev in model.legal_transitions:
        if (src, ev) not in model.delta:
            raise ModelError(f"legal transition ({src}, {ev}) does not exist in the plant")
        if src not in model.legal_states or model.delta[(src, ev)] not in model.legal_states:
            raise ModelError(
                f"legal transition {src} -{ev}-> {model.delta[(src, ev)]}"
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
    """States reachable from the initial state; a fixed point of ``delta``.

    With ``legal_only`` only legal transitions are followed, which yields the
    state set of the legal subautomaton's accessible part.
    """
    moves = model.legal_transitions if legal_only else model.delta.keys()
    successors: dict[str, list[str]] = {}
    for (src, ev) in moves:
        successors.setdefault(src, []).append(model.delta[(src, ev)])
    seen = {model.initial}
    queue = deque([model.initial])
    while queue:
        for dst in successors.get(queue.popleft(), ()):
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return frozenset(seen)


def walk_words(model: PlantSpec, k: int,
               legal_only: bool = False) -> Iterator[tuple[Word, str]]:
    """Every word of length at most ``k`` the plant (or its legal part)
    generates, with the state it reaches: shortest first, and in event order
    within a length.
    """
    events = sorted(model.events)
    frontier: list[tuple[Word, str]] = [((), model.initial)]
    yield frontier[0]
    for _ in range(k):
        nxt: list[tuple[Word, str]] = []
        for word, state in frontier:
            for ev in events:
                if legal_only and (state, ev) not in model.legal_transitions:
                    continue
                dst = model.delta.get((state, ev))
                if dst is not None:
                    nxt.append((word + (ev,), dst))
        yield from nxt
        frontier = nxt


def language_upto(model: PlantSpec, k: int, legal_only: bool = False) -> set[Word]:
    """All words of length at most ``k`` generated by the plant (or its legal
    part).  The result is prefix closed.
    """
    if k < 0:
        raise ValueError("word length bound must be nonnegative")
    if k > MAX_WORD_LENGTH:
        raise EnumerationBound(
            f"k={k} exceeds the enumeration ceiling {MAX_WORD_LENGTH}")
    return {word for word, _state in walk_words(model, k, legal_only)}


@dataclass(frozen=True)
class Automaton:
    """A bare deterministic automaton used for language comparisons.

    States may be any hashable values (state names, estimate sets, composite
    worlds).  The generated language is the set of words along defined
    transitions, which is prefix closed; there are no accepting states.
    """

    events: frozenset[str]
    initial: Any
    delta: Mapping[tuple[Any, str], Any]

    def step(self, state: Any, event: str) -> Any | None:
        return self.delta.get((state, event))


def plant_automaton(model: PlantSpec) -> Automaton:
    return Automaton(model.events, model.initial, dict(model.delta))


def legal_automaton(model: PlantSpec) -> Automaton:
    """The legal subautomaton, generating exactly the legal language."""
    delta = {(src, ev): model.delta[(src, ev)] for (src, ev) in model.legal_transitions}
    return Automaton(model.events, model.initial, delta)


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


def dfa_equivalent(a: Automaton, b: Automaton) -> EquivalenceVerdict:
    """Decide whether two deterministic automata generate the same language.

    Runs a breadth-first product walk; the first reachable pair where exactly
    one automaton can extend the word yields the counterexample.
    """
    if a.events != b.events:
        raise AlphabetMismatch(
            f"alphabets differ: {sorted(a.events)} vs {sorted(b.events)}"
        )
    start = (a.initial, b.initial)
    seen = {start}
    queue: deque[tuple[tuple[Any, Any], Word]] = deque([(start, ())])
    while queue:
        (sa, sb), word = queue.popleft()
        for ev in sorted(a.events):
            ta = a.step(sa, ev)
            tb = b.step(sb, ev)
            if (ta is None) != (tb is None):
                return EquivalenceVerdict(False, word + (ev,))
            if ta is None:
                continue
            pair = (ta, tb)
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, word + (ev,)))
    return EquivalenceVerdict(True)


def format_word(word: Iterable[str]) -> str:
    """Human-readable rendering; the empty word prints as a visible marker."""
    word = tuple(word)
    return " ".join(word) if word else "(empty)"
