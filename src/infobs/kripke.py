"""Epistemic structures: propositions, formulas, frames, and evaluation.

Worlds are the composite's states.  Two accessibility families are kept side
by side for every supervisor:

* the *total* relation relates worlds with the same estimate and is an
  equivalence relation;
* the *partial* relation additionally requires both worlds' plant states to
  be legal, hence it is a partial equivalence: worlds with an illegal plant
  state are related to nothing, not even themselves, and knowledge at them
  holds vacuously.

The partial relation is the load-bearing correction: with it, nothing is
demanded of a supervisor once the system has already left the legal
behaviour, and the guard transform below shows the two relations express the
same thing.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Container, Mapping
from dataclasses import dataclass
from typing import Literal

from .automata import PlantSpec, SupervisionProfile
from .errors import ModelError
from .observation import Composite, Estimate, World

Relation = Literal["partial", "total"]


# ---------------------------------------------------------------------------
# Propositions

@dataclass(frozen=True)
class Prop:
    """An atomic proposition evaluated at a world.

    ``kind`` is one of ``possible`` (the event can physically occur at the
    world's plant state), ``legal`` (the event is allowed by the
    specification there), or ``state_legal`` (the plant state itself lies in
    the legal subautomaton).
    """

    kind: str
    event: str | None = None


def possible(event: str) -> Prop:
    return Prop("possible", event)


def legal(event: str) -> Prop:
    return Prop("legal", event)


STATE_LEGAL = Prop("state_legal")


# ---------------------------------------------------------------------------
# Formulas

@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Const(Formula):
    value: bool


@dataclass(frozen=True)
class Var(Formula):
    prop: Prop


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Know(Formula):
    """``Know(i, f)``: f holds at every world supervisor i considers possible."""

    agent: int
    sub: Formula


TRUE = Const(True)
FALSE = Const(False)


def or_all(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def any_knows(agents, sub: Formula) -> Formula:
    """Some supervisor in ``agents`` knows ``sub``; false when there is none."""
    return or_all(Know(i, sub) for i in agents)


def expand_derived(phi: Formula) -> Formula:
    """Rewrite Or and Implies into the primitive not/and fragment."""
    if isinstance(phi, (Const, Var)):
        return phi
    if isinstance(phi, Not):
        return Not(expand_derived(phi.sub))
    if isinstance(phi, And):
        return And(expand_derived(phi.left), expand_derived(phi.right))
    if isinstance(phi, Or):
        return Not(And(Not(expand_derived(phi.left)), Not(expand_derived(phi.right))))
    if isinstance(phi, Implies):
        return expand_derived(Or(Not(phi.left), phi.right))
    if isinstance(phi, Know):
        return Know(phi.agent, expand_derived(phi.sub))
    raise TypeError(f"not a formula: {phi!r}")


def uses_state_legal(phi: Formula) -> bool:
    if isinstance(phi, Var):
        return phi.prop.kind == "state_legal"
    if isinstance(phi, Const):
        return False
    if isinstance(phi, Not):
        return uses_state_legal(phi.sub)
    if isinstance(phi, (And, Or, Implies)):
        return uses_state_legal(phi.left) or uses_state_legal(phi.right)
    if isinstance(phi, Know):
        return uses_state_legal(phi.sub)
    raise TypeError(f"not a formula: {phi!r}")


def guard_transform(phi: Formula) -> Formula:
    """Push explicit legality guards into every modal subterm.

    Every ``Know(i, f)`` becomes ``Know(i, state_legal => f')`` recursively
    and the root is guarded the same way.  Evaluated under the total
    relations, the result agrees at every legal world with the original
    formula evaluated under the partial relations; this is exactly what the
    partial relations encapsulate.
    """
    if uses_state_legal(phi):
        raise ValueError("guard_transform expects a formula without state_legal")
    return Implies(Var(STATE_LEGAL), _guard(phi))


def _guard(phi: Formula) -> Formula:
    if isinstance(phi, (Const, Var)):
        return phi
    if isinstance(phi, Not):
        return Not(_guard(phi.sub))
    if isinstance(phi, And):
        return And(_guard(phi.left), _guard(phi.right))
    if isinstance(phi, Or):
        return Or(_guard(phi.left), _guard(phi.right))
    if isinstance(phi, Implies):
        return Implies(_guard(phi.left), _guard(phi.right))
    if isinstance(phi, Know):
        return Know(phi.agent, Implies(Var(STATE_LEGAL), _guard(phi.sub)))
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Frames

def _mask(flags) -> int:
    """The bitset of the positions where ``flags`` (in world order) is true."""
    text = "".join("1" if flag else "0" for flag in flags)
    return int(text[::-1], 2) if text else 0


def _bits(indices) -> int:
    """The bitset of the given world indices."""
    out = 0
    for k in indices:
        out |= 1 << k
    return out


class KripkeFrame:
    """Worlds, valuation, and both accessibility families.

    Worlds are indexed in the composite's breadth-first order, and a set of
    worlds is a bitset held in a Python ``int`` whose bit k stands for
    ``worlds[k]``.  Formulas are evaluated by bottom-up labelling:
    :meth:`truth_set` maps a formula to the set of worlds where it holds, the
    connectives are bitwise operations on the sets of their parts, and
    ``Know(i, f)`` is one pass over supervisor i's accessibility classes that
    keeps every class lying inside the truth set of ``f``.  Truth sets are
    memoized per (relation, formula), never per world; the cache is
    write-once per key, so sharing the frame between readers is safe.

    The valuation is read off one table: per proposition kind and event,
    the plant states where the proposition holds.  ``possible`` is the
    model's :attr:`~infobs.automata.PlantSpec.successors` table, ``legal``
    one pass over the legal transitions.
    """

    def __init__(self, composite: Composite, model: PlantSpec,
                 profile: SupervisionProfile):
        self.composite = composite
        self.model = model
        self.profile = profile
        self.worlds = composite.worlds
        self._index = {w: k for k, w in enumerate(self.worlds)}
        self.all_bits = (1 << len(self.worlds)) - 1
        legal: defaultdict[str, set[str]] = defaultdict(set)
        for q, ev in model.legal_transitions:
            legal[ev].add(q)
        self._states: dict[str, Mapping[str | None, Container[str]]] = {
            "state_legal": {None: model.legal_states},
            "possible": model.successors, "legal": legal}
        self._classes: dict[tuple[int, Relation], list[int]] = {}
        self._props: dict[tuple[str, str | None], int] = {}
        self._truth: dict[tuple[Relation, Formula], int] = {}
        self.legal_bits = self._prop_set(STATE_LEGAL)

    # -- structure ---------------------------------------------------------

    def world_legal(self, w: World) -> bool:
        return w.plant in self.model.legal_states

    def class_of(self, w: World, i: int, relation: Relation = "partial") -> tuple[World, ...]:
        """The accessibility class of ``w`` for supervisor ``i``.

        Under the partial relation the class of a world with an illegal plant
        state is empty.
        """
        if relation == "partial" and not self.world_legal(w):
            return ()
        return tuple(v for v in self.worlds if v.estimates[i] == w.estimates[i]
                     and (relation == "total" or self.world_legal(v)))

    def witness(self, w: World):
        return self.composite.witnesses[w]

    def first(self, bits: int) -> World:
        """The first world of a nonempty set in breadth-first order."""
        return self.worlds[(bits & -bits).bit_length() - 1]

    # -- valuation ---------------------------------------------------------

    def _prop_set(self, prop: Prop) -> int:
        """The worlds where ``prop`` holds, computed once per frame."""
        if prop.event is not None and prop.event not in self.model.events:
            raise ModelError(f"proposition refers to unknown event {prop.event!r}")
        key = (prop.kind, prop.event)
        found = self._props.get(key)
        if found is None:
            by_event = self._states.get(prop.kind)
            if by_event is None:
                raise ModelError(f"unknown proposition kind {prop.kind!r}")
            states = by_event.get(prop.event, ())
            found = self._props[key] = _mask(w.plant in states for w in self.worlds)
        return found

    # -- evaluation --------------------------------------------------------

    def truth_set(self, phi: Formula, relation: Relation = "partial") -> int:
        """The bitset of the worlds where ``phi`` holds."""
        key = (relation, phi)
        found = self._truth.get(key)
        if found is None:
            found = self._label(phi, relation)
            self._truth[key] = found
        return found

    def eval(self, w: World, phi: Formula, relation: Relation = "partial") -> bool:
        """Whether ``phi`` holds at ``w``: one bit of :meth:`truth_set`."""
        return bool(self.truth_set(phi, relation) >> self._index[w] & 1)

    def _label(self, phi: Formula, relation: Relation) -> int:
        if isinstance(phi, Const):
            return self.all_bits if phi.value else 0
        if isinstance(phi, Var):
            return self._prop_set(phi.prop)
        if isinstance(phi, Not):
            return self.all_bits & ~self.truth_set(phi.sub, relation)
        if isinstance(phi, And):
            return self.truth_set(phi.left, relation) & self.truth_set(phi.right, relation)
        if isinstance(phi, Or):
            return self.truth_set(phi.left, relation) | self.truth_set(phi.right, relation)
        if isinstance(phi, Implies):
            return ((self.all_bits & ~self.truth_set(phi.left, relation))
                    | self.truth_set(phi.right, relation))
        if isinstance(phi, Know):
            sub = self.truth_set(phi.sub, relation)
            # Under the partial relation an illegal world's class is empty,
            # so knowledge holds there vacuously.
            out = 0 if relation == "total" else self.all_bits ^ self.legal_bits
            for members in self._classes_of(phi.agent, relation):
                if members & sub == members:
                    out |= members
            return out
        raise TypeError(f"not a formula: {phi!r}")

    def _classes_of(self, i: int, relation: Relation) -> list[int]:
        """Supervisor i's accessibility classes as bitsets.

        The total classes group the worlds by their estimate for supervisor
        i; the partial classes are their legal parts, the empty ones dropped.
        """
        key = (i, relation)
        found = self._classes.get(key)
        if found is None:
            if relation == "partial":
                found = [legal for c in self._classes_of(i, "total")
                         if (legal := c & self.legal_bits)]
            else:
                groups: dict[Estimate, list[int]] = {}
                for k, w in enumerate(self.worlds):
                    groups.setdefault(w.estimates[i], []).append(k)
                found = [_bits(ks) for ks in groups.values()]
            self._classes[key] = found
        return found


def build_frame(composite: Composite, model: PlantSpec,
                profile: SupervisionProfile) -> KripkeFrame:
    return KripkeFrame(composite, model, profile)

