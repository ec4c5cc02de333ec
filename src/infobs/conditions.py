"""Controllability and the family of epistemic observability conditions.

All conditions share a vocabulary of event-indexed shorthand formulas:

* ``can_enable``   -- enabling the event here cannot violate the requirement;
* ``can_disable``  -- disabling it here cannot violate the requirement;
* ``must_enable``  -- the requirement demands the event be enabled here;
* ``must_disable`` -- it is physically possible but forbidden here.

``must_disable`` is exactly the negation of ``can_enable`` conjoined with
physical possibility, and ``must_enable`` implies possibility, both by
construction of the valuation.

Every condition has the same shape: at each world some knowledge covers the
event, or the event's default action is safe there.  The conditions differ
only in which knowledge covers a world, which defaults they may choose,
which accessibility relation they read and which worlds and events they
quantify over; :data:`CONDITIONS` records these facts once per condition and
:func:`check` decides every row.  Verdicts carry a per-event default
partition when they hold and a deterministic counterexample (shortest
witnessing word, ties lexicographic) when they fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Mapping, Sequence

from .automata import PlantSpec, SupervisionProfile, Word
from .errors import ModelError
from .fusion import DISABLE, ENABLE, FusedDecision
from .kripke import (Formula, Implies, Know, KripkeFrame, Not, Or, Relation,
                     Var, any_knows, build_frame, legal, or_all, possible)
from .observation import World, build_composite


# ---------------------------------------------------------------------------
# Shorthand formulas

def can_enable(event: str) -> Formula:
    return Or(Not(Var(possible(event))), Var(legal(event)))


def can_disable(event: str) -> Formula:
    return Not(Var(legal(event)))


def must_enable(event: str) -> Formula:
    return Var(legal(event))


def must_disable(event: str) -> Formula:
    return Not(can_enable(event))


# ---------------------------------------------------------------------------
# Verdicts

@dataclass(frozen=True)
class Counterexample:
    """Where and why a condition fails.

    ``world``/``string`` name the failing world by its shortest witnessing
    word.  When a condition may choose between two defaults and neither is
    safe, ``world`` is where the last one fails and ``conflict_world``/
    ``conflict_string`` is where the first one does.  For the extended
    condition (enable, then disable) that is an uncovered world that must
    keep the event enabled and one that must keep it disabled.
    """

    event: str
    world: World
    string: Word
    conflict_world: World | None = None
    conflict_string: Word | None = None


@dataclass(frozen=True)
class Verdict:
    """Outcome of one condition check.

    ``defaults`` is present exactly when the condition holds and maps every
    controlled event to its default action: the first of the row's defaults
    that is safe wherever the event is not covered (a controlled event the
    check did not quantify over gets the row's first default).
    ``counterexample`` is present exactly when the check fails.
    """

    condition: str
    holds: bool
    defaults: Mapping[str, FusedDecision] | None = None
    counterexample: Counterexample | None = None

    def __bool__(self) -> bool:
        return self.holds


def default_frame(model: PlantSpec, profile: SupervisionProfile) -> KripkeFrame:
    """Project, compose, and build the frame in one call."""
    return build_frame(build_composite(model, profile), model, profile)


def _counterexample(frame: KripkeFrame, event: str, failed: list[int]) -> Counterexample:
    """The first world, in breadth-first order, where the last default
    fails; with two defaults, paired with the first world where the first
    one fails.  Only these worlds are built; their words are read by number."""
    composite, k = frame.composite, frame.lowest(failed[-1])
    w, word = composite.world(k), composite.words[k]
    if len(failed) == 1:
        return Counterexample(event, w, word)
    j = frame.lowest(failed[0])
    return Counterexample(event, w, word, composite.world(j), composite.words[j])


# ---------------------------------------------------------------------------
# Covering knowledge

def knowledge_lines(profile: SupervisionProfile, event: str, i: int
                    ) -> tuple[Formula, Formula, Formula, Formula]:
    """Supervisor i's four knowledge lines for ``event``, in policy order.

    i knows enabling is safe; i knows disabling is safe; i knows that if the
    event must be enabled another controller knows enabling is safe; and the
    mirror image for disabling.  With no other controller the last two
    reduce to knowing the event need not be enabled (or disabled).
    """
    e, d = can_enable(event), can_disable(event)
    others = [j for j in profile.controllers(event) if j != i]
    return (Know(i, e),
            Know(i, d),
            Know(i, Implies(must_enable(event), any_knows(others, e))),
            Know(i, Implies(must_disable(event), any_knows(others, d))))


def _extended_lines(profile: SupervisionProfile, event: str) -> list[Formula]:
    """Each knowledge line, held by some controller of the event."""
    per_controller = [knowledge_lines(profile, event, i)
                      for i in profile.controllers(event)]
    return [or_all(lines) for lines in zip(*per_controller)]


def _coupled(profile: SupervisionProfile, event: str) -> list[Formula]:
    """One supervisor can certify another's knowledge."""
    e = can_enable(event)
    controllers = profile.controllers(event)
    return [Know(i, Implies(Var(legal(event)), Know(j, e)))
            for i in controllers for j in controllers]


def _split(profile: SupervisionProfile, event: str) -> list[Formula]:
    """Per-pair variant over distinct supervisor pairs.

    Equivalent to the coupled form when at least two supervisors control the
    event; single-controller events fall back to the coupled form.
    """
    controllers = profile.controllers(event)
    if len(controllers) < 2:
        return _coupled(profile, event)
    e, d = can_enable(event), can_disable(event)
    return [or_all([Know(i, e), Know(i, d),
                    Know(i, Implies(Var(legal(event)), Know(j, e)))])
            for i in controllers for j in controllers if i != j]


def _veto(profile: SupervisionProfile, event: str) -> list[Formula]:
    """Someone knows the event can be disabled."""
    return [Know(i, can_disable(event)) for i in profile.controllers(event)]


def _approve(profile: SupervisionProfile, event: str) -> list[Formula]:
    """Someone knows the event can be enabled."""
    return [Know(i, can_enable(event)) for i in profile.controllers(event)]


# ---------------------------------------------------------------------------
# The condition table

WorldDomain = Literal["legal", "all"]
EventDomain = Literal["controllable", "uncontrollable", "all"]

#: Where each default action cannot violate the requirement.
_SAFE: dict[FusedDecision, Callable[[str], Formula]] = {ENABLE: can_enable,
                                                        DISABLE: can_disable}


@dataclass(frozen=True)
class Condition:
    """One row of the condition table.

    A condition holds when, for every event of the event domain, every world
    of the world domain is covered by one of the ``covered(profile, event)``
    formulas, read under the relation, or lies where one default action is
    safe: the first entry of ``defaults`` that is safe at every uncovered
    world becomes the event's default.  The first entry of ``relations`` and
    of ``worlds`` is the default; the others are what a caller may ask for
    instead.
    """

    verdict: str
    covered: Callable[[SupervisionProfile, str], Sequence[Formula]]
    defaults: tuple[FusedDecision, ...] = (ENABLE,)
    relations: tuple[Relation, ...] = ("partial",)
    worlds: tuple[WorldDomain, ...] = ("legal",)
    events: EventDomain = "controllable"

    def domains(self, name: str, relation: Relation | None = None,
                worlds: WorldDomain | None = None) -> tuple[Relation, WorldDomain]:
        """Fill in the default relation and world domain; refuse others."""
        relation = relation or self.relations[0]
        worlds = worlds or self.worlds[0]
        if relation not in self.relations:
            raise ModelError(f"{name} is defined over the {self.relations[0]} relations")
        if worlds not in self.worlds:
            raise ModelError(f"{name} quantifies over {self.worlds[0]} worlds only")
        return relation, worlds


#: Controllability (nothing covers an uncontrollable event, so it must be
#: safe to enable); the observability family from weakest (extended, which
#: picks either default per event) to the corrected condition and its split
#: form; the published legacy form, which reads the total relations over
#: all worlds; and the co-observability variants, which restrict the
#: decision set (``cp``: vote off or abstain, default enable; ``da``: the
#: mirror image) and, when strong, read the total relations.
CONDITIONS: dict[str, Condition] = {
    "controllability": Condition("controllability", lambda profile, ev: (),
                                 events="uncontrollable"),
    "extended": Condition("extended", _extended_lines, (ENABLE, DISABLE)),
    "corrected": Condition("corrected", _coupled),
    "split": Condition("corrected-split", _split),
    "legacy": Condition("legacy", _coupled, relations=("total", "partial"),
                        worlds=("all", "legal")),
    "cp": Condition("cp", _veto),
    "da": Condition("da", _approve, (DISABLE,)),
    "strong_cp": Condition("strong_cp", _veto, relations=("total",)),
    "strong_da": Condition("strong_da", _approve, (DISABLE,), ("total",)),
}


def check(frame: KripkeFrame, model: PlantSpec, profile: SupervisionProfile,
          which: str, relation: Relation | None = None,
          worlds: WorldDomain | None = None,
          events: EventDomain | None = None) -> Verdict:
    """Decide the condition ``which`` (a key of :data:`CONDITIONS`).

    ``relation`` and ``worlds`` default to the row's first entries and must
    be among them; ``events`` overrides the row's event domain.  Running
    ``legacy`` with the partial relation over legal worlds and all events
    gives exactly controllability plus the corrected condition, which is how
    the separation theorem is exercised.
    """
    row = CONDITIONS.get(which)
    if row is None:
        raise ModelError(f"unknown condition {which!r}")
    relation, worlds = row.domains(which, relation, worlds)
    pool = {"controllable": profile.sigma_c, "all": model.events,
            "uncontrollable": model.events - profile.sigma_c}.get(events or row.events)
    if pool is None:
        raise ModelError(f"unknown event domain {events!r}")
    domain = frame.legal_bits if worlds == "legal" else frame.all_bits
    chosen: dict[str, FusedDecision] = {}
    for ev in sorted(pool):
        uncovered = domain
        for phi in row.covered(profile, ev):
            uncovered &= ~frame.truth_set(phi, relation)
        failed = []
        for default in row.defaults:
            bad = uncovered & ~frame.truth_set(_SAFE[default](ev), relation)
            if not bad:
                chosen[ev] = default
                break
            failed.append(bad)
        else:
            return Verdict(row.verdict, False,
                           counterexample=_counterexample(frame, ev, failed))
    return Verdict(row.verdict, True,
                   defaults={ev: chosen.get(ev, row.defaults[0])
                             for ev in sorted(profile.sigma_c)})
