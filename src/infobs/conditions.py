"""Controllability and the family of epistemic observability conditions.

All checkers share a vocabulary of event-indexed shorthand formulas:

* ``can_enable``   -- enabling the event here cannot violate the requirement;
* ``can_disable``  -- disabling it here cannot violate the requirement;
* ``must_enable``  -- the requirement demands the event be enabled here;
* ``must_disable`` -- it is physically possible but forbidden here.

``must_disable`` is exactly the negation of ``can_enable`` conjoined with
physical possibility, and ``must_enable`` implies possibility, both by
construction of the valuation.

The conditions differ in which knowledge lines they accept, which
accessibility relation they read, and which worlds and events they quantify
over; :data:`CONDITIONS` records these facts once per condition.  Verdicts
carry a per-event default partition when they hold and a deterministic
counterexample (shortest witnessing word, ties lexicographic) when they fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Mapping

from .automata import PlantSpec, SupervisionProfile, Word
from .errors import ModelError
from .fusion import DISABLE, ENABLE, FusedDecision
from .kripke import (Formula, Implies, Know, KripkeFrame, Not, Or, OtherKnows,
                     Relation, SomeoneKnows, Var, build_frame, legal, or_all,
                     possible)
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
    word.  The extended checker reports a *pair* of uncovered worlds whose
    requirements pull the event's default in opposite directions; the world
    that must keep the event enabled is primary and the one that must keep it
    disabled lands in ``conflict_world``/``conflict_string``.
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
    controlled event to its default action; only the extended checker
    computes a non-trivial partition, the others fill in their fixed
    default.  ``counterexample`` is present exactly when the check fails.
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


def _counterexample(frame: KripkeFrame, event: str, bad: int) -> Counterexample:
    """The first world of the failing set ``bad``, in breadth-first order."""
    w = frame.first(bad)
    return Counterexample(event, w, frame.witness(w))


# ---------------------------------------------------------------------------
# Extended inference-observability (arbitrarily many supervisors,
# five-valued decisions, per-event default)

def _extended_lines(profile: SupervisionProfile, event: str) -> list[Formula]:
    e, d = can_enable(event), can_disable(event)
    ebar, dbar = must_enable(event), must_disable(event)
    controllers = profile.controllers(event)
    return [
        SomeoneKnows(e),
        SomeoneKnows(d),
        or_all(Know(i, Implies(ebar, OtherKnows(i, e))) for i in controllers),
        or_all(Know(i, Implies(dbar, OtherKnows(i, d))) for i in controllers),
    ]


def check_inf_obs_extended(frame: KripkeFrame, model: PlantSpec,
                           profile: SupervisionProfile,
                           frozen_defaults: Mapping[str, FusedDecision] | None = None,
                           ) -> Verdict:
    """The weakest condition of the family.

    For each controlled event, collect the legal worlds where all four
    knowledge lines fail (there every supervisor abstains).  The event passes
    when those uncovered worlds agree on a default: none of them forbids the
    event (default enable) or none of them requires it (default disable).
    With no uncovered world either default works and enable is chosen.

    ``frozen_defaults`` re-checks against a fixed partition instead of
    choosing one.
    """
    defaults: dict[str, FusedDecision] = {}
    for ev in sorted(profile.sigma_c):
        covered = 0
        for line in _extended_lines(profile, ev):
            covered |= frame.truth_set(line, "partial", ev)
        uncovered = frame.legal_bits & ~covered
        # Outside ``d`` the requirement needs the event enabled, outside
        # ``e`` it needs it disabled.
        needs_enable = uncovered & ~frame.truth_set(can_disable(ev), "partial", ev)
        needs_disable = uncovered & ~frame.truth_set(can_enable(ev), "partial", ev)
        if needs_enable and needs_disable:
            w, v = frame.first(needs_enable), frame.first(needs_disable)
            ce = Counterexample(ev, w, frame.witness(w), v, frame.witness(v))
            return Verdict("extended", False, counterexample=ce)
        if frozen_defaults is not None:
            chosen = frozen_defaults[ev]
            bad = needs_disable if chosen is ENABLE else needs_enable
            if bad:
                return Verdict("extended", False,
                               counterexample=_counterexample(frame, ev, bad))
            defaults[ev] = chosen
        else:
            defaults[ev] = DISABLE if needs_disable else ENABLE
    return Verdict("extended", True, defaults=defaults)


# ---------------------------------------------------------------------------
# Requirement formulas of the other conditions

def _coupled_formula(profile: SupervisionProfile, event: str) -> Formula:
    """One supervisor can certify another's knowledge, or enabling is safe."""
    e = can_enable(event)
    controllers = profile.controllers(event)
    modal = or_all(Know(i, Implies(Var(legal(event)), Know(j, e)))
                   for i in controllers for j in controllers)
    return Or(modal, e)


def _split_formula(profile: SupervisionProfile, event: str) -> Formula:
    """Four-line variant with distinct supervisor pairs.

    Equivalent to the coupled form when at least two supervisors control the
    event; single-controller events fall back to the coupled form.
    """
    controllers = profile.controllers(event)
    if len(controllers) < 2:
        return _coupled_formula(profile, event)
    e, d = can_enable(event), can_disable(event)
    parts = []
    for i in controllers:
        for j in controllers:
            if i == j:
                continue
            parts.append(or_all([
                Know(i, e),
                Know(i, d),
                Know(i, Implies(Var(legal(event)), Know(j, e))),
            ]))
    return Or(or_all(parts), e)


def _veto(profile: SupervisionProfile, event: str) -> Formula:
    """Wherever the event must stay disabled, someone knows it can be."""
    return Or(SomeoneKnows(can_disable(event)), can_enable(event))


def _approve(profile: SupervisionProfile, event: str) -> Formula:
    """Wherever the event must stay enabled, someone knows it can be."""
    return Or(SomeoneKnows(can_enable(event)), can_disable(event))


# ---------------------------------------------------------------------------
# The condition table

WorldDomain = Literal["legal", "all"]
EventDomain = Literal["controllable", "uncontrollable", "all"]


@dataclass(frozen=True)
class Condition:
    """One row of the condition table.

    A condition holds when ``requirement(profile, event)`` is true at every
    world of the world domain, for every event of the event domain, read
    under the relation.  The first entry of ``relations`` and of ``worlds``
    is the default; the others are what a caller may ask for instead.  When
    the condition holds every controlled event gets ``default``.  The
    extended condition has no requirement: it chooses its defaults per event
    and is decided by :func:`check_inf_obs_extended`.
    """

    verdict: str
    requirement: Callable[[SupervisionProfile, str], Formula] | None
    relations: tuple[Relation, ...] = ("partial",)
    worlds: tuple[WorldDomain, ...] = ("legal",)
    events: EventDomain = "controllable"
    default: FusedDecision = ENABLE

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


#: Controllability; the observability family from weakest (extended) to the
#: corrected condition and its split form; the published legacy form, which
#: reads the total relations over all worlds; and the co-observability
#: variants, which restrict the decision set (``cp``: vote off or abstain,
#: default enable; ``da``: the mirror image) and, when strong, read the
#: total relations.
CONDITIONS: dict[str, Condition] = {
    "controllability": Condition("controllability",
                                 lambda profile, ev: can_enable(ev),
                                 events="uncontrollable"),
    "extended": Condition("extended", None),
    "corrected": Condition("corrected", _coupled_formula),
    "split": Condition("corrected-split", _split_formula),
    "legacy": Condition("legacy", _coupled_formula, ("total", "partial"),
                        ("all", "legal")),
    "cp": Condition("cp", _veto),
    "da": Condition("da", _approve, default=DISABLE),
    "strong_cp": Condition("strong_cp", _veto, ("total",)),
    "strong_da": Condition("strong_da", _approve, ("total",), default=DISABLE),
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
    if row.requirement is None:
        return check_inf_obs_extended(frame, model, profile)
    pool = {"controllable": profile.sigma_c, "all": model.events,
            "uncontrollable": profile.sigma_uc(model.events)}.get(events or row.events)
    if pool is None:
        raise ModelError(f"unknown event domain {events!r}")
    domain = frame.legal_bits if worlds == "legal" else frame.all_bits
    for ev in sorted(pool):
        bad = domain & ~frame.truth_set(row.requirement(profile, ev), relation, ev)
        if bad:
            return Verdict(row.verdict, False,
                           counterexample=_counterexample(frame, ev, bad))
    return Verdict(row.verdict, True,
                   defaults={ev: row.default for ev in sorted(profile.sigma_c)})


def check_controllability(model: PlantSpec, profile: SupervisionProfile,
                          frame: KripkeFrame | None = None) -> Verdict:
    """Uncontrollable events may never leave the legal behaviour.

    Holds iff every uncontrollable event that is physically possible at a
    legal world is also legal there.
    """
    if frame is None:
        frame = default_frame(model, profile)
    return check(frame, model, profile, "controllability")
