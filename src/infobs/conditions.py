"""Controllability and the family of epistemic observability conditions.

All checkers share a vocabulary of event-indexed shorthand formulas:

* ``can_enable``   -- enabling the event here cannot violate the requirement;
* ``can_disable``  -- disabling it here cannot violate the requirement;
* ``must_enable``  -- the requirement demands the event be enabled here;
* ``must_disable`` -- it is physically possible but forbidden here.

``must_disable`` is exactly the negation of ``can_enable`` conjoined with
physical possibility, and ``must_enable`` implies possibility, both by
construction of the valuation.

The checkers differ in which knowledge lines they accept, which accessibility
relation they read, and which worlds and events they quantify over.  Verdicts
carry a per-event default partition when they hold and a deterministic
counterexample (shortest witnessing word, ties lexicographic) when they fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping

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


def _uniform_defaults(profile: SupervisionProfile,
                      dft: FusedDecision) -> dict[str, FusedDecision]:
    return {ev: dft for ev in sorted(profile.sigma_c)}


def _counterexample(frame: KripkeFrame, event: str, bad: int) -> Counterexample:
    """The first world of the failing set ``bad``, in breadth-first order."""
    w = frame.first(bad)
    return Counterexample(event, w, frame.witness(w))


# ---------------------------------------------------------------------------
# Controllability

def check_controllability(model: PlantSpec, profile: SupervisionProfile,
                          frame: KripkeFrame | None = None) -> Verdict:
    """Uncontrollable events may never leave the legal behaviour.

    Holds iff every uncontrollable event that is physically possible at a
    legal world is also legal there.
    """
    if frame is None:
        frame = default_frame(model, profile)
    for ev in sorted(profile.sigma_uc(model.events)):
        bad = frame.legal_bits & ~frame.truth_set(can_enable(ev))
        if bad:
            return Verdict("controllability", False,
                           counterexample=_counterexample(frame, ev, bad))
    return Verdict("controllability", True,
                   defaults=_uniform_defaults(profile, ENABLE))


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
# Corrected two-supervisor-style condition (partial relations, legal worlds)

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


Shape = Literal["coupled", "split"]


def check_inf_obs_corrected(frame: KripkeFrame, model: PlantSpec,
                            profile: SupervisionProfile,
                            shape: Shape = "coupled") -> Verdict:
    """Inference-observability over partial relations and legal worlds."""
    name = f"corrected-{shape}" if shape != "coupled" else "corrected"
    builder = _coupled_formula if shape == "coupled" else _split_formula
    for ev in sorted(profile.sigma_c):
        bad = frame.legal_bits & ~frame.truth_set(builder(profile, ev), "partial", ev)
        if bad:
            return Verdict(name, False, counterexample=_counterexample(frame, ev, bad))
    return Verdict(name, True, defaults=_uniform_defaults(profile, ENABLE))


# ---------------------------------------------------------------------------
# Legacy condition (pre-correction form) with explicit quantification flags

WorldDomain = Literal["legal", "all"]
SigmaDomain = Literal["controllable", "all"]


def check_inf_obs_legacy(frame: KripkeFrame, model: PlantSpec,
                         profile: SupervisionProfile,
                         world_domain: WorldDomain = "all",
                         sigma_domain: SigmaDomain = "controllable",
                         relation: Relation = "total") -> Verdict:
    """The original formulation, quantifiers and relation exposed as flags.

    The published form reads the total relations and ranges over *all*
    reachable worlds, which demands correct decisions even after the system
    has left the legal behaviour.  Running it with the partial relation over
    legal worlds and ``sigma_domain="all"`` instead gives exactly
    controllability plus the corrected condition, which is how the
    separation theorem is exercised.
    """
    events = model.events if sigma_domain == "all" else profile.sigma_c
    domain = frame.legal_bits if world_domain == "legal" else frame.all_bits
    for ev in sorted(events):
        bad = domain & ~frame.truth_set(_coupled_formula(profile, ev), relation, ev)
        if bad:
            return Verdict("legacy", False,
                           counterexample=_counterexample(frame, ev, bad))
    return Verdict("legacy", True, defaults=_uniform_defaults(profile, ENABLE))


# ---------------------------------------------------------------------------
# Co-observability variants (restricted decision sets)

Variant = Literal["cp", "da", "strong_cp", "strong_da"]


def check_coobservability(frame: KripkeFrame, model: PlantSpec,
                          profile: SupervisionProfile,
                          variant: Variant) -> Verdict:
    """Veto-only and approve-only specializations.

    ``cp``: supervisors may only vote off or abstain, default enable, so
    wherever the event must stay disabled someone has to know it can be
    disabled.  ``da`` is the mirror image (votes on/abstain, default
    disable).  The strong variants read the total relations instead of the
    partial ones.
    """
    if variant not in ("cp", "da", "strong_cp", "strong_da"):
        raise ModelError(f"unknown co-observability variant {variant!r}")
    relation: Relation = "total" if variant.startswith("strong") else "partial"
    veto_style = variant.endswith("cp")
    dft = ENABLE if veto_style else DISABLE
    for ev in sorted(profile.sigma_c):
        if veto_style:
            phi = Or(SomeoneKnows(can_disable(ev)), can_enable(ev))
        else:
            phi = Or(SomeoneKnows(can_enable(ev)), can_disable(ev))
        bad = frame.legal_bits & ~frame.truth_set(phi, relation, ev)
        if bad:
            return Verdict(variant, False,
                           counterexample=_counterexample(frame, ev, bad))
    return Verdict(variant, True, defaults=_uniform_defaults(profile, dft))
