"""Knowledge-based control policy, supervisors, and the closed loop.

The policy is coupled line by line to the extended observability condition:
each decision a supervisor can issue corresponds to one knowledge line, so
whenever the condition holds the fused decisions come out right by the same
case analysis that proves the condition sufficient.

A supervisor is a Moore machine: its observer automaton plus a decision
table over (estimate, controlled event).  Decisions therefore depend only on
what the supervisor has observed, which is what feasibility and validity
demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .automata import (Automaton, EquivalenceVerdict, PlantSpec,
                       SupervisionProfile, dfa_equivalent, legal_automaton)
from .conditions import check, default_frame, knowledge_lines
from .errors import (ModelError, NotControllable, NotInferenceObservable,
                     PolicyAmbiguity)
from .fusion import ABSTAIN, ENABLE, OFF, ON, WOFF, WON, ControlDecision, \
    FusedDecision, fuse
from .kripke import KripkeFrame
from .observation import Estimate, Observer, World, compose


class PolicyCase(Enum):
    """Which line of the policy produced a decision; powers explanations."""

    KNOWS_ENABLE = "knows-enable"          # certain the event may occur
    KNOWS_DISABLE = "knows-disable"        # certain it must not
    BET_ENABLE = "bet-enable"              # won: others would veto a mistake
    BET_DISABLE = "bet-disable"            # woff: others would approve a mistake
    DEFERS = "defers"                      # others already cover both outcomes
    DONT_KNOW = "dont-know"                # no knowledge line available
    VACUOUS = "vacuous"                    # event impossible across the class

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Supervisor:
    """Moore-machine supervisor: observer plus decision table.

    The table is total on the observer's reachable estimates crossed with the
    supervisor's controlled events.
    """

    observer: Observer
    table: Mapping[tuple[Estimate, str], ControlDecision]

    @property
    def index(self) -> int:
        return self.observer.supervisor

    def decide(self, estimate: Estimate, event: str) -> ControlDecision:
        try:
            return self.table[(estimate, event)]
        except KeyError:
            raise ModelError(
                f"supervisor {self.index + 1} has no decision for event {event!r}"
                f" at estimate {sorted(estimate)}"
            ) from None


@dataclass(frozen=True)
class SynthesisResult:
    """Supervisors, the default partition, and per-entry provenance."""

    supervisors: tuple[Supervisor, ...]
    defaults: Mapping[str, FusedDecision]
    provenance: Mapping[tuple[int, Estimate, str], PolicyCase]
    frame: KripkeFrame | None = field(default=None, compare=False, repr=False)

    def require_fits(self, profile: SupervisionProfile) -> None:
        """Raise :class:`ModelError` unless there is one supervisor per
        profile entry and a default for every controlled event."""
        if len(self.supervisors) != profile.n:
            raise ModelError("one supervisor per profile entry is required")
        missing = profile.sigma_c - self.defaults.keys()
        if missing:
            raise ModelError("no default for controlled events: "
                             + ", ".join(sorted(missing)))


def policy_truths(frame: KripkeFrame, w: World, event: str, i: int) -> tuple[bool, bool, bool, bool]:
    """The four knowledge values the policy reads, in table order."""
    return tuple(frame.eval(w, line)
                 for line in knowledge_lines(frame.profile, event, i))


def kp_case(frame: KripkeFrame, w: World, event: str, i: int) -> tuple[ControlDecision, PolicyCase]:
    """The knowledge-based control policy, with the case that fired."""
    ke, kd, kce, kcd = policy_truths(frame, w, event, i)
    if ke and not kd:
        return ON, PolicyCase.KNOWS_ENABLE
    if kd and not ke:
        return OFF, PolicyCase.KNOWS_DISABLE
    if ke and kd:
        # Knowing both means the event is impossible throughout the class
        # (or the class is empty); no decision is owed.
        return ABSTAIN, PolicyCase.VACUOUS
    if not kce and kcd:
        return WON, PolicyCase.BET_ENABLE
    if kce and not kcd:
        return WOFF, PolicyCase.BET_DISABLE
    if kce and kcd:
        return ABSTAIN, PolicyCase.DEFERS
    return ABSTAIN, PolicyCase.DONT_KNOW


def kp(frame: KripkeFrame, w: World, event: str, i: int) -> ControlDecision:
    if event not in frame.profile.controllable[i]:
        raise ModelError(
            f"supervisor {i + 1} does not control event {event!r}")
    return kp_case(frame, w, event, i)[0]


def project_policy(frame: KripkeFrame, i: int, event: str
                   ) -> dict[Estimate, tuple[ControlDecision, PolicyCase]]:
    """Push the world-level policy down onto observer estimates.

    The policy depends only on knowledge, and knowledge is constant across an
    accessibility class, so all legal worlds sharing an estimate must agree;
    disagreement raises :class:`PolicyAmbiguity` and would mean a bug.
    Estimates reached only by illegal words get the abstain the policy
    produces at such worlds.
    """
    table: dict[Estimate, tuple[ControlDecision, PolicyCase]] = {}
    fallback: dict[Estimate, tuple[ControlDecision, PolicyCase]] = {}
    for w in frame.worlds:
        est = w.estimates[i]
        decision, case = kp_case(frame, w, event, i)
        if not frame.world_legal(w):
            fallback.setdefault(est, (decision, case))
            continue
        known = table.get(est)
        if known is None:
            table[est] = (decision, case)
        elif known[0] is not decision:
            raise PolicyAmbiguity(
                f"estimate {sorted(est)} of supervisor {i + 1} maps to both "
                f"{known[0]} and {decision} for event {event!r}"
            )
    for est, entry in fallback.items():
        table.setdefault(est, entry)
    return table


def synthesize(model: PlantSpec, profile: SupervisionProfile,
               frame: KripkeFrame | None = None) -> SynthesisResult:
    """Check the two conditions, then read the supervisors off the policy.

    Raises :class:`NotControllable` or :class:`NotInferenceObservable` with
    the failing verdict attached.
    """
    if frame is None:
        frame = default_frame(model, profile)
    controllability = check(frame, model, profile, "controllability")
    if not controllability.holds:
        raise NotControllable(controllability)
    observability = check(frame, model, profile, "extended")
    if not observability.holds:
        raise NotInferenceObservable(observability)
    supervisors = []
    provenance: dict[tuple[int, Estimate, str], PolicyCase] = {}
    for i in range(profile.n):
        table: dict[tuple[Estimate, str], ControlDecision] = {}
        for ev in sorted(profile.controllable[i]):
            for est, (decision, case) in project_policy(frame, i, ev).items():
                table[(est, ev)] = decision
                provenance[(i, est, ev)] = case
        supervisors.append(Supervisor(frame.composite.observers[i], table))
    assert observability.defaults is not None
    return SynthesisResult(tuple(supervisors), dict(observability.defaults),
                           provenance, frame)


def closed_loop(model: PlantSpec, profile: SupervisionProfile,
                result: SynthesisResult) -> Automaton:
    """The plant under joint supervision.

    Walks the plant/observer product; an uncontrollable event follows the
    plant whenever physically possible, a controlled event additionally needs
    the fused decision of its controllers to be enable.  Fusion errors
    propagate; they are unreachable for synthesized supervisors.
    """
    result.require_fits(profile)

    def enabled(world: World, ev: str) -> bool:
        bag = [result.supervisors[i].decide(world.estimates[i], ev)
               for i in profile.controllers(ev)]
        return not bag or fuse(bag, result.defaults[ev]) is ENABLE

    return compose(model, [s.observer for s in result.supervisors],
                   enabled).automaton()


def verify_solution(model: PlantSpec, profile: SupervisionProfile,
                    result: SynthesisResult) -> EquivalenceVerdict:
    """Compare the closed loop against the legal subautomaton."""
    return dfa_equivalent(closed_loop(model, profile, result),
                          legal_automaton(model))
