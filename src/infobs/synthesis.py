"""Knowledge-based control policy, supervisors, and the closed loop.

The policy is coupled line by line to the extended observability condition:
each decision a supervisor can issue corresponds to one knowledge line, so
whenever the condition holds the fused decisions come out right by the same
case analysis that proves the condition sufficient.

A supervisor is a Moore machine: its observer automaton plus a decision
table over (estimate id, controlled event).  Decisions therefore depend only on
what the supervisor has observed, which is what feasibility and validity
demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Mapping

from .automata import EquivalenceVerdict, PlantSpec, SupervisionProfile
from .conditions import check, default_frame, knowledge_lines
from .errors import (ModelError, NotControllable, NotInferenceObservable,
                     PolicyAmbiguity)
from .fusion import ABSTAIN, ENABLE, OFF, ON, WOFF, WON, ControlDecision, \
    FusedDecision, fuse
from .kripke import KripkeFrame
from .observation import Composite, Observer, compose


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

    The table is keyed by ``(estimate id, event)`` and is total on the
    observer's estimates crossed with the supervisor's controlled events.
    """

    observer: Observer
    table: Mapping[tuple[int, str], ControlDecision]

    @property
    def index(self) -> int:
        return self.observer.supervisor

    def decide(self, k: int, event: str) -> ControlDecision:
        """The decision for ``event`` at estimate id ``k``."""
        try:
            return self.table[(k, event)]
        except KeyError:
            raise ModelError(
                f"supervisor {self.index + 1} has no decision for event {event!r}"
                f" at estimate {sorted(self.observer.states[k])}"
            ) from None


@dataclass(frozen=True)
class SynthesisResult:
    """Supervisors, the default partition, and per-entry provenance keyed
    by ``(supervisor, estimate id, event)``."""

    supervisors: tuple[Supervisor, ...]
    defaults: Mapping[str, FusedDecision]
    provenance: Mapping[tuple[int, int, str], PolicyCase]

    def require_fits(self, profile: SupervisionProfile) -> None:
        """Raise :class:`ModelError` unless there is one supervisor per
        profile entry, each observing only events the profile lets it see
        and deciding only events it controls, and a default for exactly the
        controlled events."""
        if len(self.supervisors) != profile.n:
            raise ModelError("one supervisor per profile entry is required")
        for i, s in enumerate(self.supervisors):
            if hidden := s.observer.observable - profile.observable[i]:
                raise ModelError(f"supervisor {i + 1} observes events hidden"
                                 " from it: " + ", ".join(sorted(hidden)))
            if foreign := {ev for _k, ev in s.table} - profile.controllable[i]:
                raise ModelError(f"supervisor {i + 1} decides events it does"
                                 " not control: " + ", ".join(sorted(map(str, foreign))))
        missing = profile.sigma_c - self.defaults.keys()
        if missing:
            raise ModelError("no default for controlled events: "
                             + ", ".join(sorted(missing)))
        if extra := self.defaults.keys() - profile.sigma_c:
            raise ModelError("defaults for events no supervisor controls: "
                             + ", ".join(sorted(extra)))


def policy_truths(frame: KripkeFrame, k: int, event: str, i: int) -> tuple[bool, bool, bool, bool]:
    """The four knowledge values the policy reads at world ``k``, in table order."""
    return tuple(frame.eval(k, line)
                 for line in knowledge_lines(frame.profile, event, i))


def kp_case(ke: bool, kd: bool, kce: bool, kcd: bool) -> tuple[ControlDecision, PolicyCase]:
    """The knowledge-based control policy on :func:`policy_truths`, with the case that fired."""
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


def project_policy(frame: KripkeFrame, i: int, event: str
                   ) -> dict[int, tuple[ControlDecision, PolicyCase]]:
    """Push the world-level policy down onto observer estimate ids.

    The policy depends only on knowledge, and knowledge is constant across an
    accessibility class, so all legal worlds sharing an estimate must agree;
    disagreement raises :class:`PolicyAmbiguity` and would mean a bug.
    Estimates reached only by illegal words get the abstain the policy
    produces at such worlds.
    """
    table: dict[int, tuple[ControlDecision, PolicyCase]] = {}
    fallback: dict[int, tuple[ControlDecision, PolicyCase]] = {}
    for k, e in enumerate(frame.composite.ids[i]):
        decision, case = kp_case(*policy_truths(frame, k, event, i))
        if not frame.legal_bits >> k & 1:
            fallback.setdefault(e, (decision, case))
            continue
        known = table.get(e)
        if known is None:
            table[e] = (decision, case)
        elif known[0] is not decision:
            raise PolicyAmbiguity(
                f"estimate {sorted(frame.composite.observers[i].states[e])} of"
                f" supervisor {i + 1} maps to both {known[0]} and {decision}"
                f" for event {event!r}"
            )
    return fallback | table


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
    provenance: dict[tuple[int, int, str], PolicyCase] = {}
    for i in range(profile.n):
        table: dict[tuple[int, str], ControlDecision] = {}
        for ev in sorted(profile.controllable[i]):
            for e, (decision, case) in project_policy(frame, i, ev).items():
                table[(e, ev)] = decision
                provenance[(i, e, ev)] = case
        supervisors.append(Supervisor(frame.composite.observers[i], table))
    assert observability.defaults is not None
    return SynthesisResult(tuple(supervisors), dict(observability.defaults),
                           provenance)


def closed_loop(model: PlantSpec, profile: SupervisionProfile,
                result: SynthesisResult) -> Composite:
    """The plant under joint supervision, as the composite of the plant with
    the supervisors' observers that keeps only the moves supervision allows.

    An uncontrollable event follows the plant whenever physically possible,
    a controlled event additionally needs the fused decision of its
    controllers to be enable.  That decision depends only on the event and
    the controllers' estimate ids, so it is fused once per id tuple, when
    the walk first asks for it.  Fusion errors propagate; they are
    unreachable for synthesized supervisors.
    """
    result.require_fits(profile)
    # Per controlled event: its controllers' ids in a walk key, and the
    # fused decision per tuple of those ids.
    tables = {ev: (itemgetter(*(i + 1 for i in profile.controllers(ev))), {})
              for ev in profile.sigma_c}

    def enabled(key: tuple, ev: str) -> bool:
        if ev not in tables:
            return True
        ids_of, table = tables[ev]
        ids = ids_of(key)
        allowed = table.get(ids)
        if allowed is None:
            bag = [result.supervisors[i].decide(key[i + 1], ev)
                   for i in profile.controllers(ev)]
            allowed = table[ids] = fuse(bag, result.defaults[ev]) is ENABLE
        return allowed

    return compose(model, [s.observer for s in result.supervisors], enabled)


def verify_solution(model: PlantSpec, profile: SupervisionProfile,
                    result: SynthesisResult) -> EquivalenceVerdict:
    """Compare the closed loop's language against the legal language.

    Both are generated by deterministic sub-automata of the plant from its
    initial state, so they are equal exactly when every world the closed loop
    reaches keeps precisely the plant's legal moves at its plant state.  The
    first world in walk order that does not, extended by its first differing
    event in name order, gives a shortest distinguishing word, ties broken
    lexicographically.
    """
    loop = closed_loop(model, profile, result)
    legal: dict[str, set[str]] = {q: set() for q in model.states}
    for ev, sources in model.legal_sources.items():
        for q in sources:
            legal[q].add(ev)
    kept: list[set[str]] = [set() for _ in loop.plants]
    moves = iter(loop.edges)
    for src, ev, _dst in zip(moves, moves, moves):
        kept[src].add(ev)
    for k, plant in enumerate(loop.plants):
        if differ := kept[k] ^ legal[plant]:
            return EquivalenceVerdict(False, loop.words[k] + (min(differ),))
    return EquivalenceVerdict(True)
