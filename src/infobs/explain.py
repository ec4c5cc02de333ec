"""Structured per-decision explanations for the simulator and reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fusion import ControlDecision, FusedDecision, fuse
from .kripke import KripkeFrame
from .observation import World
from .synthesis import PolicyCase, SynthesisResult, kp_case, policy_truths

_TRUTH_LABELS = ("knows can-enable", "knows can-disable",
                 "knows others cover enabling", "knows others cover disabling")


@dataclass(frozen=True)
class SupervisorView:
    supervisor: int                     # 0-based
    estimate: frozenset[str]
    class_members: tuple[World, ...] | None    # None off the frame
    truths: tuple[bool, bool, bool, bool] | None  # None off the frame
    decision: ControlDecision
    case: PolicyCase | None             # None when a table overrides the policy


@dataclass(frozen=True)
class Explanation:
    event: str
    world: World
    controllable: bool
    views: tuple[SupervisorView, ...] = ()
    fused: FusedDecision | None = None
    default: FusedDecision | None = None
    in_frame: bool = True               # some frame world equals ``world``

    def lines(self) -> list[str]:
        """Render for terminals; one block per supervisor."""
        if not self.controllable:
            return [f"event {self.event}: uncontrollable; always allowed when possible"]
        out = [f"event {self.event}: controllable by "
               + ", ".join(str(v.supervisor + 1) for v in self.views)]
        if not self.in_frame:
            out.append("  an observer has left the projection: no world is "
                       + self.world.pretty())
        for v in self.views:
            out.append(f"  supervisor {v.supervisor + 1}: estimate "
                       "{" + ",".join(sorted(v.estimate)) + "}")
            if self.in_frame:
                members = ", ".join(w.pretty() for w in v.class_members) or "(none)"
                out.append(f"    considers possible: {members}")
                for label, value in zip(_TRUTH_LABELS, v.truths):
                    out.append(f"    {label}: {'yes' if value else 'no'}")
            origin = v.case.value if v.case is not None else "from table"
            out.append(f"    decision: {v.decision} ({origin})")
        bag = ", ".join(str(v.decision) for v in self.views)
        out.append(f"  fused({bag}) with default {self.default} -> {self.fused}")
        return out


def explain(frame: KripkeFrame, result: SynthesisResult, plant: str, event: str,
            estimates: Sequence[int]) -> Explanation:
    """Explain the fused decision for ``event`` with the plant at ``plant``
    and supervisor i's own observer at estimate id ``estimates[i]``.

    Each decision is the supervisor table's entry at its own estimate, so the
    fused value is the one the simulator applies, and a missing entry raises
    the same :class:`ModelError`.  The class and the knowledge truths are read
    at the frame world equal to ``World(plant, estimates)``, matched by
    estimate sets because a reloaded supervisor may number its estimates
    differently.  A hand-edited observer can reach a world the frame does
    not have; then only the decisions are shown.
    """
    supervisors = result.supervisors
    w = World(plant, tuple(s.observer.states[e] for s, e in zip(supervisors, estimates)))
    controllers = frame.profile.controllers(event)
    if not controllers:
        return Explanation(event, w, controllable=False)
    k = next((j for j, v in enumerate(frame.worlds) if v == w), None)
    views = []
    for i in controllers:
        decision = supervisors[i].decide(estimates[i], event)
        members = truths = case = None
        if k is not None:
            members = tuple(map(frame.composite.world, frame.class_of(k, i, "partial")))
            truths = policy_truths(frame, k, event, i)
            policy_decision, case = kp_case(*truths)
            case = case if decision is policy_decision else None
        views.append(SupervisorView(i, w.estimates[i], members, truths, decision, case))
    fused = fuse([v.decision for v in views], result.defaults[event])
    return Explanation(event, w, True, tuple(views), fused,
                       result.defaults[event], in_frame=k is not None)
