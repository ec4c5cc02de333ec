"""Structured per-decision explanations for the simulator and reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ModelError
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
    class_members: tuple[World, ...]
    truths: tuple[bool, bool, bool, bool]
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

    def lines(self) -> list[str]:
        """Render for terminals; one block per supervisor."""
        if not self.controllable:
            return [f"event {self.event}: uncontrollable; always allowed when possible"]
        out = [f"event {self.event}: controllable by "
               + ", ".join(str(v.supervisor + 1) for v in self.views)]
        for v in self.views:
            members = ", ".join(w.pretty() for w in v.class_members) or "(none)"
            out.append(f"  supervisor {v.supervisor + 1}: estimate "
                       "{" + ",".join(sorted(v.estimate)) + "}")
            out.append(f"    considers possible: {members}")
            for label, value in zip(_TRUTH_LABELS, v.truths):
                out.append(f"    {label}: {'yes' if value else 'no'}")
            origin = v.case.value if v.case is not None else "from table"
            out.append(f"    decision: {v.decision} ({origin})")
        bag = ", ".join(str(v.decision) for v in self.views)
        out.append(f"  fused({bag}) with default {self.default} -> {self.fused}")
        return out


def explain(frame: KripkeFrame, result: SynthesisResult, k: int, event: str,
            estimates: Sequence[int]) -> Explanation:
    """Explain the fused decision for ``event`` at world number ``k``, where
    supervisor i's own observer is at estimate id ``estimates[i]``.

    The knowledge truths always come from the policy at world ``k``; the
    decision shown is the supervisor table's entry at its own estimate where
    one resolves (it can differ from the policy only for hand-edited files),
    so the fused value matches what the closed loop would do.
    """
    w = frame.composite.world(k)
    controllers = frame.profile.controllers(event)
    if not controllers:
        return Explanation(event, w, controllable=False)
    views = []
    for i in controllers:
        truths = policy_truths(frame, k, event, i)
        policy_decision, case = kp_case(*truths)
        supervisor = result.supervisors[i]
        try:
            decision = supervisor.decide(estimates[i], event)
        except ModelError:
            decision = policy_decision
        views.append(SupervisorView(
            supervisor=i,
            estimate=supervisor.observer.states[estimates[i]],
            class_members=tuple(map(frame.composite.world,
                                    frame.class_of(k, i, "partial"))),
            truths=truths,
            decision=decision,
            case=case if decision is policy_decision else None,
        ))
    fused = fuse([v.decision for v in views], result.defaults[event])
    return Explanation(event, w, True, tuple(views), fused,
                       result.defaults[event])
