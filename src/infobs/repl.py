"""Interactive event-stepping loop with per-decision explanations."""

from __future__ import annotations

from typing import IO

from .automata import PlantSpec, SupervisionProfile, format_word
from .errors import ModelError
from .explain import explain
from .fusion import DISABLE, ENABLE, OFF, WOFF, fuse
from .kripke import KripkeFrame
from .synthesis import SynthesisResult

_HELP = """commands:
  events          list events with their current status
  step <event>    advance the plant by one enabled event
  why <event>     explain every supervisor's decision for the event
  estimates       show each supervisor's current state estimate
  reset           return to the initial state
  help            this text
  quit            leave the simulator"""


class Simulator:
    """Tracks the plant state, each supervisor's own estimate id, and the word so far."""

    def __init__(self, model: PlantSpec, profile: SupervisionProfile,
                 result: SynthesisResult, frame: KripkeFrame):
        result.require_fits(profile)
        self.model = model
        self.profile = profile
        self.result = result
        self.frame = frame
        self.reset()

    def reset(self) -> None:
        self.word: tuple[str, ...] = ()
        self.plant = self.model.initial
        self.estimates = (0,) * len(self.result.supervisors)

    # -- queries -----------------------------------------------------------

    def fused(self, event: str):
        """Fused decision and the supervisors that force it, or None if
        the event is uncontrollable."""
        controllers = self.profile.controllers(event)
        if not controllers:
            return None, ()
        bag = {i: self.result.supervisors[i].decide(self.estimates[i], event)
               for i in controllers}
        fused = fuse(bag.values(), self.result.defaults[event])
        if fused is ENABLE:
            return fused, ()
        blockers = tuple(i for i, d in bag.items() if d is OFF)
        if not blockers:
            blockers = tuple(i for i, d in bag.items() if d is WOFF)
        return fused, blockers

    # -- commands ----------------------------------------------------------

    def describe_events(self) -> list[str]:
        out = []
        for ev in sorted(self.model.events):
            possible = self.plant in self.model.successors[ev]
            bits = ["possible" if possible else "not possible"]
            try:
                fused, blockers = self.fused(ev)
            except ModelError as exc:  # reported on this event's line only
                out.append(f"{ev}: {bits[0]}; error: {exc}")
                continue
            if fused is None:
                bits.append("uncontrollable")
                verdict = "allowed" if possible else "-"
            else:
                who = (" (" + ", ".join(f"supervisor {i + 1}" for i in blockers) + ")"
                       if blockers else
                       (" (default)" if fused is DISABLE else ""))
                bits.append(f"fused {fused}{who}")
                verdict = ("allowed" if fused is ENABLE else "blocked") if possible else "-"
            out.append(f"{ev}: " + "; ".join(bits) + f"; {verdict}")
        return out

    def step(self, event: str) -> list[str]:
        if event not in self.model.events:
            return [f"unknown event {event!r}"]
        if self.plant not in self.model.successors[event]:
            return [f"{event} is not possible at {self.plant}"]
        fused, blockers = self.fused(event)
        if fused is DISABLE:
            who = (", ".join(f"supervisor {i + 1}" for i in blockers)
                   or "the default action")
            return [f"refused: {event} is disabled by {who}"]
        # A supervisor that cannot follow the event raises before any of
        # the state moves.
        self.estimates = tuple(
            s.observer.step(est, event)
            for s, est in zip(self.result.supervisors, self.estimates))
        self.word += (event,)
        self.plant = self.model.successors[event][self.plant]
        return [f"stepped on {event}; word so far: {format_word(self.word)}",
                f"plant state: {self.plant}"]

    def why(self, event: str) -> list[str]:
        if event not in self.model.events:
            return [f"unknown event {event!r}"]
        return explain(self.frame, self.result, self.plant, event,
                       self.estimates).lines()

    def describe_estimates(self) -> list[str]:
        return [f"supervisor {s.index + 1}: " + "{" + ",".join(sorted(s.observer.states[k])) + "}"
                for s, k in zip(self.result.supervisors, self.estimates)]


def run_simulation(model: PlantSpec, profile: SupervisionProfile,
                   result: SynthesisResult, frame: KripkeFrame,
                   lines: IO[str], out: IO[str]) -> None:
    sim = Simulator(model, profile, result, frame)
    print(f"simulating {len(model.states)} states, {profile.n} supervisors;"
          " type 'help' for commands", file=out)
    for raw in lines:
        tokens = raw.strip().split()
        if not tokens:
            continue
        command, args = tokens[0], tokens[1:]
        try:
            if command == "quit":
                break
            elif command == "help":
                print(_HELP, file=out)
            elif command == "events":
                _emit(out, sim.describe_events())
            elif command == "step" and len(args) == 1:
                _emit(out, sim.step(args[0]))
            elif command == "why" and len(args) == 1:
                _emit(out, sim.why(args[0]))
            elif command == "estimates":
                _emit(out, sim.describe_estimates())
            elif command == "reset":
                sim.reset()
                print("back to the initial state", file=out)
            else:
                print(f"unrecognized command {raw.strip()!r}; type 'help'", file=out)
        except ModelError as exc:
            print(f"error: {exc}", file=out)
    print("bye", file=out)


def _emit(out: IO[str], lines: list[str]) -> None:
    for line in lines:
        print(line, file=out)
