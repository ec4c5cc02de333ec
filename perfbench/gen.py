"""Seeded model generators for the benchmark workloads.

Uniformly random plants are useless at benchmark size: one observer of a
120-state random plant can reach about 10^5 estimates, so sizes cannot be
targeted.  The product workloads therefore use an interleaving product of
small seeded components over disjoint alphabets:

* every plant state is a tuple of local states, and every tuple is reachable;
* legality is a set of forbidden pairs of local states (two components in a
  given pair of local states is illegal); a transition is legal when both of
  its endpoints are;
* supervisor ``i`` observes every event of the components in its window and
  nothing else, and controls a seeded subset of those events.

Under these rules a supervisor's estimate is fixed by the local states of
the components it observes, so composite worlds are exactly plant states and
the accessibility class of a supervisor has the size of the product of the
components it does not observe.  That makes every rung's size predictable,
and it lets :mod:`reference` decide the conditions independently.

The tiny instances of the oracle sweep follow the package's own random
generator in distribution (coherent plants: legal subautomaton induced by
the legal states, absorbing illegal region), but are drawn here so that a
change to the package cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Model:
    """An explicit model as the benchmark writes it to a ``.des`` file."""

    n: int
    events: list[str]
    states: list[str]
    initial: str
    delta: dict[tuple[str, str], str]
    legal_states: set[str]
    legal_transitions: set[tuple[str, str]]
    observable: list[set[str]]
    controllable: list[set[str]]
    # Product models only: per supervisor the components it observes, and
    # each state's tuple of local states.
    windows: list[tuple[int, ...]] = field(default_factory=list)
    locals: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def to_des(self) -> str:
        lines = [f"supervisors {self.n}"]
        for ev in self.events:
            parts = [f"event {ev}"]
            obs = [str(i + 1) for i in range(self.n) if ev in self.observable[i]]
            ctrl = [str(i + 1) for i in range(self.n) if ev in self.controllable[i]]
            if obs:
                parts.append("obs=" + ",".join(obs))
            if ctrl:
                parts.append("ctrl=" + ",".join(ctrl))
            lines.append(" ".join(parts))
        for name in self.states:
            flags = (" init" if name == self.initial else "") + (
                " legal" if name in self.legal_states else "")
            lines.append(f"state {name}{flags}")
        for (src, ev), dst in self.delta.items():
            flag = " legal" if (src, ev) in self.legal_transitions else ""
            lines.append(f"trans {src} {ev} {dst}{flag}")
        return "\n".join(lines) + "\n"


def table_cells(model: Model) -> int:
    """Decision-table cells: reachable estimates times controlled events.

    ``oracle --mode search`` refuses instances above its cell bound, so the
    sweep issues it only where this count is within the bound.
    """
    cells = 0
    for obs, ctrl in zip(model.observable, model.controllable):
        hidden = [ev for ev in model.events if ev not in obs]

        def closure(seed):
            out, stack = set(seed), list(seed)
            while stack:
                q = stack.pop()
                for ev in hidden:
                    dst = model.delta.get((q, ev))
                    if dst is not None and dst not in out:
                        out.add(dst)
                        stack.append(dst)
            return frozenset(out)

        start = closure({model.initial})
        seen, stack = {start}, [start]
        while stack:
            est = stack.pop()
            for ev in obs:
                step = {model.delta[(q, ev)] for q in est if (q, ev) in model.delta}
                if step:
                    target = closure(step)
                    if target not in seen:
                        seen.add(target)
                        stack.append(target)
        cells += len(seen) * len(ctrl)
    return cells


def _component(rng: random.Random, size: int, n_events: int, extra: float
               ) -> dict[tuple[int, int], int]:
    """A deterministic component whose states are all reachable from 0."""
    delta: dict[tuple[int, int], int] = {}
    for k in range(1, size):
        while True:
            parent, ev = rng.randrange(k), rng.randrange(n_events)
            if (parent, ev) not in delta:
                delta[(parent, ev)] = k
                break
    free = [(q, ev) for q in range(size) for ev in range(n_events)
            if (q, ev) not in delta]
    for key in rng.sample(free, round(extra * len(free))):
        delta[key] = rng.randrange(size)
    return delta


#: Events per component, and the share of a component's free (state, event)
#: slots that get a transition beyond the spanning tree.
COMPONENT_EVENTS = 2
EXTRA_TRANSITIONS = 0.5


def product_model(rng: random.Random, sizes: list[int],
                  windows: list[tuple[int, ...]], n_forbidden: int,
                  ctrl_prob: float) -> Model:
    """Interleaving product of seeded components; see the module docstring.

    Forbidden pairs join two components that some supervisor observes
    together, and that supervisor controls every event of both, so the
    specification is controllable and a vetoing supervisor always exists:
    ``cp`` and every weaker condition hold, and synthesis succeeds.
    """
    m, n_events = len(sizes), COMPONENT_EVENTS
    comps = [_component(rng, s, n_events, EXTRA_TRANSITIONS) for s in sizes]
    names = [f"{chr(97 + c)}{j}" for c in range(m) for j in range(n_events)]
    event_component = {f"{chr(97 + c)}{j}": c
                       for c in range(m) for j in range(n_events)}

    forbidden: set[tuple[int, int, int, int]] = set()
    pairs = sorted({(c, d) for w in windows for c in w for d in w if c < d})
    while len(forbidden) < n_forbidden:
        c, d = rng.choice(pairs)
        a, b = rng.randrange(sizes[c]), rng.randrange(sizes[d])
        if (a, b) != (0, 0):
            forbidden.add((c, a, d, b))

    tuples = [()]
    for s in sizes:
        tuples = [t + (k,) for t in tuples for k in range(s)]
    name_of = {t: "s" + "".join(map(str, t)) for t in tuples}
    legal = {t for t in tuples
             if not any(t[c] == a and t[d] == b for c, a, d, b in forbidden)}

    delta: dict[tuple[str, str], str] = {}
    legal_transitions: set[tuple[str, str]] = set()
    for t in tuples:
        src = name_of[t]
        for c in range(m):
            for ev in range(n_events):
                nxt = comps[c].get((t[c], ev))
                if nxt is None:
                    continue
                u = t[:c] + (nxt,) + t[c + 1:]
                label = f"{chr(97 + c)}{ev}"
                delta[(src, label)] = name_of[u]
                if t in legal and u in legal:
                    legal_transitions.add((src, label))

    # A supervisor that observes both components of a forbidden pair controls
    # every event of them; other observers control an event by chance.
    guards = {c: {i for i, w in enumerate(windows)
                  for (p, q) in pairs if c in (p, q) and p in w and q in w}
              for c in range(m)}
    observable = [{ev for ev in names if event_component[ev] in w} for w in windows]
    controllable = [set() for _ in windows]
    for ev in names:
        c = event_component[ev]
        for i, w in enumerate(windows):
            if c in w and (i in guards[c] or rng.random() < ctrl_prob):
                controllable[i].add(ev)
    return Model(len(windows), names, [name_of[t] for t in tuples],
                 name_of[tuples[0]], delta, {name_of[t] for t in legal},
                 legal_transitions, observable, controllable, list(windows),
                 {name_of[t]: t for t in tuples})


def tiny_model(rng: random.Random) -> Model:
    """A small coherent random instance for the oracle sweep: up to five
    states and three events, one to three supervisors."""
    n_states = rng.randint(1, 5)
    events = ["a", "b", "c"][:rng.randint(1, 3)]
    states = [f"q{k}" for k in range(n_states)]
    delta = {(q, ev): rng.choice(states) for q in states for ev in events
             if rng.random() < 0.55}
    legal = {q for q in states if rng.random() < 0.75} | {"q0"}
    delta = {key: dst for key, dst in delta.items()
             if key[0] in legal or dst not in legal}
    seen, stack = {"q0"}, ["q0"]
    while stack:
        q = stack.pop()
        for ev in events:
            dst = delta.get((q, ev))
            if dst is not None and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    states = [q for q in states if q in seen]
    delta = {key: dst for key, dst in delta.items() if key[0] in seen}
    legal &= seen
    legal_transitions = {key for key, dst in delta.items()
                         if key[0] in legal and dst in legal}
    n = rng.choice([1, 2, 3])
    observable = [{ev for ev in events if rng.random() < 0.6} for _ in range(n)]
    controllable = [{ev for ev in events if rng.random() < 0.6} for _ in range(n)]
    return Model(n, events, states, "q0", delta, legal, legal_transitions,
                 observable, controllable)
