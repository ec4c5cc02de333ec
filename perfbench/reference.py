"""Independent reference verdicts for the product workloads.

``oracle --mode condition`` refuses models above 64 worlds, so the product
workloads need another reference.  In a product model from :mod:`gen` the
composite worlds are the plant states and a supervisor's estimate is fixed
by the local states of the components it observes.  That lets this module
decide every CLI condition by labelling: each formula becomes its truth set,
a bitset over worlds held in a Python ``int``, and ``Know(i, F)`` is one pass
over supervisor i's classes.  It shares no code with the package.

:func:`check_json` returns the exact ``check --json`` payload the CLI must
print: verdict, defaults, and the counterexample at the first failing world
in breadth-first order (events expanded in name order) with its shortest
witnessing word.
"""

from __future__ import annotations

from collections import deque

from gen import Model


class Frame:
    def __init__(self, model: Model):
        self.model = model
        events = sorted(model.events)
        order = [model.initial]
        witness = {model.initial: ()}
        queue = deque(order)
        while queue:
            q = queue.popleft()
            for ev in events:
                dst = model.delta.get((q, ev))
                if dst is not None and dst not in witness:
                    witness[dst] = witness[q] + (ev,)
                    order.append(dst)
                    queue.append(dst)
        self.order = order
        self.witness = witness
        index = {q: k for k, q in enumerate(order)}
        self.all = (1 << len(order)) - 1
        self.legal = _mask(index[q] for q in model.legal_states)
        self.possible = {ev: 0 for ev in events}
        self.allowed = {ev: 0 for ev in events}
        for (q, ev) in model.delta:
            self.possible[ev] |= 1 << index[q]
        for (q, ev) in model.legal_transitions:
            self.allowed[ev] |= 1 << index[q]
        self.total, self.partial, self.estimate = [], [], []
        for window in model.windows:
            groups: dict[tuple, list[int]] = {}
            for k, q in enumerate(order):
                loc = model.locals[q]
                groups.setdefault(tuple(loc[c] for c in window), []).append(k)
            total = [_mask(ks) for ks in groups.values()]
            self.total.append(total)
            self.partial.append([m & self.legal for m in total if m & self.legal])
            est = [None] * len(order)
            for ks in groups.values():
                names = sorted(order[k] for k in ks)
                for k in ks:
                    est[k] = names
            self.estimate.append(est)

    def know(self, i: int, truth: int, relation: str) -> int:
        if relation == "partial":
            out = self.all & ~self.legal
            classes = self.partial[i]
        else:
            out = 0
            classes = self.total[i]
        for cls in classes:
            if cls & truth == cls:
                out |= cls
        return out

    def controllers(self, ev: str) -> list[int]:
        return [i for i, ctrl in enumerate(self.model.controllable) if ev in ctrl]

    def world(self, k: int) -> dict:
        return {"plant": self.order[k],
                "estimates": [est[k] for est in self.estimate]}

    def word(self, k: int) -> str:
        return " ".join(self.witness[self.order[k]])


def _mask(indices) -> int:
    out = 0
    for k in indices:
        out |= 1 << k
    return out


def _first(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _lines(f: Frame, ev: str):
    poss, allowed = f.possible[ev], f.allowed[ev]
    e = (f.all & ~poss) | allowed
    d = f.all & ~allowed
    return e, d, allowed, poss & ~allowed


def _someone(f: Frame, ev: str, truth: int, relation: str, skip=None) -> int:
    out = 0
    for i in f.controllers(ev):
        if i != skip:
            out |= f.know(i, truth, relation)
    return out


def _coupled(f: Frame, ev: str, relation: str) -> int:
    e, _d, allowed, _ = _lines(f, ev)
    out = e
    for j in f.controllers(ev):
        inner = (f.all & ~allowed) | f.know(j, e, relation)
        for i in f.controllers(ev):
            out |= f.know(i, inner, relation)
    return out


def _split(f: Frame, ev: str) -> int:
    ctrl = f.controllers(ev)
    if len(ctrl) < 2:
        return _coupled(f, ev, "partial")
    e, d, allowed, _ = _lines(f, ev)
    out = e
    for i in ctrl:
        for j in ctrl:
            if i != j:
                inner = (f.all & ~allowed) | f.know(j, e, "partial")
                out |= (f.know(i, e, "partial") | f.know(i, d, "partial")
                        | f.know(i, inner, "partial"))
    return out


def _extended(f: Frame, ev: str):
    """Default for the event, or the (needs-enable, needs-disable) pair."""
    e, d, ebar, dbar = _lines(f, ev)
    covered = _someone(f, ev, e, "partial") | _someone(f, ev, d, "partial")
    for i in f.controllers(ev):
        other_e = _someone(f, ev, e, "partial", skip=i)
        other_d = _someone(f, ev, d, "partial", skip=i)
        covered |= f.know(i, (f.all & ~ebar) | other_e, "partial")
        covered |= f.know(i, (f.all & ~dbar) | other_d, "partial")
    uncovered = f.legal & ~covered
    needs_enable, needs_disable = uncovered & ~d, uncovered & ~e
    if needs_enable and needs_disable:
        return None, (_first(needs_enable), _first(needs_disable))
    return ("disable" if needs_disable else "enable"), None


CONDITIONS = ("extended", "corrected", "split", "legacy", "cp", "da",
              "strong-cp", "strong-da")


def check_json(f: Frame, condition: str) -> dict:
    """The ``check <file> --condition <condition> --json`` payload."""
    sigma_c = sorted(set().union(*f.model.controllable))
    names = {"split": "corrected-split", "strong-cp": "strong_cp",
             "strong-da": "strong_da"}
    name = names.get(condition, condition)

    def fails(ev, k, conflict=None):
        ce = {"event": ev, "string": f.word(k), "world": f.world(k)}
        if conflict is not None:
            ce["conflict"] = {"string": f.word(conflict), "world": f.world(conflict)}
        return {"condition": name, "holds": False, "defaults": None,
                "counterexample": ce}

    if condition == "extended":
        defaults = {}
        for ev in sigma_c:
            default, pair = _extended(f, ev)
            if pair is not None:
                return fails(ev, *pair)
            defaults[ev] = default
        return {"condition": name, "holds": True, "defaults": defaults,
                "counterexample": None}

    domain = f.all if condition == "legacy" else f.legal
    default = "disable" if condition in ("da", "strong-da") else "enable"
    for ev in sigma_c:
        e, d, _, _ = _lines(f, ev)
        if condition in ("corrected", "legacy"):
            truth = _coupled(f, ev, "total" if condition == "legacy" else "partial")
        elif condition == "split":
            truth = _split(f, ev)
        else:
            relation = "total" if condition.startswith("strong") else "partial"
            if condition.endswith("cp"):
                truth = _someone(f, ev, d, relation) | e
            else:
                truth = _someone(f, ev, e, relation) | d
        bad = domain & ~truth
        if bad:
            return fails(ev, _first(bad))
    return {"condition": name, "holds": True,
            "defaults": {ev: default for ev in sigma_c}, "counterexample": None}
