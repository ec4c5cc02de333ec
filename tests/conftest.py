"""Shared fixtures: the example models, instance sets, and test oracles."""

from __future__ import annotations

import json
import random
import re
from collections import defaultdict, deque
from functools import reduce
from pathlib import Path

import pytest

from infobs import (And, Const, EquivalenceVerdict, Formula, Implies, Know,
                    Not, Or, PlantSpec, SupervisionProfile, Var, any_knows,
                    default_frame, legal, load_model, possible, synthesize)
from infobs.automata import validate_profile, walk_words
from infobs.errors import (EnumerationBound, FormatError, ModelError,
                           SynthesisError)
from infobs.fusion import DISABLE, ENABLE, fuse
from infobs.modelfile import MAX_SUPERVISORS, _parse_indices
from infobs.observation import World, compose
from infobs.oracle import (MAX_ORACLE_DEPTH, RULE_ILLEGAL_ENABLED,
                           RULE_LEGAL_DISABLED, RULE_UNCONTROLLABLE,
                           OracleVerdict)

from randgen import instance_stream, random_instance

MODELS = Path(__file__).resolve().parent.parent / "examples" / "models"

# Seeds are pinned so every run exercises the identical instance sets.
N2_SEED = 20240601
SOUND_SEED = 20240602
TINY_SEED = 20240603
FORMULA_SEED = 20240604
N3_SEED = 20240605
CORRUPT_SEED = 20240606


@pytest.fixture(scope="session")
def legacy_gap():
    return load_model(MODELS / "legacy_gap.des")


@pytest.fixture(scope="session")
def conditional_bets():
    return load_model(MODELS / "conditional_bets.des")


@pytest.fixture(scope="session")
def conditional_bets_mirror():
    return load_model(MODELS / "conditional_bets_mirror.des")


@pytest.fixture(scope="session")
def diamond():
    return load_model(MODELS / "diamond_unsolvable.des")


@pytest.fixture(scope="session")
def forced_disable():
    return load_model(MODELS / "forced_disable.des")


@pytest.fixture(scope="session")
def legacy_gap_frame(legacy_gap):
    model, profile = legacy_gap
    return default_frame(model, profile)


@pytest.fixture(scope="session")
def conditional_bets_frame(conditional_bets):
    model, profile = conditional_bets
    return default_frame(model, profile)


@pytest.fixture(scope="session")
def mirror_frame(conditional_bets_mirror):
    model, profile = conditional_bets_mirror
    return default_frame(model, profile)


@pytest.fixture(scope="session")
def diamond_frame(diamond):
    model, profile = diamond
    return default_frame(model, profile)


# ---------------------------------------------------------------------------
# Randomized instance sets (session scoped; generating them is the cheap part,
# the frames are what the property tests share).

@pytest.fixture(scope="session")
def n2_instances():
    """Two-supervisor instances for the equivalence/separation/chain checks."""
    out = []
    for model, profile in instance_stream(N2_SEED, 220, n_choices=(2,),
                                          obs_membership=0.4,
                                          legal_state_bias=0.6):
        out.append((model, profile, default_frame(model, profile)))
    return out


@pytest.fixture(scope="session")
def n3_instances():
    """Three-supervisor instances; composites stay inside the oracle bound."""
    out = []
    for model, profile in instance_stream(N3_SEED, 200, n_choices=(3,),
                                          max_states=8, transition_density=0.75,
                                          obs_membership=0.4,
                                          legal_state_bias=0.6):
        out.append((model, profile, default_frame(model, profile)))
    return out


@pytest.fixture(scope="session")
def synthesized_instances():
    """At least 200 instances on which synthesis succeeds, with their results."""
    rng = random.Random(SOUND_SEED)
    out = []
    attempts = 0
    while len(out) < 200 and attempts < 5000:
        attempts += 1
        model, profile = random_instance(rng)
        try:
            result = synthesize(default_frame(model, profile))
        except SynthesisError:
            continue
        out.append((model, profile, result))
    assert len(out) >= 200, "the seeded generator should reach 200 successes"
    return out


@pytest.fixture(scope="session")
def tiny_instances():
    """Small instances inside the exhaustive-search bounds.

    Kept instances satisfy: at most 8 decision-table cells, and every
    composite world reachable within |Q|+1 steps so the depth-bounded string
    replay sees every situation the world-level checkers see.  Sampling
    continues past 50 until at least 8 unsolvable instances are present.
    """
    rng = random.Random(TINY_SEED)
    out = []
    negatives = 0
    attempts = 0
    from infobs import check, project
    while (len(out) < 50 or negatives < 8) and attempts < 20000:
        attempts += 1
        model, profile = random_instance(
            rng, max_states=4, max_events=2, n_choices=(1, 2),
            legal_state_bias=0.5, event_membership=0.8, obs_membership=0.3,
            transition_density=0.7)
        observers = [project(model, profile, i) for i in range(profile.n)]
        cells = sum(len(o.states) * len(profile.controllable[i])
                    for i, o in enumerate(observers))
        if not 0 < cells <= 8:
            continue
        frame = default_frame(model, profile)
        depth = len(model.states) + 1
        if any(len(word) > depth for word in frame.composite.words):
            continue
        holds = (check(frame, "controllability").holds
                 and check(frame, "extended").holds)
        negatives += (not holds)
        out.append((model, profile, frame, depth, holds))
    assert len(out) >= 50 and negatives >= 8
    return out


# ---------------------------------------------------------------------------
# Test oracles

def plant_from_pairs(events, states, initial, delta, legal_states,
                     legal_transitions) -> PlantSpec:
    """A :class:`PlantSpec` from its relations keyed by ``(state, event)``
    pairs: ``delta`` maps each to a successor, ``legal_transitions`` holds
    the legal ones.  Every event gets a row in both tables."""
    successors = {ev: {} for ev in events}
    legal_sources = {ev: set() for ev in events}
    for (src, ev), dst in delta.items():
        successors.setdefault(ev, {})[src] = dst
    for src, ev in legal_transitions:
        legal_sources.setdefault(ev, set()).add(src)
    return PlantSpec(frozenset(events), frozenset(states), initial, successors,
                     frozenset(legal_states),
                     {ev: frozenset(sources) for ev, sources in legal_sources.items()})


def run_word(model: PlantSpec, word) -> str | None:
    state = model.initial
    for ev in word:
        state = model.delta.get((state, ev))
        if state is None:
            return None
    return state


def write_peeking_supervisors(directory: Path) -> str:
    """Hand-written supervisor files for ``diamond_unsolvable.des`` in which
    supervisor 1 observes ``b`` as well as ``a``, though the model hides
    ``b`` from it.  With its votes on ``g`` (off, on, on, off at s0 to s3)
    and default enable, the closed loop would be the legal language."""
    quarter = {q: [q, "t" + q[1:]] for q in ("s0", "s1", "s2", "s3")}
    moves = (("s0", "a", "s1"), ("s0", "b", "s2"), ("s1", "b", "s3"),
             ("s2", "a", "s3"))
    before, after = ["s0", "s1", "t0", "t1"], ["s2", "s3", "t2", "t3"]
    files = {
        "supervisor_1.json": {
            "supervisor": 1, "observable": ["a", "b"], "initial": quarter["s0"],
            "states": list(quarter.values()),
            "transitions": [{"src": quarter[q], "event": ev, "dst": quarter[r]}
                            for q, ev, r in moves],
            "table": [{"state": quarter[q], "event": "g", "decision": vote}
                      for q, vote in zip(quarter, ("off", "on", "on", "off"))]},
        "supervisor_2.json": {
            "supervisor": 2, "observable": ["b"], "initial": before,
            "states": [before, after],
            "transitions": [{"src": before, "event": "b", "dst": after}],
            "table": [{"state": est, "event": "g", "decision": "abstain"}
                      for est in (before, after)]},
        "defaults.json": {"defaults": {"g": "enable"}},
    }
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_text(json.dumps(data), encoding="utf-8")
    return str(directory)


def world_after(frame, word) -> int:
    """The number of the world the frame's composite reaches on ``word``."""
    delta, k = composite_delta(frame.composite), 0
    for ev in word:
        k = delta[(k, ev)]
    return k


def composite_delta(composite) -> dict:
    """``(world, event) -> world`` over a composite's edges."""
    moves = iter(composite.edges)
    return {(src, ev): dst for src, ev, dst in zip(moves, moves, moves)}


def estimate_moves(observer) -> dict:
    """The observer's moves on observed events, keyed by ``(estimate,
    event)`` and read off its ids."""
    names = observer.states
    return {(names[src], ev): names[dst]
            for ev, row in observer.moves.items() if ev in observer.observable
            for src, dst in row.items()}


def estimate_table(supervisor) -> dict:
    """The supervisor's decisions keyed by ``(estimate, event)``."""
    names = supervisor.observer.states
    return {(names[k], ev): decision
            for (k, ev), decision in supervisor.table.items()}


def reference_solves(model: PlantSpec, profile: SupervisionProfile, result,
                     k: int = 6) -> OracleVerdict:
    """The solvability replay taken literally: for every legal word and
    every event it fuses, each controller's observer runs the word's
    projection from the initial estimate, and the decisions are fused anew.
    No memo of estimates or fused decisions.
    """
    if k > MAX_ORACLE_DEPTH:
        raise EnumerationBound(f"depth {k} exceeds the oracle ceiling {MAX_ORACLE_DEPTH}")
    result.require_fits(profile)
    sigma_c = profile.sigma_c
    for word, state in walk_words(model, k):
        for ev in sorted(model.events):
            if state not in model.successors[ev]:
                continue
            legal_next = state in model.legal_sources[ev]
            if ev not in sigma_c:
                if not legal_next:
                    return OracleVerdict(False, word, ev, RULE_UNCONTROLLABLE)
                continue
            bag = [result.supervisors[i].decide(
                       reduce(result.supervisors[i].observer.step,
                              tuple(e for e in word if e in profile.observable[i]), 0), ev)
                   for i in profile.controllers(ev)]
            fused = fuse(bag, result.defaults[ev])
            if legal_next and fused is not ENABLE:
                return OracleVerdict(False, word, ev, RULE_LEGAL_DISABLED)
            if not legal_next and fused is not DISABLE:
                return OracleVerdict(False, word, ev, RULE_ILLEGAL_ENABLED)
    return OracleVerdict(True)


def reference_closed_loop(model: PlantSpec, profile: SupervisionProfile, result):
    """The closed loop with no table of fused decisions: the filter builds
    and fuses the controllers' bag anew on every plant move it is asked
    about."""
    result.require_fits(profile)

    def enabled(key: tuple, ev: str) -> bool:
        bag = [result.supervisors[i].decide(key[i + 1], ev)
               for i in profile.controllers(ev)]
        return not bag or fuse(bag, result.defaults[ev]) is ENABLE

    return compose(model, [s.observer for s in result.supervisors], enabled)


def reference_project(model: PlantSpec, profile: SupervisionProfile, i: int):
    """The subset construction keyed by estimates throughout.

    Closures are grown state by state over ``model.delta``; estimates are
    expanded breadth first, events in name order.  Returns ``(initial,
    delta)``, ``delta`` keyed by ``(estimate, event)`` in the order the
    moves are found.
    """
    observable = profile.observable[i]
    hidden = model.events - observable

    def close(states) -> frozenset:
        out, todo = set(states), list(states)
        while todo:
            q = todo.pop()
            for ev in hidden:
                dst = model.delta.get((q, ev))
                if dst is not None and dst not in out:
                    out.add(dst)
                    todo.append(dst)
        return frozenset(out)

    initial = close({model.initial})
    delta = {}
    seen = {initial}
    queue = deque([initial])
    while queue:
        est = queue.popleft()
        for ev in sorted(observable):
            step = {model.delta[(q, ev)] for q in est if (q, ev) in model.delta}
            if not step:
                continue
            dst = delta[(est, ev)] = close(step)
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return initial, delta


def reference_compose(model: PlantSpec, observers, enabled=None):
    """The composite walk keyed by :class:`World` throughout.

    Each move is looked up in ``model.delta`` and each observer's
    :func:`estimate_moves`, and each target hashed as a ``World``; no
    successor tables, no ids.  Returns ``(initial, worlds, delta,
    witnesses)``.
    """
    if len(observers) < 1:
        raise ModelError("the composite needs at least one observer")
    tables = [estimate_moves(o) for o in observers]

    def step(i, est, ev):
        if ev not in observers[i].observable:
            return est
        if (est, ev) not in tables[i]:
            raise ModelError(f"observer {i + 1} cannot follow observable event"
                             f" {ev!r} from estimate {sorted(est)}")
        return tables[i][(est, ev)]

    initial = World(model.initial, tuple(o.states[0] for o in observers))
    worlds = [initial]
    seen = {initial}
    delta = {}
    witnesses = {initial: ()}
    queue = deque([initial])
    while queue:
        world = queue.popleft()
        for ev in sorted(model.events):
            dst = model.delta.get((world.plant, ev))
            if dst is None or (enabled is not None and not enabled(world, ev)):
                continue
            estimates = tuple(step(i, est, ev) for i, est in enumerate(world.estimates))
            target = World(dst, estimates)
            delta[(world, ev)] = target
            if target not in seen:
                seen.add(target)
                worlds.append(target)
                witnesses[target] = witnesses[world] + (ev,)
                queue.append(target)
    return initial, tuple(worlds), delta, witnesses


_NAME = re.compile(r"^[^\s#=]+$")


def reference_parse_model(text: str) -> tuple[PlantSpec, SupervisionProfile]:
    """The model file parser as it stood before it filled the successor
    table itself: one pass over the lines into per-kind tables, then the
    checks that need the whole file, in the same order and with the same
    messages.  Reachability is its own walk over ``delta``.
    """
    n: int | None = None
    events: dict[str, tuple[frozenset[int], frozenset[int], int]] = {}
    states: dict[str, tuple[bool, bool, int]] = {}  # name -> (init, legal, line)
    transitions: dict[tuple[str, str], tuple[str, bool, int]] = {}
    pending_events: list[tuple[str, str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        if keyword == "supervisors":
            if n is not None:
                raise FormatError("duplicate supervisors directive", lineno)
            # isdecimal, unlike isdigit, admits only digits int() reads; the
            # length test keeps int() off digit strings too long to convert.
            count = args[0].lstrip("0") if len(args) == 1 and args[0].isdecimal() else ""
            if not count:
                raise FormatError("supervisors needs one positive count", lineno)
            if len(count) > len(str(MAX_SUPERVISORS)) or int(count) > MAX_SUPERVISORS:
                raise FormatError(
                    f"supervisors count exceeds the ceiling of {MAX_SUPERVISORS}", lineno)
            n = int(count)
        elif keyword == "event":
            if not args:
                raise FormatError("event needs a name", lineno)
            obs_spec = ctrl_spec = None
            for extra in args[1:]:
                if extra.startswith("obs=") and obs_spec is None:
                    obs_spec = extra[4:]
                elif extra.startswith("ctrl=") and ctrl_spec is None:
                    ctrl_spec = extra[5:]
                else:
                    raise FormatError(f"unknown event option {extra!r}", lineno)
            pending_events.append((args[0], obs_spec, ctrl_spec, lineno))
        elif keyword == "state":
            if not args:
                raise FormatError("state needs a name", lineno)
            name = args[0]
            if not _NAME.match(name):
                raise FormatError(f"bad state name {name!r}", lineno)
            if name in states:
                raise FormatError(f"duplicate state {name!r}", lineno)
            flags = set(args[1:])
            unknown = [f for f in args[1:] if f not in ("init", "legal")]
            if unknown:
                raise FormatError(f"unknown state option {unknown[0]!r}", lineno)
            states[name] = ("init" in flags, "legal" in flags, lineno)
        elif keyword == "trans":
            if len(args) not in (3, 4):
                raise FormatError("trans needs: src event dst [legal]", lineno)
            src, ev, dst = args[:3]
            legal = False
            if len(args) == 4:
                if args[3] != "legal":
                    raise FormatError(f"unknown transition option {args[3]!r}", lineno)
                legal = True
            if (src, ev) in transitions:
                raise FormatError(
                    f"duplicate transition from {src!r} on {ev!r}"
                    " (the plant must stay deterministic)", lineno)
            transitions[(src, ev)] = (dst, legal, lineno)
        else:
            raise FormatError(f"unknown directive {keyword!r}", lineno)

    if n is None:
        raise FormatError("missing supervisors directive", 1)

    observable = [set() for _ in range(n)]
    controllable = [set() for _ in range(n)]
    for name, obs_spec, ctrl_spec, lineno in pending_events:
        if not _NAME.match(name):
            raise FormatError(f"bad event name {name!r}", lineno)
        if name in events:
            raise FormatError(f"duplicate event {name!r}", lineno)
        obs = _parse_indices(obs_spec, n, lineno) if obs_spec else frozenset()
        ctrl = _parse_indices(ctrl_spec, n, lineno) if ctrl_spec else frozenset()
        events[name] = (obs, ctrl, lineno)
        for i in obs:
            observable[i].add(name)
        for i in ctrl:
            controllable[i].add(name)

    initials = [name for name, (init, _lgl, _ln) in states.items() if init]
    if len(initials) != 1:
        raise FormatError(f"exactly one init state required, found {len(initials)}",
                          1 if not initials else states[initials[-1]][2])
    initial = initials[0]
    if not states[initial][1]:
        raise FormatError(f"initial state {initial!r} must be legal",
                          states[initial][2])

    delta = {}
    legal_transitions = set()
    for (src, ev), (dst, legal, lineno) in transitions.items():
        for endpoint in (src, dst):
            if endpoint not in states:
                raise FormatError(f"undefined state {endpoint!r}", lineno)
        if ev not in events:
            raise FormatError(f"undefined event {ev!r}", lineno)
        delta[(src, ev)] = dst
        if legal:
            if not (states[src][1] and states[dst][1]):
                raise FormatError(
                    f"legal transition {src} -{ev}-> {dst} must run between"
                    " legal states", lineno)
            legal_transitions.add((src, ev))

    model = plant_from_pairs(
        events=events,
        states=states,
        initial=initial,
        delta=delta,
        legal_states=[name for name, (_i, lgl, _ln) in states.items() if lgl],
        legal_transitions=legal_transitions,
    )
    unreachable = model.states - _reference_reachable(model)
    if unreachable:
        worst = min(unreachable, key=lambda s: states[s][2])
        raise FormatError(f"state {worst!r} is unreachable from {initial!r}",
                          states[worst][2])
    profile = SupervisionProfile(tuple(frozenset(o) for o in observable),
                                 tuple(frozenset(c) for c in controllable))
    validate_profile(model, profile)
    return model, profile


def _reference_reachable(model: PlantSpec) -> frozenset[str]:
    successors: dict[str, list[str]] = {}
    for (src, ev), dst in model.delta.items():
        successors.setdefault(src, []).append(dst)
    seen = {model.initial}
    queue = deque([model.initial])
    while queue:
        for dst in successors.get(queue.popleft(), ()):
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return frozenset(seen)


def estimate_groups(model: PlantSpec, profile: SupervisionProfile, i: int,
                    k: int = 8) -> dict:
    """String-level estimates: group plant states by the projected word.

    Independent of the subset construction; only valid when ``k`` words reach
    every composite configuration, which holds for the desk-scale fixtures.
    """
    groups: dict = defaultdict(set)
    for word in automaton_language((model.initial, model.delta), k):
        proj = tuple(ev for ev in word if ev in profile.observable[i])
        groups[proj].add(run_word(model, word))
    return {proj: frozenset(states) for proj, states in groups.items()}


def legal_rows(model: PlantSpec) -> tuple:
    """The legal subautomaton as an ``(initial, delta)`` pair, ``delta``
    keyed by ``(state, event)``."""
    return model.initial, {(q, ev): model.successors[ev][q]
                           for ev, sources in model.legal_sources.items()
                           for q in sources}


def reference_equivalent(a: tuple, b: tuple) -> EquivalenceVerdict:
    """Language equivalence of two deterministic automata, each an
    ``(initial, delta)`` pair, by a breadth-first walk over state pairs.

    The first reached pair where exactly one side can extend the word gives
    the counterexample: a shortest word in exactly one language, ties broken
    by event name.
    """
    (a0, da), (b0, db) = a, b
    events = sorted({ev for _src, ev in (*da, *db)})
    seen = {(a0, b0)}
    queue = deque([((a0, b0), ())])
    while queue:
        (sa, sb), word = queue.popleft()
        for ev in events:
            ta, tb = da.get((sa, ev)), db.get((sb, ev))
            if (ta is None) != (tb is None):
                return EquivalenceVerdict(False, word + (ev,))
            if ta is not None and (ta, tb) not in seen:
                seen.add((ta, tb))
                queue.append(((ta, tb), word + (ev,)))
    return EquivalenceVerdict(True)


def automaton_language(automaton: tuple, k: int) -> set:
    """The words of length at most ``k`` along an ``(initial, delta)``
    automaton's moves."""
    initial, delta = automaton
    events = sorted({ev for _src, ev in delta})
    words = {()}
    frontier = [(initial, ())]
    for _ in range(k):
        nxt = []
        for state, word in frontier:
            for ev in events:
                target = delta.get((state, ev))
                if target is None:
                    continue
                extended = word + (ev,)
                words.add(extended)
                nxt.append((target, extended))
        frontier = nxt
    return words


def expand_derived(phi: Formula) -> Formula:
    """Rewrite Or and Implies into the primitive not/and fragment."""
    if isinstance(phi, (Const, Var)):
        return phi
    if isinstance(phi, Not):
        return Not(expand_derived(phi.sub))
    if isinstance(phi, And):
        return And(expand_derived(phi.left), expand_derived(phi.right))
    if isinstance(phi, Or):
        return Not(And(Not(expand_derived(phi.left)), Not(expand_derived(phi.right))))
    if isinstance(phi, Implies):
        return expand_derived(Or(Not(phi.left), phi.right))
    if isinstance(phi, Know):
        return Know(phi.agent, expand_derived(phi.sub))
    raise TypeError(f"not a formula: {phi!r}")


def random_formula(rng: random.Random, events, n_agents: int, depth: int,
                   controllers=None):
    """Random formula over the model's propositions.

    Given ``controllers``, the formula may also say that some of them, or
    some of them other than one supervisor, knows a subformula: the
    disjunctions :func:`any_knows` builds.
    """
    if depth == 0 or rng.random() < 0.25:
        ev = rng.choice(events)
        return Var(possible(ev)) if rng.random() < 0.5 else Var(legal(ev))
    kinds = ("not", "and", "or", "implies", "know", "know")
    if controllers is not None:
        kinds += ("someone", "other")

    def sub():
        return random_formula(rng, events, n_agents, depth - 1, controllers)

    kind = rng.choice(kinds)
    if kind == "not":
        return Not(sub())
    if kind == "someone":
        return any_knows(controllers, sub())
    if kind == "other":
        skip = rng.randrange(n_agents)
        return any_knows([j for j in controllers if j != skip], sub())
    if kind == "know":
        return Know(rng.randrange(n_agents), sub())
    left, right = sub(), sub()
    return {"and": And, "or": Or, "implies": Implies}[kind](left, right)


def reference_eval(frame, w, phi, relation="partial") -> bool:
    """The inductive semantics, world by world, straight off the model.

    Deliberately naive (no memo, no bitsets): it reads only the frame's
    ``model`` and ``worlds`` and rebuilds valuation and accessibility from
    the transition tables and the worlds' estimates, so it shares nothing
    with the :class:`KripkeFrame` under test.
    """
    model = frame.model
    if isinstance(phi, Const):
        return phi.value
    if isinstance(phi, Var):
        prop = phi.prop
        if prop.kind == "state_legal":
            return w.plant in model.legal_states
        table = model.delta if prop.kind == "possible" else model.legal_transitions
        return (w.plant, prop.event) in table
    if isinstance(phi, Not):
        return not reference_eval(frame, w, phi.sub, relation)
    if isinstance(phi, (And, Or, Implies)):
        left = reference_eval(frame, w, phi.left, relation)
        right = reference_eval(frame, w, phi.right, relation)
        if isinstance(phi, And):
            return left and right
        return (left or right) if isinstance(phi, Or) else (not left or right)
    if isinstance(phi, Know):
        i = phi.agent
        if relation == "partial" and w.plant not in model.legal_states:
            return True
        return all(reference_eval(frame, v, phi.sub, relation)
                   for v in frame.worlds
                   if v.estimates[i] == w.estimates[i]
                   and (relation == "total" or v.plant in model.legal_states))
    raise TypeError(f"not a formula: {phi!r}")
