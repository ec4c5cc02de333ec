"""Brute-force oracles, independent of the checker and synthesis machinery.

Three validators:

* :func:`oracle_solves` replays the three string-level requirements a
  solution must meet (uncontrollable events never leave the legal language;
  legal controlled continuations fuse to enable; illegal ones to disable)
  literally over every plant word up to a depth bound, driving the
  supervisors' observers directly on projected words.

* :func:`oracle_condition` re-decides the observability conditions by direct
  quantifier expansion: plain nested loops over worlds and classes, no
  formula trees, no memoization.

* :func:`exhaustive_supervisor_search` enumerates every decision table (and
  both defaults per event) over the reachable observer estimates of a tiny
  instance and reports whether any assignment meets the same string-level
  requirements :func:`oracle_solves` replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .automata import PlantSpec, SupervisionProfile, Word
from .errors import (ControlConflict, EnumerationBound, InstanceTooLarge,
                     UndefinedFusion)
from .fusion import (ABSTAIN, DISABLE, ENABLE, ControlDecision, FusedDecision,
                     fuse)
from .observation import Estimate, build_composite, project
from .synthesis import Supervisor, SynthesisResult

#: Depth ceiling for string-level replay.
MAX_ORACLE_DEPTH = 10

#: Ceiling on total decision-table cells for the exhaustive search.
MAX_SEARCH_CELLS = 10

#: Ceiling on composite size for naive condition expansion.
MAX_ORACLE_WORLDS = 64

RULE_UNCONTROLLABLE = "uncontrollable-escape"
RULE_LEGAL_DISABLED = "legal-but-disabled"
RULE_ILLEGAL_ENABLED = "illegal-but-enabled"


@dataclass(frozen=True)
class OracleVerdict:
    ok: bool
    string: Word | None = None
    event: str | None = None
    rule: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _legal_words(model: PlantSpec, k: int) -> list[tuple[Word, str]]:
    """Legal words up to length k with their plant states, shortest first."""
    if k > MAX_ORACLE_DEPTH:
        raise EnumerationBound(f"depth {k} exceeds the oracle ceiling {MAX_ORACLE_DEPTH}")
    out = [((), model.initial)]
    frontier = [((), model.initial)]
    for _ in range(k):
        nxt = []
        for word, state in frontier:
            for ev in sorted(model.events):
                if (state, ev) in model.legal_transitions:
                    nxt.append((word + (ev,), model.delta[(state, ev)]))
        out.extend(nxt)
        frontier = nxt
    return out


def oracle_solves(model: PlantSpec, profile: SupervisionProfile,
                  result: SynthesisResult, k: int = 6) -> OracleVerdict:
    """Replay the solvability requirements over all words of length <= k."""
    sigma_c = profile.sigma_c
    for word, state in _legal_words(model, k):
        for ev in sorted(model.events):
            if (state, ev) not in model.delta:
                continue
            legal_next = (state, ev) in model.legal_transitions
            if ev not in sigma_c:
                if not legal_next:
                    return OracleVerdict(False, word, ev, RULE_UNCONTROLLABLE)
                continue
            bag = [result.supervisors[i].decide(
                       result.supervisors[i].observer.run(_projected(word, profile, i)), ev)
                   for i in profile.controllers(ev)]
            fused = fuse(bag, result.defaults[ev])
            if legal_next and fused is not ENABLE:
                return OracleVerdict(False, word, ev, RULE_LEGAL_DISABLED)
            if not legal_next and fused is not DISABLE:
                return OracleVerdict(False, word, ev, RULE_ILLEGAL_ENABLED)
    return OracleVerdict(True)


def _projected(word: Word, profile: SupervisionProfile, i: int) -> Word:
    return tuple(ev for ev in word if ev in profile.observable[i])


# ---------------------------------------------------------------------------
# Naive condition checking by direct expansion

def oracle_condition(model: PlantSpec, profile: SupervisionProfile,
                     which: str, relation: str = "partial",
                     world_domain: str = "legal",
                     sigma_domain: str = "controllable") -> bool:
    """Decide a condition with nested loops straight off its definition.

    Supported ids: ``controllability``, ``extended``, ``corrected``,
    ``split``, ``legacy``, ``cp``, ``da``, ``strong_cp``, ``strong_da``.
    ``relation``/``world_domain``/``sigma_domain`` only apply to ``legacy``.
    """
    composite = build_composite(model, profile)
    worlds = composite.worlds
    if len(worlds) > MAX_ORACLE_WORLDS:
        raise InstanceTooLarge(f"{len(worlds)} worlds exceed the oracle bound")

    def is_legal(w):
        return w.plant in model.legal_states

    def sig_g(w, ev):
        return (w.plant, ev) in model.delta

    def sig_e(w, ev):
        return (w.plant, ev) in model.legal_transitions

    def e(w, ev):
        return (not sig_g(w, ev)) or sig_e(w, ev)

    def d(w, ev):
        return not sig_e(w, ev)

    def cls(w, i, rel):
        if rel == "partial":
            if not is_legal(w):
                return []
            return [v for v in worlds
                    if v.estimates[i] == w.estimates[i] and is_legal(v)]
        return [v for v in worlds if v.estimates[i] == w.estimates[i]]

    def know(w, i, pred, rel):
        return all(pred(v) for v in cls(w, i, rel))

    legal_worlds = [w for w in worlds if is_legal(w)]

    if which == "controllability":
        for ev in model.events - profile.sigma_c:
            for w in legal_worlds:
                if not e(w, ev):
                    return False
        return True

    if which == "extended":
        for ev in sorted(profile.sigma_c):
            ctrl = profile.controllers(ev)

            def other_e(w, i):
                return any(know(w, j, lambda v: e(v, ev), "partial")
                           for j in ctrl if j != i)

            def other_d(w, i):
                return any(know(w, j, lambda v: d(v, ev), "partial")
                           for j in ctrl if j != i)

            uncovered = []
            for w in legal_worlds:
                line1 = any(know(w, i, lambda v: e(v, ev), "partial") for i in ctrl)
                line2 = any(know(w, i, lambda v: d(v, ev), "partial") for i in ctrl)
                line3 = any(know(w, i,
                                 lambda v, i=i: (not sig_e(v, ev)) or other_e(v, i),
                                 "partial")
                            for i in ctrl)
                line4 = any(know(w, i,
                                 lambda v, i=i: (not (sig_g(v, ev) and not sig_e(v, ev)))
                                 or other_d(v, i),
                                 "partial")
                            for i in ctrl)
                if not (line1 or line2 or line3 or line4):
                    uncovered.append(w)
            all_e = all(e(w, ev) for w in uncovered)
            all_d = all(d(w, ev) for w in uncovered)
            if not (all_e or all_d):
                return False
        return True

    if which in ("corrected", "split", "legacy"):
        rel = relation if which == "legacy" else "partial"
        domain = world_domain if which == "legacy" else "legal"
        events = (model.events if which == "legacy" and sigma_domain == "all"
                  else profile.sigma_c)
        pool = worlds if domain == "all" else legal_worlds
        for ev in sorted(events):
            ctrl = profile.controllers(ev)
            for w in pool:
                if e(w, ev):
                    continue
                found = False
                for i in ctrl:
                    for j in ctrl:
                        if know(w, i,
                                lambda v, j=j: (not sig_e(v, ev))
                                or know(v, j, lambda u: e(u, ev), rel),
                                rel):
                            found = True
                            break
                    if found:
                        break
                if not found:
                    return False
        return True

    if which in ("cp", "da", "strong_cp", "strong_da"):
        rel = "total" if which.startswith("strong") else "partial"
        veto = which.endswith("cp")
        for ev in sorted(profile.sigma_c):
            ctrl = profile.controllers(ev)
            for w in legal_worlds:
                base = e(w, ev) if veto else d(w, ev)
                if base:
                    continue
                pred = (lambda v: d(v, ev)) if veto else (lambda v: e(v, ev))
                if not any(know(w, i, pred, rel) for i in ctrl):
                    return False
        return True

    raise ValueError(f"unknown condition id {which!r}")


# ---------------------------------------------------------------------------
# Exhaustive supervisor search on tiny instances

@dataclass(frozen=True)
class SearchResult:
    exists: bool
    result: SynthesisResult | None = None


def exhaustive_supervisor_search(model: PlantSpec, profile: SupervisionProfile,
                                 k: int) -> SearchResult:
    """Search all decision tables over reachable estimates, both defaults.

    Requirements decompose per event: the fused outcome for an event depends
    only on the estimates of its controllers and their table entries for that
    event, so each controlled event is searched independently and the
    witnesses are merged.  Within an event, only cells that some requirement
    actually touches are enumerated; untouched cells abstain.
    """
    observers = [project(model, profile, i) for i in range(profile.n)]
    cells = sum(len(obs.states) * len(profile.controllable[i])
                for i, obs in enumerate(observers))
    if cells > MAX_SEARCH_CELLS:
        raise InstanceTooLarge(f"{cells} table cells exceed the search bound "
                               f"{MAX_SEARCH_CELLS}")

    words = _legal_words(model, k)
    sigma_c = profile.sigma_c

    # Uncontrollable escapes doom every table alike.
    for word, state in words:
        for ev in sorted(model.events - sigma_c):
            if (state, ev) in model.delta and (state, ev) not in model.legal_transitions:
                return SearchResult(False)

    tables: dict[int, dict[tuple[Estimate, str], ControlDecision]] = {
        i: {} for i in range(profile.n)}
    defaults: dict[str, FusedDecision] = {}

    for ev in sorted(sigma_c):
        ctrl = profile.controllers(ev)
        # Requirement per estimate tuple: words with the same controller
        # estimates always fuse identically, so conflicting requirements on
        # one tuple sink every table.
        required: dict[tuple[Estimate, ...], FusedDecision] = {}
        for word, state in words:
            if (state, ev) not in model.delta:
                continue
            key = tuple(observers[i].run(_projected(word, profile, i)) for i in ctrl)
            want = (ENABLE if (state, ev) in model.legal_transitions else DISABLE)
            if required.setdefault(key, want) is not want:
                return SearchResult(False)

        touched = sorted({(i, est) for key in required
                          for i, est in zip(ctrl, key)},
                         key=lambda cell: (cell[0], sorted(cell[1])))
        assignment, dft = _search_event(required, touched, ctrl)
        if assignment is None:
            return SearchResult(False)
        defaults[ev] = dft
        for i, obs in enumerate(observers):
            if ev not in profile.controllable[i]:
                continue
            for est in obs.states:
                tables[i][(est, ev)] = assignment.get((i, est), ABSTAIN)

    supervisors = tuple(Supervisor(obs, tables[i]) for i, obs in enumerate(observers))
    return SearchResult(True, SynthesisResult(supervisors, defaults, {}))


def _search_event(required, touched, ctrl):
    decisions = list(ControlDecision)
    for dft in (ENABLE, DISABLE):
        for combo in product(decisions, repeat=len(touched)):
            assignment = dict(zip(touched, combo))
            ok = True
            for key, want in required.items():
                bag = [assignment.get((i, est), ABSTAIN)
                       for i, est in zip(ctrl, key)]
                try:
                    fused = fuse(bag, dft)
                except (ControlConflict, UndefinedFusion):
                    ok = False
                    break
                if fused is not want:
                    ok = False
                    break
            if ok:
                return assignment, dft
    return None, None
