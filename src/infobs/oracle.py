"""Brute-force oracles, independent of the checker and synthesis machinery.

Three validators:

* :func:`oracle_solves` replays the three string-level requirements a
  solution must meet (uncontrollable events never leave the legal language;
  legal controlled continuations fuse to enable; illegal ones to disable)
  over every plant word up to a depth bound, stepping the supervisors'
  observers directly along each word, once per word prefix.

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

from .automata import PlantSpec, SupervisionProfile, Word, walk_words
from .errors import (ControlConflict, EnumerationBound, InstanceTooLarge,
                     UndefinedFusion)
from .fusion import (ABSTAIN, DISABLE, ENABLE, ControlDecision, FusedDecision,
                     fuse)
from .observation import Observer, build_composite, project
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
    return list(walk_words(model, k))


def oracle_solves(model: PlantSpec, profile: SupervisionProfile,
                  result: SynthesisResult, k: int = 6) -> OracleVerdict:
    """Replay the solvability requirements over all words of length <= k.

    Each controller's observer is stepped once per word prefix, and only
    where its decision is read; each event's bag of decisions is fused once.
    """
    result.require_fits(profile)
    sigma_c = profile.sigma_c
    sups = result.supervisors
    memos = [{(): 0} for _ in sups]
    plan = [(ev, profile.controllers(ev)) for ev in sorted(model.events)]
    fused_at: dict[tuple, FusedDecision] = {}
    for word, state in _legal_words(model, k):
        for ev, ctrl in plan:
            if state not in model.successors[ev]:
                continue
            legal_next = state in model.legal_sources[ev]
            if ev not in sigma_c:
                if not legal_next:
                    return OracleVerdict(False, word, ev, RULE_UNCONTROLLABLE)
                continue
            bag = tuple(sups[i].decide(_estimate(sups[i].observer, memos[i], word), ev)
                        for i in ctrl)
            fused = fused_at.get((ev, bag))
            if fused is None:
                fused = fused_at[(ev, bag)] = fuse(bag, result.defaults[ev])
            if legal_next and fused is not ENABLE:
                return OracleVerdict(False, word, ev, RULE_LEGAL_DISABLED)
            if not legal_next and fused is not DISABLE:
                return OracleVerdict(False, word, ev, RULE_ILLEGAL_ENABLED)
    return OracleVerdict(True)


def _estimate(observer: Observer, memo: dict[Word, int], word: Word) -> int:
    """The observer's estimate id after the plant word, stepped from the id
    after its prefix; ``memo`` starts as ``{(): 0}`` and keeps every id."""
    # Not a closure over the memo: a recursive closure is a reference cycle,
    # which would keep every memo alive until the next cyclic collection.
    e = memo.get(word)
    if e is None:
        e = memo[word] = observer.step(_estimate(observer, memo, word[:-1]), word[-1])
    return e


# ---------------------------------------------------------------------------
# Naive condition checking by direct expansion

def oracle_condition(model: PlantSpec, profile: SupervisionProfile,
                     which: str) -> bool:
    """Decide a condition with nested loops straight off its definition.

    Supported ids: ``controllability``, ``extended``, ``corrected``,
    ``split``, ``legacy``, ``cp``, ``da``, ``strong_cp``, ``strong_da``.
    ``legacy`` is the published form: the total relations over all worlds.
    """
    composite = build_composite(model, profile)
    worlds = composite.worlds
    if len(worlds) > MAX_ORACLE_WORLDS:
        raise InstanceTooLarge(f"{len(worlds)} worlds exceed the oracle bound")

    def is_legal(w):
        return w.plant in model.legal_states

    def sig_g(w, ev):
        return w.plant in model.successors[ev]

    def sig_e(w, ev):
        return w.plant in model.legal_sources[ev]

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
        rel = "total" if which == "legacy" else "partial"
        pool = worlds if which == "legacy" else legal_worlds
        for ev in sorted(profile.sigma_c):
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
    memos = [{(): 0} for _ in observers]

    # Uncontrollable escapes doom every table alike.
    for word, state in words:
        for ev in sorted(model.events - sigma_c):
            if state in model.successors[ev] and state not in model.legal_sources[ev]:
                return SearchResult(False)

    tables: dict[int, dict[tuple[int, str], ControlDecision]] = {
        i: {} for i in range(profile.n)}
    defaults: dict[str, FusedDecision] = {}

    for ev in sorted(sigma_c):
        ctrl = profile.controllers(ev)
        # Requirement per estimate-id tuple: words with the same controller
        # estimates always fuse identically, so conflicting requirements on
        # one tuple sink every table.
        required: dict[tuple[int, ...], FusedDecision] = {}
        for word, state in words:
            if state not in model.successors[ev]:
                continue
            key = tuple(_estimate(observers[i], memos[i], word) for i in ctrl)
            want = (ENABLE if state in model.legal_sources[ev] else DISABLE)
            if required.setdefault(key, want) is not want:
                return SearchResult(False)

        touched = sorted({(i, e) for key in required for i, e in zip(ctrl, key)})
        assignment, dft = _search_event(required, touched, ctrl)
        if assignment is None:
            return SearchResult(False)
        defaults[ev] = dft
        for i, obs in enumerate(observers):
            if ev not in profile.controllable[i]:
                continue
            for e in range(len(obs.states)):
                tables[i][(e, ev)] = assignment.get((i, e), ABSTAIN)

    supervisors = tuple(Supervisor(obs, tables[i]) for i, obs in enumerate(observers))
    return SearchResult(True, SynthesisResult(supervisors, defaults, {}))


def _search_event(required, touched, ctrl):
    decisions = list(ControlDecision)
    for dft in (ENABLE, DISABLE):
        for combo in product(decisions, repeat=len(touched)):
            assignment = dict(zip(touched, combo))
            ok = True
            for key, want in required.items():
                bag = [assignment.get((i, e), ABSTAIN) for i, e in zip(ctrl, key)]
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
