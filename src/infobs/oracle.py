"""Brute-force oracles, independent of the checker and synthesis machinery.

Three validators:

* :func:`oracle_solves` replays the three string-level requirements a
  solution must meet (uncontrollable events never leave the legal language;
  legal controlled continuations fuse to enable; illegal ones to disable)
  over every plant word up to a depth bound, stepping the supervisors'
  observers directly along each word, once per word prefix.

* :func:`oracle_condition` re-decides the observability conditions by plain
  nested loops over worlds and classes.  It reads each condition's declared
  facts from the condition table and spells out the covering knowledge
  itself: no formula trees, no frame, no memoization.

* :func:`exhaustive_supervisor_search` enumerates every decision table (and
  both defaults per event) over the reachable observer estimates of a tiny
  instance and reports whether any assignment meets the same string-level
  requirements :func:`oracle_solves` replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product

from .automata import PlantSpec, SupervisionProfile, Word, walk_words
from .conditions import CONDITIONS
from .errors import (ControlConflict, EnumerationBound, InstanceTooLarge,
                     UndefinedFusion)
from .fusion import (ABSTAIN, DISABLE, ENABLE, ControlDecision, FusedDecision,
                     fuse)
from .observation import Observer, build_composite, project
from .synthesis import Supervisor, SynthesisResult

#: Depth ceiling for string-level replay.
MAX_ORACLE_DEPTH = 10

#: Replay depth when none is given.
DEFAULT_ORACLE_DEPTH = 6

#: Ceiling on the number of legal words one replay or search walks.
MAX_ORACLE_WORDS = 100_000

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
    """Legal words up to length k with their plant states, shortest first;
    the walk stops one word past the budget."""
    if k > MAX_ORACLE_DEPTH:
        raise EnumerationBound(f"depth {k} exceeds the oracle ceiling {MAX_ORACLE_DEPTH}")
    words = list(islice(walk_words(model, k), MAX_ORACLE_WORDS + 1))
    if len(words) > MAX_ORACLE_WORDS:
        raise EnumerationBound(f"depth {k} gives more than {MAX_ORACLE_WORDS}"
                               " legal words, the oracle's word budget")
    return words


def oracle_solves(model: PlantSpec, profile: SupervisionProfile,
                  result: SynthesisResult,
                  k: int = DEFAULT_ORACLE_DEPTH) -> OracleVerdict:
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
#
# Each family's covering knowledge at world ``w`` for one event, given
# ``know(w, i, pred)``, where enabling (``e``) and disabling (``d``) the
# event are safe, and its controllers ``ctrl``.

def _veto(w, know, e, d, ctrl):
    return any(know(w, i, d) for i in ctrl)


def _approve(w, know, e, d, ctrl):
    return any(know(w, i, e) for i in ctrl)


def _four_lines(w, know, e, d, ctrl):
    """i knows enabling is safe, or disabling is; or i knows that where the
    event must be enabled (disabled) another controller knows it may be."""
    def others_know(v, i, pred):
        return any(know(v, j, pred) for j in ctrl if j != i)
    return any(know(w, i, e) or know(w, i, d)
               or know(w, i, lambda v: d(v) or others_know(v, i, e))
               or know(w, i, lambda v: e(v) or others_know(v, i, d))
               for i in ctrl)


def _coupled(w, know, e, d, ctrl):
    """Some i knows that where the event must be enabled some j knows
    enabling is safe."""
    return any(know(w, i, lambda v: d(v) or know(v, j, e))
               for i in ctrl for j in ctrl)


_COVERING = {"controllability": lambda *_: False, "extended": _four_lines,
             "corrected": _coupled, "split": _coupled, "legacy": _coupled,
             "cp": _veto, "strong_cp": _veto, "da": _approve, "strong_da": _approve}


def oracle_condition(model: PlantSpec, profile: SupervisionProfile,
                     which: str) -> bool:
    """Decide a condition with nested loops straight off its definition.

    ``which`` is a key of :data:`~infobs.conditions.CONDITIONS`.  Like the
    checker, the oracle reads the row's default relation and world domain
    (``legacy``'s are the published form), event domain and defaults in
    order; unlike it, no formula, frame or memo.  An event holds when some
    default is safe at every world of the domain that the family's own
    covering clause leaves uncovered.
    """
    row = CONDITIONS.get(which)
    if row is None:
        raise ValueError(f"unknown condition id {which!r}")
    relation, world_domain = row.domains(which)
    worlds = build_composite(model, profile).worlds
    if len(worlds) > MAX_ORACLE_WORLDS:
        raise InstanceTooLarge(f"{len(worlds)} worlds exceed the oracle bound")
    legal_worlds = [w for w in worlds if w.plant in model.legal_states]
    pool = legal_worlds if world_domain == "legal" else worlds
    covered = _COVERING[which]
    partial = relation == "partial"
    mates = legal_worlds if partial else worlds

    def know(w, i, pred):
        # Under the partial relation knowledge is vacuous at an illegal world
        # and ranges over legal class-mates; under the total one, over all.
        return (partial and w.plant not in model.legal_states
                or all(pred(v) for v in mates if v.estimates[i] == w.estimates[i]))

    for ev in sorted(row.event_pool(model, profile)):
        ctrl = profile.controllers(ev)
        possible, must_enable = model.successors[ev], model.legal_sources[ev]
        safe = {ENABLE: lambda w: w.plant not in possible or w.plant in must_enable,
                DISABLE: lambda w: w.plant not in must_enable}
        e, d = safe[ENABLE], safe[DISABLE]
        # Covering knowledge is read only where the default is unsafe.
        if not any(all(safe[dft](w) or covered(w, know, e, d, ctrl) for w in pool)
                   for dft in row.defaults):
            return False
    return True


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
