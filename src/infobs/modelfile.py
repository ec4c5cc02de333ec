"""Text format for models and JSON format for synthesized supervisors.

Model files are UTF-8, line oriented, ``#`` starts a comment::

    supervisors <n>
    event <name> [obs=<i,...>] [ctrl=<i,...>]
    state <name> [init] [legal]
    trans <src> <event> <dst> [legal]

Supervisor indices in files are 1-based.  Exactly one state carries ``init``.
Parsing validates every structural invariant and reports the offending line.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from .automata import (PlantSpec, SupervisionProfile, reachable,
                       validate_profile)
from .errors import FormatError
from .fusion import ControlDecision, FusedDecision
from .observation import Observer
from .synthesis import PolicyCase, Supervisor, SynthesisResult

_STATE_OPTIONS = frozenset({"init", "legal"})
_MEMBERS = {enum: {m.value: m for m in enum} for enum in (ControlDecision, PolicyCase)}

# Parsing allocates per supervisor, so the count is bounded before anything
# is built for it.
MAX_SUPERVISORS = 1000


def _parse_indices(spec: str, n: int, line: int) -> frozenset[int]:
    out = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        # As for the supervisors count: int() alone would also read a sign
        # or underscores, and refuses digit strings too long to convert.
        try:
            idx = int(part) if part.isdecimal() else None
        except ValueError:
            idx = None
        if idx is None:
            raise FormatError(f"supervisor index {part!r} is not a number", line)
        if not 1 <= idx <= n:
            raise FormatError(f"supervisor index {idx} out of range 1..{n}", line)
        out.add(idx - 1)
    return frozenset(out)


def parse_model(text: str) -> tuple[PlantSpec, SupervisionProfile]:
    """Parse and validate a model file; errors carry line numbers."""
    n: int | None = None
    events: dict[str, tuple[frozenset[int], frozenset[int], int]] = {}
    states: dict[str, tuple[bool, bool, int]] = {}  # name -> (init, legal, line)
    # Transitions go straight into the per-event tables of the plant; the
    # legal ones also list their sources per event and their targets.
    rows: defaultdict[str, dict[str, str]] = defaultdict(dict)
    legal_rows: defaultdict[str, list[str]] = defaultdict(list)
    legal_targets: list[str] = []
    pending_events: list[tuple[str, str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        keyword = tokens[0]
        # Transitions are most of a model file, so they are tested first.
        if keyword == "trans":
            if len(tokens) not in (4, 5):
                raise FormatError("trans needs: src event dst [legal]", lineno)
            src, ev, dst = tokens[1], tokens[2], tokens[3]
            legal = len(tokens) == 5
            if legal and tokens[4] != "legal":
                raise FormatError(f"unknown transition option {tokens[4]!r}", lineno)
            row = rows[ev]
            if src in row:
                raise FormatError(
                    f"duplicate transition from {src!r} on {ev!r}"
                    " (the plant must stay deterministic)", lineno)
            row[src] = dst
            if legal:
                legal_rows[ev].append(src)
                legal_targets.append(dst)
        elif keyword == "supervisors":
            if n is not None:
                raise FormatError("duplicate supervisors directive", lineno)
            # isdecimal, unlike isdigit, admits only digits int() reads; the
            # length test keeps int() off digit strings too long to convert.
            count = tokens[1].lstrip("0") if len(tokens) == 2 and tokens[1].isdecimal() else ""
            if not count:
                raise FormatError("supervisors needs one positive count", lineno)
            if len(count) > len(str(MAX_SUPERVISORS)) or int(count) > MAX_SUPERVISORS:
                raise FormatError(
                    f"supervisors count exceeds the ceiling of {MAX_SUPERVISORS}", lineno)
            n = int(count)
        elif keyword == "event":
            if len(tokens) == 1:
                raise FormatError("event needs a name", lineno)
            obs_spec = ctrl_spec = None
            for extra in tokens[2:]:
                if extra.startswith("obs=") and obs_spec is None:
                    obs_spec = extra[4:]
                elif extra.startswith("ctrl=") and ctrl_spec is None:
                    ctrl_spec = extra[5:]
                else:
                    raise FormatError(f"unknown event option {extra!r}", lineno)
            pending_events.append((tokens[1], obs_spec, ctrl_spec, lineno))
        elif keyword == "state":
            if len(tokens) == 1:
                raise FormatError("state needs a name", lineno)
            # Tokens hold no whitespace and no "#", so "=" is the one
            # character a name can have that it must not.
            name, flags = tokens[1], tokens[2:]
            if "=" in name:
                raise FormatError(f"bad state name {name!r}", lineno)
            if name in states:
                raise FormatError(f"duplicate state {name!r}", lineno)
            if not _STATE_OPTIONS.issuperset(flags):
                unknown = next(f for f in flags if f not in _STATE_OPTIONS)
                raise FormatError(f"unknown state option {unknown!r}", lineno)
            states[name] = ("init" in flags, "legal" in flags, lineno)
        else:
            raise FormatError(f"unknown directive {keyword!r}", lineno)

    if n is None:
        raise FormatError("missing supervisors directive", 1)

    observable = [set() for _ in range(n)]
    controllable = [set() for _ in range(n)]
    for name, obs_spec, ctrl_spec, lineno in pending_events:
        if "=" in name:
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

    names = frozenset(states)
    legal_states = frozenset(name for name, (_i, lgl, _ln) in states.items() if lgl)
    if not (events.keys() >= rows.keys()
            and all(names.issuperset(row) and names.issuperset(row.values())
                    for row in rows.values())
            and legal_states.issuperset(legal_targets)
            and all(map(legal_states.issuperset, legal_rows.values()))):
        raise _first_bad_transition(text, states, events)

    model = PlantSpec(
        events=frozenset(events),
        states=names,
        initial=initial,
        successors={ev: rows.get(ev, {}) for ev in events},
        legal_states=legal_states,
        legal_sources={ev: frozenset(legal_rows.get(ev, ())) for ev in events},
    )
    unreachable = model.states - reachable(model)
    if unreachable:
        worst = min(unreachable, key=lambda s: states[s][2])
        raise FormatError(f"state {worst!r} is unreachable from {initial!r}",
                          states[worst][2])
    profile = SupervisionProfile(tuple(frozenset(o) for o in observable),
                                 tuple(frozenset(c) for c in controllable))
    validate_profile(model, profile)
    return model, profile


def _first_bad_transition(text: str, states: dict, events: dict) -> FormatError:
    """The error for the first transition in file order that names an
    undeclared state or event, or is legal with an illegal endpoint."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens[:1] != ["trans"]:
            continue
        src, ev, dst = tokens[1:4]
        for endpoint in (src, dst):
            if endpoint not in states:
                return FormatError(f"undefined state {endpoint!r}", lineno)
        if ev not in events:
            return FormatError(f"undefined event {ev!r}", lineno)
        if len(tokens) == 5 and not (states[src][1] and states[dst][1]):
            return FormatError(f"legal transition {src} -{ev}-> {dst} must run"
                               " between legal states", lineno)
    raise AssertionError("every transition is well formed")


def serialize_model(model: PlantSpec, profile: SupervisionProfile) -> str:
    """Canonical text for a model; parse/serialize round-trips to a fixpoint."""
    lines = [f"supervisors {profile.n}"]
    for ev in sorted(model.events):
        parts = [f"event {ev}"]
        obs = [str(i + 1) for i in range(profile.n) if ev in profile.observable[i]]
        ctrl = [str(i + 1) for i in range(profile.n) if ev in profile.controllable[i]]
        if obs:
            parts.append("obs=" + ",".join(obs))
        if ctrl:
            parts.append("ctrl=" + ",".join(ctrl))
        lines.append(" ".join(parts))
    for name in sorted(model.states):
        parts = [f"state {name}"]
        if name == model.initial:
            parts.append("init")
        if name in model.legal_states:
            parts.append("legal")
        lines.append(" ".join(parts))
    for (src, ev), dst in sorted(model.delta.items()):
        parts = [f"trans {src} {ev} {dst}"]
        if (src, ev) in model.legal_transitions:
            parts.append("legal")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_model(path: str | Path) -> tuple[PlantSpec, SupervisionProfile]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except IsADirectoryError:
        raise FormatError(f"{path} is a directory, not a model file") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_model(text)


# ---------------------------------------------------------------------------
# Supervisor files (JSON, one per supervisor, plus a defaults file)

def supervisor_to_json(supervisor: Supervisor, result: SynthesisResult) -> dict:
    """One supervisor's file, each estimate named by its sorted plant states."""
    obs = supervisor.observer
    names = [sorted(est) for est in obs.states]
    table = []
    for (k, ev), decision in sorted(supervisor.table.items(),
                                    key=lambda kv: (names[kv[0][0]], kv[0][1])):
        entry = {"state": names[k], "event": ev, "decision": decision.value}
        case = result.provenance.get((supervisor.index, k, ev))
        if case is not None:
            entry["case"] = case.value
        table.append(entry)
    return {
        "supervisor": supervisor.index + 1,
        "observable": sorted(obs.observable),
        "initial": names[0],
        "states": sorted(names),
        "transitions": [
            {"src": src, "event": ev, "dst": dst}
            for src, ev, dst in sorted((names[k], ev, names[j])
                                       for ev, row in obs.moves.items()
                                       for k, j in row.items())
        ],
        "table": table,
    }


def save_supervisors(result: SynthesisResult, directory: str | Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for sup in result.supervisors:
        path = directory / f"supervisor_{sup.index + 1}.json"
        with path.open("w", encoding="utf-8") as f:
            json.dump(supervisor_to_json(sup, result), f, indent=2)
            f.write("\n")
        written.append(path)
    for stale in set(directory.glob("supervisor_*.json")).difference(written):
        stale.unlink()  # left by an earlier save with more supervisors
    defaults_path = directory / "defaults.json"
    defaults_path.write_text(
        json.dumps({"defaults": {ev: dft.value
                                 for ev, dft in sorted(result.defaults.items())}},
                   indent=2) + "\n",
        encoding="utf-8")
    written.append(defaults_path)
    return written


def load_supervisors(directory: str | Path) -> SynthesisResult:
    """Rebuild a :class:`SynthesisResult` from a supervisor directory."""
    directory = Path(directory)
    paths = sorted(directory.glob("supervisor_*.json"))
    if not paths:
        raise FormatError(f"no supervisor_*.json files in {directory}")
    supervisors = []
    provenance: dict = {}
    for path in paths:
        with _malformed(path):
            supervisors.append(_supervisor_from_json(
                json.loads(path.read_text(encoding="utf-8-sig")), provenance))
    supervisors.sort(key=lambda s: s.index)
    if [s.index for s in supervisors] != list(range(len(supervisors))):
        raise FormatError(f"supervisor files in {directory} do not cover 1..n")
    defaults_file = directory / "defaults.json"
    if not defaults_file.exists():
        raise FormatError(f"missing defaults.json in {directory}")
    with _malformed(defaults_file):
        raw = json.loads(defaults_file.read_text(encoding="utf-8-sig"))["defaults"]
        defaults = {ev: FusedDecision(v) for ev, v in raw.items()}
    return SynthesisResult(tuple(supervisors), defaults, provenance)


def _supervisor_from_json(data, provenance: dict) -> Supervisor:
    """One supervisor, its estimates numbered as :func:`~infobs.observation.project`
    numbers them: ``initial`` is 0, then ``states`` in file order."""
    if type(data["supervisor"]) is not int:  # bool is an int subclass
        raise ValueError(f"supervisor must be an integer, not {data['supervisor']!r}")
    index = data["supervisor"] - 1
    observable = _names(data["observable"], "observable")
    states = {_names(raw, f"states[{k}]"): None
              for k, raw in enumerate(_list(data, "states"))}
    initial = _names(data["initial"], "initial")
    if initial not in states:
        raise ValueError(f"initial {sorted(initial)} is not among states")
    ids = {est: k for k, est in enumerate({initial: None} | states)}
    # Each estimate as `states` spells it, so most references are one lookup.
    spelled = {tuple(raw): ids[frozenset(raw)] for raw in data["states"]}

    def state(value, what: str) -> int:
        if type(value) is list:
            try:
                return spelled[tuple(value)]
            except (KeyError, TypeError):  # spelled otherwise, or not names
                pass
        est = _names(value, what)
        if est not in ids:
            raise ValueError(f"{what} {sorted(est)} is not among states")
        return ids[est]

    def add(table: dict, key, k: int, ev, value, what: str) -> None:
        if key in table:
            raise ValueError(f"{what} repeats state {sorted(names[k])} and event {ev!r}")
        table[key] = value

    names = tuple(ids)
    moves: dict[str, dict[int, int]] = {ev: {} for ev in observable}
    for k, t in enumerate(_list(data, "transitions")):
        what = f"transitions[{k}]"
        src, ev = state(t["src"], f"{what}.src"), t["event"]
        dst = state(t["dst"], f"{what}.dst")
        if ev not in moves:
            raise ValueError(f"{what} is on event {ev!r}, which is not observable")
        add(moves[ev], src, src, ev, dst, what)
    table: dict[tuple[int, str], ControlDecision] = {}
    for k, entry in enumerate(_list(data, "table")):
        key = (state(entry["state"], f"table[{k}].state"), entry["event"])
        add(table, key, *key, _member(ControlDecision, entry["decision"]), f"table[{k}]")
        if "case" in entry:
            provenance[(index, *key)] = _member(PolicyCase, entry["case"])
    return Supervisor(Observer(index, observable, names, moves), table)


def _member(enum, value):
    """``enum(value)``, by one dict lookup when ``value`` is a member's value."""
    try:
        return _MEMBERS[enum][value]
    except (KeyError, TypeError):  # the enum raises its own error
        return enum(value)


def _list(data, key: str) -> list:
    if not isinstance(data[key], list):
        raise ValueError(f"{key} must be a list, not {data[key]!r}")
    return data[key]


def _names(value, what: str) -> frozenset[str]:
    """An estimate or an event set: a JSON list of strings, nothing else."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what} must be a list of names, not {value!r}")
    return frozenset(value)


@contextmanager
def _malformed(path: Path):
    """Report a file that is not JSON or lacks the expected shape as a
    :class:`FormatError` naming the file."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from None
    except (AttributeError, IsADirectoryError, TypeError, ValueError) as exc:
        # ValueError covers invalid JSON, bad UTF-8 and unknown enum values.
        raise FormatError(f"{path}: {exc}") from None
