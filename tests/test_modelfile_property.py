"""Property test of the model file parser over generated texts.

Every text either parses or raises :class:`FormatError` naming a line, and
whatever parses serializes to a fixed point of parse-then-serialize.  The
parser also agrees with ``reference_parse_model`` on every text, models and
errors alike, and builds no pair table: the ``delta`` and
``legal_transitions`` a parsed model derives when asked equal the
reference's.  Each text is a valid model with a few generated lines
inserted; those mix the format's own directives with near-misses (numbers
``int`` rejects, names with reserved characters, unknown options) and
arbitrary text, so a fair share of the texts parse.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from infobs import parse_model, serialize_model  # noqa: E402
from infobs.errors import FormatError  # noqa: E402

from conftest import reference_parse_model  # noqa: E402

NUMBERS = st.sampled_from(["1", "2", "3", "0", "01", "-1", "+1", "x",
                           "²", "٣", "1_0"])
NAMES = st.sampled_from(["q0", "q1", "q2", "a", "b", "init", "legal",
                         "a=b", "qé"])
INDICES = st.sampled_from(["1", "2", "1,2", "2,1", "", "1,,3", "0", "9",
                           "²", "+1", "a"])
EVENT_OPTION = st.builds("{}={}".format, st.sampled_from(["obs", "ctrl", "foo"]),
                         INDICES)
STATE_OPTIONS = st.lists(st.sampled_from(["init", "legal", "final"]), max_size=3)

LINE = st.one_of(
    st.builds("supervisors {}".format, NUMBERS),
    st.builds(lambda name, opts: " ".join(["event", name, *opts]),
              NAMES, st.lists(EVENT_OPTION, max_size=3)),
    st.builds(lambda name, opts: " ".join(["state", name, *opts]),
              NAMES, STATE_OPTIONS),
    st.builds(lambda src, ev, dst, legal: f"trans {src} {ev} {dst}{legal}",
              NAMES, NAMES, NAMES, st.sampled_from(["", " legal", " maybe"])),
    st.sampled_from(["", "# comment", "banana", "trans q0", "event",
                     "state q0 init legal  # start"]),
    st.text(max_size=12),
)


@st.composite
def model_texts(draw):
    """A model whose states form a chain from the initial state, its lines
    shuffled, with a few generated lines inserted; without them it parses."""
    n = draw(st.integers(1, 3))
    events = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                           unique=True))
    indices = st.lists(st.integers(1, n), unique=True).map(
        lambda ks: ",".join(map(str, ks)))
    lines = [f"supervisors {n}"]
    for ev in events:
        lines.append(f"event {ev} obs={draw(indices)} ctrl={draw(indices)}")
    legal = [True] + [draw(st.booleans()) for _ in range(draw(st.integers(0, 3)))]
    for k, is_legal in enumerate(legal):
        lines.append(f"state q{k}{' init' if k == 0 else ''}"
                     f"{' legal' if is_legal else ''}")
        if k:
            src, ev = k - 1, draw(st.sampled_from(events))
            both = legal[src] and is_legal
            tag = " legal" if both and draw(st.booleans()) else ""
            lines.append(f"trans q{src} {ev} q{k}{tag}")
    lines = draw(st.permutations(lines))
    for line in draw(st.lists(LINE, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(model_texts())
def test_parse_or_refuse_with_a_line_and_round_trip(text):
    try:
        parsed = parse_model(text)
    except FormatError as exc:
        assert exc.line is not None
        return
    once = serialize_model(*parsed)
    assert parse_model(once) == parsed
    assert serialize_model(*parse_model(once)) == once


def _outcome(parse, text):
    """The parsed model and profile, or the error's message and line."""
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc), exc.line


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(model_texts())
def test_parse_matches_the_reference_and_derives_its_pairs(text):
    ours = _outcome(parse_model, text)
    theirs = _outcome(reference_parse_model, text)
    assert ours == theirs
    if isinstance(ours[0], str):  # a FormatError
        return
    model, reference = ours[0], theirs[0]
    assert not {"delta", "legal_transitions"} & vars(model).keys()
    assert model.delta == reference.delta
    assert model.legal_transitions == reference.legal_transitions
