"""DOT (GraphViz) export for the plant and the composite."""

from __future__ import annotations

from .automata import PlantSpec
from .observation import Composite, World


def _quote(name: str) -> str:
    return '"' + name.replace('"', r'\"') + '"'


def model_to_dot(model: PlantSpec) -> str:
    """Plant graph; legal states get double borders, illegal edges are dashed."""
    lines = ["digraph plant {", "  rankdir=LR;", '  node [shape=circle];']
    for state in sorted(model.states):
        peripheries = 2 if state in model.legal_states else 1
        lines.append(f"  {_quote(state)} [peripheries={peripheries}];")
    lines.append(f"  __start [shape=point];")
    lines.append(f"  __start -> {_quote(model.initial)};")
    for (src, ev), dst in sorted(model.delta.items()):
        style = "solid" if (src, ev) in model.legal_transitions else "dashed"
        lines.append(f"  {_quote(src)} -> {_quote(dst)}"
                     f" [label={_quote(ev)}, style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _world_label(w: World) -> str:
    # Components stacked vertically: plant state on top, then one estimate
    # per supervisor in order.
    rows = [w.plant] + ["{" + ",".join(sorted(est)) + "}" for est in w.estimates]
    return "\\n".join(rows)


def composite_to_dot(composite: Composite, model: PlantSpec) -> str:
    """Composite graph with stacked component labels."""
    lines = ["digraph composite {", "  rankdir=LR;", '  node [shape=box];']
    for k, w in enumerate(composite.worlds):
        peripheries = 2 if w.plant in model.legal_states else 1
        lines.append(f"  w{k} [label={_quote(_world_label(w))}"
                     f", peripheries={peripheries}];")
    lines.append(f"  __start [shape=point];")
    lines.append(f"  __start -> w0;")
    moves = iter(composite.edges)  # ordered as the node names sort, then by event
    for src, ev, dst in sorted(zip(moves, moves, moves), key=lambda m: (f"w{m[0]}", m[1])):
        lines.append(f"  w{src} -> w{dst} [label={_quote(ev)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
