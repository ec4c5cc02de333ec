"""The four workloads: their seeded inputs, commands, and output checks.

Each workload stresses a different layer (see ``BENCHMARK.json`` for why it
was chosen).  :func:`build` generates and writes the model files, which is
the part of set-up a user would also pay; :meth:`Workload.prepare` then
computes the expected outputs, which the benchmark alone needs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import gen
import reference

CONDITIONS = reference.CONDITIONS

#: ``oracle --mode search`` refuses instances above this many table cells.
SEARCH_CELLS = 10

#: Depth of the string-level replay in ``verify`` and ``oracle --mode solve``.
SOLVE_DEPTH = "3"


@dataclass
class Workload:
    name: str
    work: str
    commands: list[list[str]] = field(default_factory=list)
    models: list[gen.Model] = field(default_factory=list)
    # Per command: the index of its model, and what kind of check it gets.
    meta: list[tuple[int, str]] = field(default_factory=list)
    expected: list = field(default_factory=list)

    def add(self, model_index: int, kind: str, argv: list[str]) -> None:
        self.commands.append(argv)
        self.meta.append((model_index, kind))

    def prepare(self) -> None:
        """Compute the expected output of every command that has one."""
        frames: dict[int, reference.Frame] = {}
        for (index, kind), argv in zip(self.meta, self.commands):
            if kind in ("check", "synthesize") and self.models[index].windows:
                if index not in frames:
                    frames[index] = reference.Frame(self.models[index])
                condition = (argv[argv.index("--condition") + 1]
                             if kind == "check" else "extended")
                self.expected.append(reference.check_json(frames[index], condition))
            else:
                self.expected.append(None)

    def verify(self, outputs: list[tuple[int, str] | None]) -> list[str]:
        """Problems with one pass's outputs; failed commands are skipped."""
        problems: list[str] = []
        by_key: dict[tuple, int] = {}
        for k, (out, (index, kind), argv, want) in enumerate(
                zip(outputs, self.meta, self.commands, self.expected)):
            if out is None:
                continue
            rc, text = out
            if rc not in (0, 1):
                problems.append(f"command {k} ({' '.join(argv[:2])}): exit {rc}")
            elif kind == "check" and want is not None:
                problems += _product_check(k, rc, text, want)
            elif kind == "synthesize" and want is not None:
                problems += _synthesized(k, rc, text, want, self.models[index].n)
            elif kind in ("verify", "solve") and rc != 0:
                problems.append(f"command {k} ({kind}): exit {rc}: {text.strip()}")
            else:
                condition = (argv[argv.index("--condition") + 1]
                             if "--condition" in argv else None)
                by_key[(index, kind, condition)] = rc
        # The oracle is the reference for each check; a synthesized solution
        # must satisfy the extended condition and be found by the search.
        for (index, kind, condition), rc in by_key.items():
            other = by_key.get((index, "oracle-condition", condition))
            if kind == "check" and other is not None and other != rc:
                problems.append(f"instance {index}: check {condition} exits"
                                f" {rc}, oracle exits {other}")
            if kind == "synthesize" and rc == 0:
                for key in ((index, "oracle-condition", "extended"),
                            (index, "search", None)):
                    if by_key.get(key, 0) != 0:
                        problems.append(f"instance {index}: synthesize succeeds"
                                        f" but {key[1]} {key[2] or ''} fails")
        return problems


def _product_check(k, rc, text, want) -> list[str]:
    try:
        got = json.loads(text)
    except ValueError:
        return [f"command {k}: output is not JSON"]
    if got != want or rc != (0 if want["holds"] else 1):
        return [f"command {k}: check {want['condition']} printed"
                f" {json.dumps(got)[:300]} (exit {rc}), expected"
                f" {json.dumps(want)[:300]}"]
    return []


def _synthesized(k, rc, text, want, n) -> list[str]:
    try:
        got = json.loads(text)
    except ValueError:
        return [f"command {k}: output is not JSON"]
    if (rc != 0 or got.get("holds") is not True
            or got.get("defaults") != want["defaults"]
            or len(got.get("supervisors", ())) != n):
        return [f"command {k}: synthesize exit {rc}, holds {got.get('holds')},"
                f" defaults {got.get('defaults')}, expected {want['defaults']}"]
    return []


# ---------------------------------------------------------------------------
# Workload definitions

#: Component sizes per plant.  Sizes are fixed so that every seed loads the
#: same amount of work; the seed draws transitions, forbidden pairs and
#: control sets.
CHECK_PRODUCT = ([4, 4, 5, 5], [5, 4, 4, 5], [4, 5, 5, 4], [5, 5, 4, 4])
SYNTH_VERIFY = ([4, 4, 5, 5], [5, 4, 4, 5], [4, 5, 5, 4], [5, 5, 4, 4])
BIG_PLANT = ([4, 4, 4, 4, 4], [3, 4, 4, 4, 5], [4, 4, 4, 4, 4])
SWEEP_INSTANCES = 180


def _write(work: Path, name: str, model: gen.Model) -> str:
    path = work / f"{name}.des"
    path.write_text(model.to_des(), encoding="utf-8")
    return str(path)


def build(name: str, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(name, str(work))
    if name == "check-product":
        # Supervisor 1 sees one component, so its classes hold a quarter or
        # more of the worlds: knowledge evaluation dominates.
        # Supervisor 1 sees one component, so its classes hold a quarter or
        # more of the worlds: knowledge evaluation dominates.
        windows = [(0,), (1, 2), (2, 3)]
        for p, sizes in enumerate(CHECK_PRODUCT):
            wl.models.append(gen.product_model(rng, sizes, windows, 5, 0.3))
            path = _write(work, f"plant{p}", wl.models[-1])
            for condition in CONDITIONS:
                wl.add(p, "check", ["check", path, "--condition", condition,
                                    "--json"])
    elif name == "synth-verify":
        windows = [(0, 1), (1, 2), (2, 3)]
        for p, sizes in enumerate(SYNTH_VERIFY):
            wl.models.append(gen.product_model(rng, sizes, windows, 5, 0.5))
            path = _write(work, f"plant{p}", wl.models[-1])
            out = str(work / f"supervisors{p}")
            wl.add(p, "synthesize", ["synthesize", path, "-o", out, "--json"])
            wl.add(p, "verify", ["verify", path, "--supervisors", out,
                                 "--depth", SOLVE_DEPTH])
            wl.add(p, "solve", ["oracle", path, "--mode", "solve",
                                "--supervisors", out, "--depth", SOLVE_DEPTH])
    elif name == "big-plant":
        # Every supervisor misses one component, so classes stay small and
        # parsing, validation, projection and composition dominate.
        for p, sizes in enumerate(BIG_PLANT):
            windows = [tuple(c for c in range(len(sizes)) if c != miss)
                       for miss in range(3)]
            wl.models.append(gen.product_model(rng, sizes, windows, 6, 0.5))
            path = _write(work, f"plant{p}", wl.models[-1])
            for condition in ("extended", "cp", "da"):
                wl.add(p, "check", ["check", path, "--condition", condition,
                                    "--json"])
    elif name == "oracle-sweep":
        for p in range(SWEEP_INSTANCES):
            model = gen.tiny_model(rng)
            wl.models.append(model)
            path = _write(work, f"tiny{p}", model)
            for condition in CONDITIONS:
                wl.add(p, "check", ["check", path, "--condition", condition])
                wl.add(p, "oracle-condition", ["oracle", path, "--mode",
                                               "condition", "--condition",
                                               condition])
            wl.add(p, "synthesize", ["synthesize", path, "-o",
                                     str(work / f"sup{p}")])
            if gen.table_cells(model) <= SEARCH_CELLS:
                wl.add(p, "search", ["oracle", path, "--mode", "search"])
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl


WORKLOADS = ("check-product", "synth-verify", "big-plant", "oracle-sweep")
