"""Command-line interface.

Exit codes are stable: 0 when the checked property holds (or the command
succeeded), 1 when a condition, verification, or oracle run fails, 2 for
usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import oracle as oracle_mod
from .automata import format_word
from .conditions import CONDITIONS, Verdict, check, default_frame
from .dot import composite_to_dot, model_to_dot
from .errors import InfobsError, ModelError, SynthesisError
from .modelfile import (load_model, load_supervisors, save_supervisors,
                        supervisor_to_json)
from .observation import World
from .repl import run_simulation
from .synthesis import synthesize, verify_solution

#: ``--condition`` choices: every row of the condition table but
#: controllability, which ``synthesize`` checks on its own.
CHOICES = tuple(c.replace("_", "-") for c in CONDITIONS if c != "controllability")


class UsageError(Exception):
    pass


def _world_json(w: World) -> dict:
    return {"plant": w.plant, "estimates": [sorted(e) for e in w.estimates]}


def verdict_to_json(verdict: Verdict) -> dict:
    out: dict = {"condition": verdict.condition, "holds": verdict.holds}
    if verdict.defaults is not None:
        out["defaults"] = {ev: dft.value for ev, dft in sorted(verdict.defaults.items())}
    else:
        out["defaults"] = None
    ce = verdict.counterexample
    if ce is None:
        out["counterexample"] = None
    else:
        payload = {"event": ce.event, "string": " ".join(ce.string),
                   "world": _world_json(ce.world)}
        if ce.conflict_world is not None:
            payload["conflict"] = {"string": " ".join(ce.conflict_string or ()),
                                   "world": _world_json(ce.conflict_world)}
        out["counterexample"] = payload
    return out


def _print_json(payload) -> None:
    # Written piece by piece: a synthesized payload runs to hundreds of KB,
    # and the whole string would be one more copy of it per command.
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _print_verdict(verdict: Verdict, as_json: bool) -> None:
    if as_json:
        _print_json(verdict_to_json(verdict))
        return
    print(f"condition {verdict.condition}: {'holds' if verdict.holds else 'fails'}")
    if verdict.holds and verdict.defaults:
        rendered = ", ".join(f"{ev}={dft.value}"
                             for ev, dft in sorted(verdict.defaults.items()))
        print(f"defaults: {rendered}")
    ce = verdict.counterexample
    if ce is not None:
        print(f"counterexample: event {ce.event} after {format_word(ce.string)}"
              f" at {ce.world.pretty()}")
        if ce.conflict_world is not None:
            print(f"conflicts with: after {format_word(ce.conflict_string or ())}"
                  f" at {ce.conflict_world.pretty()}")


def _run_check(args) -> int:
    which = args.condition.replace("-", "_")
    try:
        relation, worlds = CONDITIONS[which].domains(args.condition, args.relation,
                                                     args.worlds)
    except ModelError as exc:
        raise UsageError(str(exc)) from None
    verdict = check(default_frame(*load_model(args.file)), which, relation, worlds)
    _print_verdict(verdict, args.json)
    return 0 if verdict.holds else 1


def _run_synthesize(args) -> int:
    try:
        # The frame is let go before the output is written.
        result = synthesize(default_frame(*load_model(args.file)))
    except SynthesisError as exc:
        if args.json:
            payload = verdict_to_json(exc.verdict)
            payload["holds"] = False
            _print_json(payload)
        else:
            print(f"synthesis failed: {exc}")
            _print_verdict(exc.verdict, False)
        return 1
    save_supervisors(result, args.output)
    if args.json:
        payload = {
            "holds": True,
            "defaults": {ev: dft.value for ev, dft in sorted(result.defaults.items())},
            "supervisors": [supervisor_to_json(s, result) for s in result.supervisors],
        }
        _print_json(payload)
    else:
        print(f"wrote {len(result.supervisors)} supervisors to {args.output}")
        rendered = ", ".join(f"{ev}={dft.value}"
                             for ev, dft in sorted(result.defaults.items()))
        print(f"defaults: {rendered}" if rendered else "defaults: (none)")
    return 0


def _check_depth(depth: int | None) -> None:
    # A negative bound enumerates no word at all and would pass vacuously;
    # the oracles refuse a bound above their ceiling, so refuse it up front.
    if depth is not None and not 0 <= depth <= oracle_mod.MAX_ORACLE_DEPTH:
        raise UsageError(f"--depth must be between 0 and"
                         f" {oracle_mod.MAX_ORACLE_DEPTH}, got {depth}")


def _run_verify(args) -> int:
    _check_depth(args.depth)
    model, profile = load_model(args.file)
    result = load_supervisors(args.supervisors)
    verdict = verify_solution(model, profile, result)
    check = oracle_mod.oracle_solves(model, profile, result, k=args.depth)
    if verdict.equal:
        print("closed loop equals the legal language")
    else:
        print("closed loop differs from the legal language;"
              f" distinguishing word: {format_word(verdict.counterexample)}")
    if check.ok:
        print(f"oracle cross-check at depth {args.depth}: pass")
    else:
        print(f"oracle cross-check at depth {args.depth}: violation of"
              f" {check.rule} at event {check.event}"
              f" after {format_word(check.string)}")
    return 0 if (verdict.equal and check.ok) else 1


def _run_simulate(args) -> int:
    frame = default_frame(*load_model(args.file))
    if args.supervisors:
        result = load_supervisors(args.supervisors)
    else:
        try:
            result = synthesize(frame)
        except SynthesisError as exc:
            print(f"cannot simulate: {exc}")
            _print_verdict(exc.verdict, False)
            return 1
    run_simulation(frame, result, sys.stdin, sys.stdout)
    return 0


def _run_export_dot(args) -> int:
    model, profile = load_model(args.file)
    if args.composite:
        from .observation import build_composite
        text = composite_to_dot(build_composite(model, profile), model)
    else:
        text = model_to_dot(model)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _run_oracle(args) -> int:
    for flag, value, modes in (("--condition", args.condition, ("condition",)),
                               ("--supervisors", args.supervisors, ("solve",)),
                               ("--depth", args.depth, ("solve", "search"))):
        if value is not None and args.mode not in modes:
            raise UsageError(f"{flag} does not apply to --mode {args.mode}")
    _check_depth(args.depth)
    model, profile = load_model(args.file)
    if args.mode == "condition":
        which = (args.condition or "extended").replace("-", "_")
        value = oracle_mod.oracle_condition(model, profile, which)
        print(f"oracle {which}: {'holds' if value else 'fails'}")
        return 0 if value else 1
    if args.mode == "solve":
        if args.supervisors:
            result = load_supervisors(args.supervisors)
        else:
            try:
                result = synthesize(default_frame(model, profile))
            except SynthesisError as exc:
                print(f"cannot synthesize supervisors to check: {exc}")
                return 1
        depth = args.depth if args.depth is not None else oracle_mod.DEFAULT_ORACLE_DEPTH
        verdict = oracle_mod.oracle_solves(model, profile, result, k=depth)
        if verdict.ok:
            print(f"solves the control problem up to depth {depth}")
            return 0
        print(f"violation of {verdict.rule} at event {verdict.event}"
              f" after {format_word(verdict.string)}")
        return 1
    # mode == "search"
    depth = (args.depth if args.depth is not None
             else min(len(model.states) + 1, oracle_mod.MAX_ORACLE_DEPTH))
    found = oracle_mod.exhaustive_supervisor_search(model, profile, depth)
    if found.exists:
        print(f"a solving supervisor assignment exists (checked depth {depth})")
        return 0
    print("no supervisor assignment solves the problem")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infobs",
        description="Decentralized supervisory control workbench: condition"
                    " checking, knowledge-based synthesis, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="decide a condition for a model file")
    chk.add_argument("file")
    chk.add_argument("--condition", choices=CHOICES, default="extended")
    chk.add_argument("--relation", choices=("partial", "total"), default=None)
    chk.add_argument("--worlds", choices=("legal", "all"), default=None)
    chk.add_argument("--json", action="store_true")
    chk.set_defaults(func=_run_check)

    synth = sub.add_parser("synthesize", help="synthesize supervisors")
    synth.add_argument("file")
    synth.add_argument("-o", "--output", required=True,
                       help="directory for supervisor JSON files")
    synth.add_argument("--json", action="store_true")
    synth.set_defaults(func=_run_synthesize)

    verify = sub.add_parser("verify", help="verify supervisors against a model")
    verify.add_argument("file")
    verify.add_argument("--supervisors", required=True)
    verify.add_argument("--depth", type=int, default=oracle_mod.DEFAULT_ORACLE_DEPTH)
    verify.set_defaults(func=_run_verify)

    simulate = sub.add_parser("simulate", help="interactive event stepping")
    simulate.add_argument("file")
    simulate.add_argument("--supervisors", default=None)
    simulate.set_defaults(func=_run_simulate)

    export = sub.add_parser("export-dot", help="emit a GraphViz graph")
    export.add_argument("file")
    export.add_argument("--composite", action="store_true",
                        help="export the plant/observer composite instead of the plant")
    export.add_argument("-o", "--output", default=None)
    export.set_defaults(func=_run_export_dot)

    orc = sub.add_parser("oracle", help="run a brute-force oracle")
    orc.add_argument("file")
    orc.add_argument("--mode", choices=("condition", "solve", "search"),
                     required=True)
    orc.add_argument("--condition", choices=CHOICES, default=None)
    orc.add_argument("--supervisors", default=None)
    orc.add_argument("--depth", type=int, default=None)
    orc.set_defaults(func=_run_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InfobsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing input or an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
