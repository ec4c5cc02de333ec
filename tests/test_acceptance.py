"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (use ``-s`` to see the
summary lines as they print).
"""

import random
import time

import pytest

from infobs import (DISABLE, ENABLE, OFF, ON, WOFF, WON, ABSTAIN, check,
                    closed_loop, default_frame, exhaustive_supervisor_search,
                    fuse, fuse_legacy_pair, guard_transform, oracle_solves,
                    parse_model, serialize_model, synthesize, verify_solution)
from infobs.errors import ControlConflict, UndefinedFusion
from infobs.kripke import Know

from conftest import (FORMULA_SEED, MODELS, composite_delta, legal_rows,
                      random_formula, reference_equivalent)


def report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:2d} {label}: PASS")


def test_criterion_01_fusion_tables():
    started = time.perf_counter()
    legacy_rows = [
        (ON, ON, ENABLE), (ON, WOFF, ENABLE), (ON, ABSTAIN, ENABLE),
        (OFF, OFF, DISABLE), (OFF, ON, DISABLE), (OFF, ABSTAIN, DISABLE),
        (WOFF, OFF, DISABLE), (WOFF, WOFF, DISABLE), (WOFF, ABSTAIN, DISABLE),
        (ABSTAIN, ABSTAIN, ENABLE),
    ]
    for cd_i, cd_j, expected in legacy_rows:
        assert fuse_legacy_pair(cd_i, cd_j) is expected
        assert fuse_legacy_pair(cd_j, cd_i) is expected
    for dft in (ENABLE, DISABLE):
        assert fuse([ON, ABSTAIN], dft) is ENABLE
        assert fuse([OFF, WON], dft) is DISABLE
        assert fuse([WON, ABSTAIN], dft) is ENABLE
        assert fuse([WOFF, ABSTAIN, ABSTAIN], dft) is DISABLE
        assert fuse([ABSTAIN, ABSTAIN], dft) is dft
    with pytest.raises(ControlConflict):
        fuse([ON, OFF], ENABLE)
    with pytest.raises(UndefinedFusion):
        fuse([WON, WOFF], DISABLE)
    assert time.perf_counter() - started < 1.0
    report(1, "fusion tables")


def test_criterion_02_legacy_gap_phenomenon(legacy_gap, legacy_gap_frame):
    started = time.perf_counter()
    model, profile = legacy_gap
    frame = legacy_gap_frame
    legacy = check(frame, model, profile, "legacy", worlds="all",
                   relation="total")
    assert not legacy.holds
    assert legacy.counterexample.string == ("g", "a")
    assert check(frame, model, profile, "corrected").holds
    assert check(frame, model, profile, "controllability").holds
    result = synthesize(model, profile, frame)
    loop = (0, composite_delta(closed_loop(model, profile, result)))
    expected = (0, {(0, "a"): 1, (1, "g"): 2})
    assert reference_equivalent(loop, expected).equal
    assert reference_equivalent(loop, legal_rows(model)).equal
    assert oracle_solves(model, profile, result, 6).ok
    assert time.perf_counter() - started < 1.0
    report(2, "illegal-branch gap fixture")


def test_criterion_03_conditional_bets_separation(conditional_bets,
                                                  conditional_bets_frame,
                                                  conditional_bets_mirror,
                                                  mirror_frame):
    started = time.perf_counter()
    model, profile = conditional_bets
    frame = conditional_bets_frame
    cp = check(frame, model, profile, "cp")
    assert not cp.holds and cp.counterexample.string == ()
    assert check(frame, model, profile, "corrected").holds
    assert check(frame, model, profile, "extended").holds
    # The approve-only failure lives on the legality mirror of the fixture.
    mirror_model, mirror_profile = conditional_bets_mirror
    da = check(mirror_frame, mirror_model, mirror_profile, "da")
    assert not da.holds and da.counterexample.string == ()
    assert check(mirror_frame, mirror_model,
                 mirror_profile, "corrected").holds
    assert check(mirror_frame, mirror_model, mirror_profile, "extended").holds

    result = synthesize(model, profile, frame)
    decisions = [s.table[(0, "g")] for s in result.supervisors]
    assert decisions == [WOFF, WOFF]
    assert fuse(decisions, result.defaults["g"]) is DISABLE
    loop = composite_delta(closed_loop(model, profile, result))
    for word in (("a",), ("b",), ("a", "b"), ("b", "a")):
        here = 0
        for ev in word:
            here = loop.get((here, ev))
        assert here is not None
        assert (here, "g") in loop, f"g must be enabled after {word}"
    assert (0, "g") not in loop
    assert reference_equivalent((0, loop), legal_rows(model)).equal
    assert oracle_solves(model, profile, result, 6).ok
    assert time.perf_counter() - started < 1.0
    report(3, "conditional-decision fixture separations")


def test_criterion_04_coupled_split_equivalence(n2_instances):
    assert len(n2_instances) >= 200
    disagreements = 0
    for model, profile, frame in n2_instances:
        coupled = check(frame, model, profile, "corrected")
        split = check(frame, model, profile, "split")
        disagreements += (coupled.holds != split.holds)
    assert disagreements == 0
    report(4, "coupled/split equivalence on 200+ instances")


def test_criterion_05_controllability_separation(n2_instances):
    disagreements = 0
    for model, profile, frame in n2_instances:
        left = (check(frame, model, profile, "controllability").holds
                and check(frame, model, profile, "corrected").holds)
        right = check(frame, model, profile, "legacy",
                      worlds="legal", events="all",
                      relation="partial").holds
        disagreements += (left != right)
    assert disagreements == 0
    report(5, "controllability separation on the instance set")


def test_criterion_06_guard_transform_encapsulation(n2_instances):
    rng = random.Random(FORMULA_SEED)
    violations = 0
    frames = 0
    for model, profile, frame in n2_instances:
        frames += 1
        events = sorted(model.events)
        for _ in range(3):
            phi = random_formula(rng, events, profile.n, 4)
            guarded = guard_transform(phi)
            for k, w in enumerate(frame.worlds):
                if frame.world_legal(w):
                    if (frame.eval(k, phi, "partial")
                            != frame.eval(k, guarded, "total")):
                        violations += 1
                else:
                    if not frame.eval(k, Know(0, phi), "partial"):
                        violations += 1
    assert frames >= 200
    assert violations == 0
    report(6, "guard-transform encapsulation and vacuity")


def test_criterion_07_synthesis_soundness(synthesized_instances):
    assert len(synthesized_instances) >= 200
    failures = 0
    for model, profile, result in synthesized_instances:
        try:
            if not verify_solution(model, profile, result).equal:
                failures += 1
        except (ControlConflict, UndefinedFusion):
            failures += 1
    assert failures == 0
    report(7, "synthesis soundness on 200+ successes")


def test_criterion_08_desk_scale_completeness(tiny_instances):
    started = time.perf_counter()
    assert len(tiny_instances) >= 50
    disagreements = 0
    for model, profile, frame, depth, holds in tiny_instances:
        found = exhaustive_supervisor_search(model, profile, depth)
        disagreements += (found.exists != holds)
    assert disagreements == 0
    assert time.perf_counter() - started < 300
    report(8, "checker matches exhaustive search at desk scale")


def test_criterion_09_weakening_chain(n2_instances, conditional_bets,
                                      conditional_bets_frame,
                                      conditional_bets_mirror, mirror_frame,
                                      legacy_gap, legacy_gap_frame):
    violations = 0
    for model, profile, frame in n2_instances:
        extended = check(frame, model, profile, "extended").holds
        corrected = check(frame, model, profile, "corrected").holds
        cp = check(frame, model, profile, "cp").holds
        da = check(frame, model, profile, "da").holds
        strong_cp = check(frame, model, profile,
                          "strong_cp").holds
        strong_da = check(frame, model, profile,
                          "strong_da").holds
        for stronger, weaker in ((corrected, extended), (cp, extended),
                                 (da, extended), (strong_cp, cp),
                                 (strong_da, da)):
            violations += (stronger and not weaker)
    assert violations == 0
    # Strictness witnesses from the fixtures of criteria 2 and 3.
    model, profile = conditional_bets
    assert check(conditional_bets_frame, model, profile, "extended").holds
    assert not check(conditional_bets_frame, model, profile,
                     "cp").holds
    model, profile = conditional_bets_mirror
    assert check(mirror_frame, model, profile, "extended").holds
    assert not check(mirror_frame, model, profile, "da").holds
    model, profile = legacy_gap
    assert check(legacy_gap_frame, model, profile, "extended").holds
    assert not check(legacy_gap_frame, model, profile, "legacy",
                     worlds="all", relation="total").holds
    report(9, "weakening chain with strict witnesses")


def test_criterion_10_round_trip_and_deterministic_reporting():
    names = ["legacy_gap", "conditional_bets", "conditional_bets_mirror",
             "diamond_unsolvable", "forced_disable"]
    for name in names:
        text = (MODELS / f"{name}.des").read_text()
        model, profile = parse_model(text)
        once = serialize_model(model, profile)
        assert serialize_model(*parse_model(once)) == once

    # Deterministic shortest-counterexample reporting, twice from scratch.
    def snapshot():
        out = []
        model, profile = parse_model((MODELS / "legacy_gap.des").read_text())
        frame = default_frame(model, profile)
        legacy = check(frame, model, profile, "legacy",
                       worlds="all", relation="total")
        out.append((legacy.counterexample.event, legacy.counterexample.string))
        model, profile = parse_model(
            (MODELS / "diamond_unsolvable.des").read_text())
        frame = default_frame(model, profile)
        extended = check(frame, model, profile, "extended")
        out.append((extended.counterexample.string,
                    extended.counterexample.conflict_string))
        model, profile = parse_model(
            (MODELS / "conditional_bets.des").read_text())
        frame = default_frame(model, profile)
        cp = check(frame, model, profile, "cp")
        out.append((cp.counterexample.event, cp.counterexample.string))
        return out

    first, second = snapshot(), snapshot()
    assert first == second
    assert first[0] == ("g", ("g", "a"))
    assert first[1] == (("a",), ())
    assert first[2] == ("g", ())
    report(10, "file round-trips and deterministic counterexamples")
