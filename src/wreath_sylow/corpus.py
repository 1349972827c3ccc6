"""Recorded worked examples with their expected outcomes.

Each case builds a normal closure from generator words, runs the decision
engine and compares against the recorded expectation; the uniserial case
checks the cyclic-generator test on a two-summand vector directly.  The
corpus doubles as the CLI ``corpus`` command and as regression data for
the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complements import (
    REASON_NOT_SUMMAND,
    REASON_SOCLE_GAP,
    closure_handle,
    complement_texts,
    decide,
    scale_orbit,
    verify_complement,
)
from .tower import tower
from .uniserial import STYLE_CO_SHIFT, STYLE_PREFIX, generates_uniserial
from .words import parse_word


@dataclass(frozen=True)
class DecisionCase:
    name: str
    p: int
    n: int
    gen_words: tuple[str, ...]
    expect_has: bool
    expect_style: Optional[str] = None
    expect_levels: Optional[tuple[int, ...]] = None
    expect_reason: Optional[str] = None
    expect_complement_exponent: Optional[int] = None


# gamma is the product of the three shift_0-conjugates of shift_1
_GAMMA = "s1 * (s1 ^ s0) * (s1 ^ (s0 * s0))"
# delta couples a level-2 shift with a conjugated level-3 commutator pattern
_DELTA = "s2 * ((~s3 * (s3 ^ s1)) ^ s0)"

DECISION_CASES: tuple[DecisionCase, ...] = (
    DecisionCase(
        "closure of shift_0 in the height-3 tower, p=3",
        3, 3, ("s0",),
        expect_has=True, expect_style=STYLE_CO_SHIFT, expect_levels=(1, 2),
        expect_complement_exponent=2,
    ),
    DecisionCase(
        "closure of gamma * shift_2 in the height-3 tower, p=3",
        3, 3, (f"({_GAMMA}) * s2",),
        expect_has=True, expect_style=STYLE_PREFIX, expect_levels=(1,),
        expect_complement_exponent=4,
    ),
    DecisionCase(
        "same generator one level higher: no complement (socle gap)",
        3, 4, (f"({_GAMMA}) * s2",),
        expect_has=False, expect_reason=REASON_SOCLE_GAP,
    ),
    DecisionCase(
        "closure of delta in the height-4 tower: not a direct summand",
        3, 4, (_DELTA,),
        expect_has=False, expect_reason=REASON_NOT_SUMMAND,
    ),
    DecisionCase(
        "closure of shift_0 * shift_1 in the height-2 tower, p=3",
        3, 2, ("s0 * s1",),
        expect_has=True, expect_style=STYLE_CO_SHIFT, expect_levels=(1,),
        expect_complement_exponent=1,
    ),
)


def run_decision_case(case: DecisionCase) -> dict:
    tw = tower(case.p, case.n)
    gens = [parse_word(tw, w) for w in case.gen_words]
    handle = closure_handle(tw, gens)
    decision = decide(handle)
    ok = decision.has_complement == case.expect_has
    if case.expect_style is not None:
        ok = ok and decision.style == case.expect_style
    if case.expect_levels is not None:
        ok = ok and decision.levels == case.expect_levels
    if case.expect_reason is not None:
        ok = ok and decision.reason == case.expect_reason
    detail = {
        "depth": handle.j,
        "verdict": "HasComplement" if decision.has_complement else "NoComplement",
        "style": decision.style,
        "levels": list(decision.levels),
        "reason": decision.reason,
        "complement": complement_texts(handle, decision),
    }
    if decision.has_complement:
        cert = verify_complement(handle, decision)
        ok = ok and cert.passed
        detail["certificate"] = dict(cert.checks)
        if case.expect_complement_exponent is not None:
            ok = ok and cert.numbers["complement_exponent"] == case.expect_complement_exponent
    return {"name": case.name, "ok": ok, "detail": detail}


def run_uniserial_case() -> dict:
    """The two-summand vector that fails the projection condition.

    In the level-2 tail of the p=3 height-4 tower, take the vector with
    summands (1,0,...,0) and (0,0,0,-1,1,0,0,0,0): its second summand lies
    in the augmentation subspace while the first does not, yet the spun
    module is strictly bigger than the one summand alone generates, so the
    vector does not generate a full-length uniserial submodule.
    """
    tw = tower(3, 4)
    coords = [0] * 18
    coords[0] = 1
    coords[9 + 3] = -1 % 3
    coords[9 + 4] = 1
    first_outside_aug = sum(coords[:9]) % 3 != 0
    second_inside_aug = sum(coords[9:]) % 3 == 0
    uniserial = generates_uniserial(tw, 2, tuple(coords))
    return {
        "name": "two-summand vector: outside-augmentation alone is not enough",
        "ok": not uniserial and first_outside_aug and second_inside_aug,
        "detail": {
            "generates_uniserial": uniserial,
            "summand0_outside_augmentation": first_outside_aug,
            "summand1_inside_augmentation": second_inside_aug,
        },
    }


def run_scale_invariance_case() -> dict:
    """The gamma * shift_2 closure moves under the level-2 scaling map, its complement does not."""
    tw = tower(3, 3)
    gens = [parse_word(tw, f"({_GAMMA}) * s2")]
    handle = closure_handle(tw, gens)
    orbit = scale_orbit(handle)
    moved = any(not same for _, _, same in orbit)
    moved_at_2 = not orbit[2][2]
    decision = decide(handle)
    cert = verify_complement(handle, decision)
    ok = moved and moved_at_2 and cert.checks["scale_invariance"]
    return {
        "name": "closure is not scale-invariant but its complement is",
        "ok": ok,
        "detail": {
            "moved_under_scale": [k for k, _, same in orbit if not same],
            "complement_scale_invariant": cert.checks["scale_invariance"],
        },
    }


def run_corpus() -> list[dict]:
    results = [run_decision_case(c) for c in DECISION_CASES]
    results.append(run_uniserial_case())
    results.append(run_scale_invariance_case())
    return results
