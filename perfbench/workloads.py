"""Seeded inputs, cases and correctness checks for the three workloads.

Every input is built from public functions of the package (``shift_gen``,
``prefix_rep``, ``block_conjugates``, ``bfs_closure``, ...).  The expected
answer of each decide case comes from the shape of its generators, worked
out from the module structure of the abelianized tail, not from the
engine.  Notation, for a tower of height n and depth j (m = n - j tail
levels, local level t meaning digit j + t):

- ``C(j, k, b, c)``: the conjugate of ``shift_gen(k)`` by ``prefix_rep(j, b)``,
  to the power c.  Its tail image is c times the unit vector of block b at
  local level k - j.
- ``D(j, k, a)``: ``D_j(k)**a`` with ``D_j(k)`` the product of
  ``block_conjugates(tw, j, shift_gen(tw, k))``.  Its tail image is a times
  the diagonal (all-ones) vector at local level k - j.

With these, the verdict of each shape follows from the uniserial structure
(every nonzero submodule of a level contains its diagonal; a vector with
nonzero block sum generates the whole level):

- co_shift: ``C(j, j, b, c)`` plus full levels T; Z = the levels not in T;
- prefix_tower (j >= 1, m >= 2): ``D(j, j, a) * C(j, j+s, b, c)`` plus every
  other level full; Z = (j,);
- not_direct_summand (j >= 1): ``D(j, j, a) * D(j, j+t, c)``, or the
  augmentation vector ``C(j, j, b1, 1) * C(j, j, b2, -1)``;
- socle_gap (j >= 1, m >= 3): ``D(j, j, a) * C(j, j+s, b, c)`` plus fewer than
  m - 2 further full levels.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from wreath_sylow import cli, complements, gallery, oracle, perm

# the package re-exports the cached constructor under the module's name
tower = importlib.import_module("wreath_sylow.tower")

KINDS = ("co_shift", "prefix_tower", "not_direct_summand", "socle_gap")
DEFAULT_SEED = 0


def digest(obj) -> str:
    """Short sha256 of the canonical JSON of obj (strings are hashed as they are)."""
    text = obj if isinstance(obj, str) else json.dumps(
        obj, sort_keys=True, separators=(",", ": "), indent=1
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Case:
    """One timed call into the package, with what its output must satisfy."""

    cid: str
    run: Callable[[], object]
    check: Callable[[object], list]  # -> list of problems, empty when correct


@dataclass
class Workload:
    cases: list
    warmup: Case
    kinds_required: tuple = ()  # verdict kinds the first pass must produce


# -- generator shapes ---------------------------------------------------------


def _digits(p: int, j: int, b: int) -> list[int]:
    return [b // p ** (j - 1 - i) % p for i in range(j)]


def factor_perm(tw, f, diagonals: dict):
    """The permutation of one factor ("C", j, k, b, c) or ("D", j, k, a).

    ``diagonals`` memoizes the products D_j(k) of this tower, the dearest
    part of set-up at the top rungs.
    """
    if f[0] == "C":
        _, j, k, b, c = f
        x = perm.conjugate(tower.shift_gen(tw, k), tower.prefix_rep(tw, j, b))
        return x ** (c % tw.p)
    _, j, k, a = f
    if (j, k) not in diagonals:
        out = perm.Perm.identity(tw.degree)
        for x in tower.block_conjugates(tw, j, tower.shift_gen(tw, k)):
            out = out * x
        diagonals[j, k] = out
    return diagonals[j, k] ** (a % tw.p)


def gen_perms(tw, gens, diagonals: dict) -> list:
    out = []
    for factors in gens:
        g = perm.Perm.identity(tw.degree)
        for f in factors:
            g = g * factor_perm(tw, f, diagonals)
        out.append(g)
    return out


def _conj_word(p: int, j: int, k: int, b: int) -> str:
    rep = "*".join(f"s{i}" for i, d in enumerate(_digits(p, j, b)) for _ in range(d))
    return f"(s{k} ^ ({rep}))" if rep else f"s{k}"


def _power_word(p: int, base: str, c: int) -> str:
    c %= p
    if p > 2 and c == p - 1:
        return f"~{base}"
    return "*".join([base] * c)


def gen_words(p: int, gens) -> str:
    """The same generators as a ``--gens`` word list."""
    words = []
    for factors in gens:
        parts = []
        for f in factors:
            if f[0] == "C":
                _, j, k, b, c = f
                parts.append(_power_word(p, _conj_word(p, j, k, b), c))
            else:
                _, j, k, a = f
                d = "*".join(_conj_word(p, j, k, b) for b in range(p**j))
                parts.append(_power_word(p, f"({d})", a))
        words.append(" * ".join(parts))
    return "; ".join(words)


def shape(rng: random.Random, p: int, n: int, j: int, kind: str):
    """Seeded generators of the given depth and verdict kind, with the expected Z."""
    m = n - j
    unit = lambda: rng.randrange(1, p)  # noqa: E731
    block = lambda: rng.randrange(p**j)  # noqa: E731
    if kind == "co_shift":
        extra = [t for t in range(1, m) if rng.random() < 0.5]
        gens = [[("C", j, j, block(), unit())]]
        gens += [[("C", j, j + t, block(), unit())] for t in extra]
        return gens, tuple(j + t for t in range(1, m) if t not in extra)
    if j < 1:
        raise ValueError(f"{kind} needs depth >= 1")
    if kind == "not_direct_summand":
        if m >= 2 and rng.random() < 0.5:
            return [[("D", j, j, unit()), ("D", j, j + rng.randrange(1, m), unit())]], None
        b1 = block()
        b2 = (b1 + rng.randrange(1, p**j)) % p**j
        return [[("C", j, j, b1, 1), ("C", j, j, b2, -1)]], None
    s = rng.randrange(1, m) if m >= 2 else None
    head = [[("D", j, j, unit()), ("C", j, j + s, block(), unit())]] if s else None
    if kind == "prefix_tower" and m >= 2:
        rest = [t for t in range(1, m) if t != s]
        return head + [[("C", j, j + t, block(), unit())] for t in rest], (j,)
    if kind == "socle_gap" and m >= 3:
        others = [t for t in range(1, m) if t != s]
        extra = rng.sample(others, rng.randrange(m - 2))
        return head + [[("C", j, j + t, block(), unit())] for t in extra], None
    raise ValueError(f"{kind} impossible at depth {j} of height {n}")


def feasible_kinds(n: int, j: int) -> list[str]:
    m = n - j
    if j == 0:
        return ["co_shift"]
    kinds = ["co_shift", "not_direct_summand"]
    if m >= 2:
        kinds.append("prefix_tower")
    if m >= 3:
        kinds.append("socle_gap")
    return kinds


def _decision_problems(report: dict, kind: str, j: int, levels) -> list:
    """Compare a decide report with the verdict the input's shape fixes."""
    problems = []
    got = report["case"] if report["verdict"] == "HasComplement" else report["reason"]
    if got != kind:
        problems.append(f"verdict {got}, expected {kind}")
    if report["depth"] != j:
        problems.append(f"depth {report['depth']}, expected {j}")
    if levels is not None and tuple(report["Z"]) != tuple(levels):
        problems.append(f"Z {report['Z']}, expected {list(levels)}")
    if report["verdict"] == "HasComplement" and not all(report["checks"].values()):
        problems.append(f"certificate failed: {report['checks']}")
    return problems


# -- deep-ladder --------------------------------------------------------------

# (2,10) is left out: its five cases take 37 s, so a run could afford only one
# sample of each case, and single samples on a shared machine are too noisy
LADDER = [(2, 7), (2, 8), (2, 9), (3, 5), (3, 6), (5, 3), (5, 4), (7, 3)]


def _ladder_shapes(rng: random.Random, p: int, n: int):
    """The five shapes of one rung: (name, gens, depth, kind, Z)."""
    unit = lambda: rng.randrange(1, p)  # noqa: E731
    j = n - 2
    return [
        ("base", [[("C", n - 1, n - 1, rng.randrange(p ** (n - 1)), unit())]], n - 1, "co_shift", ()),
        ("shift", [[("C", j, j, rng.randrange(p**j), unit())]], j, "co_shift", (n - 1,)),
        (
            "prefix",
            [[("D", j, j, unit()), ("C", j, n - 1, rng.randrange(p**j), unit())]],
            j,
            "prefix_tower",
            (j,),
        ),
        ("diagonal", [[("D", j, j, unit()), ("D", j, n - 1, unit())]], j, "not_direct_summand", None),
        (
            "gap",
            [[("D", 1, 1, unit()), ("C", 1, n - 1, rng.randrange(p), unit())]],
            1,
            "socle_gap" if n >= 4 else "prefix_tower",
            None if n >= 4 else (1,),
        ),
    ]


def _decide_case(cid: str, tw, gens, j: int, kind: str, levels) -> Case:
    def run():
        handle = complements.closure_handle(tw, gens)
        decision = complements.decide(handle)
        return complements.decision_json(handle, decision)

    return Case(cid, run, lambda rep: _decision_problems(rep, kind, j, levels))


def deep_ladder(seed: int) -> Workload:
    rng = random.Random(seed)
    cases = []
    for p, n in LADDER:
        tw = tower.tower(p, n)
        diagonals: dict = {}
        for name, gens, j, kind, levels in _ladder_shapes(rng, p, n):
            cid = f"{p}^{n}/{name}"
            cases.append(_decide_case(cid, tw, gen_perms(tw, gens, diagonals), j, kind, levels))
    # the machine's speed drifts within seconds; shuffling spreads the many
    # cheap cases over the whole pass, so the median does not sample one moment
    rng.shuffle(cases)
    warm_tw = tower.tower(5, 3)
    warm = _decide_case("warmup", warm_tw, [tower.shift_gen(warm_tw, 1)], 1, "co_shift", (2,))
    return Workload(cases, warm, KINDS)


# -- mixed-stream -------------------------------------------------------------

STREAM_SIZES = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]


def _cli_run(argv: list[str]):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run


def _cli_decide_case(cid: str, argv, j: int, kind: str, levels) -> Case:
    def check(out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        return _decision_problems(json.loads(text), kind, j, levels)

    return Case(cid, _cli_run(argv), check)


def _partition_spec(rng: random.Random, p: int, n: int, j: int, complementable: bool):
    """Chain indices of a normal partition subgroup of depth j."""
    if j == n:
        return [p**k for k in range(n)]
    indices = [p**k for k in range(j)]
    if complementable:
        indices += [0] + [rng.choice((0, p**j)) for _ in range(j + 1, n)]
    else:
        indices += [rng.randrange(p**j)] + [rng.randrange(p**j + 1) for _ in range(j + 1, n)]
    return indices


def _closed_form_has_complement(p: int, n: int, indices) -> bool:
    """The partition criterion, restated: i_j = 0 and every i_k in {0, p**j}."""
    j = next((k for k, i in enumerate(indices) if i < p**k), n)
    if j == n:
        return True
    return indices[j] == 0 and all(indices[k] in (0, p**j) for k in range(j, n))


def _cli_partition_case(cid: str, p: int, n: int, indices) -> Case:
    argv = ["partition", "--p", str(p), "--n", str(n), "--indices", ",".join(map(str, indices)),
            "--format", "json"]
    want = _closed_form_has_complement(p, n, indices)

    def check(out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        rep = json.loads(text)
        problems = []
        if not rep["normal"]:
            problems.append("spec reported not normal")
        elif rep["has_complement"] != want:
            problems.append(f"closed form {rep['has_complement']}, expected {want}")
        elif not rep["engine_crosscheck"]["agrees"]:
            problems.append("engine disagrees with the closed form")
        return problems

    return Case(cid, _cli_run(argv), check)


def mixed_stream(seed: int) -> Workload:
    """Every (size, depth, feasible kind) as words and as cycles, plus partition specs.

    The structure of the stream is fixed; the seed picks blocks, powers,
    extra levels and partition indices, then shuffles the order.
    """
    rng = random.Random(seed)
    cases = []
    for p, n in STREAM_SIZES:
        tw = tower.tower(p, n)
        diagonals: dict = {}
        common = ["--p", str(p), "--n", str(n), "--format", "json"]
        for j in range(n):
            for kind in feasible_kinds(n, j):
                for form in ("words", "cycles"):
                    gens, levels = shape(rng, p, n, j, kind)
                    if form == "words":
                        text = gen_words(p, gens)
                    else:
                        text = "; ".join(perm.format_cycles(g)
                                         for g in gen_perms(tw, gens, diagonals))
                    cid = f"{p}^{n}/d{j}/{kind}/{form}"
                    argv = ["decide", *common, "--gens", text]
                    cases.append(_cli_decide_case(cid, argv, j, kind, levels))
        for j in range(n + 1):
            for complementable in ((True,) if j == n else (True, False)):
                indices = _partition_spec(rng, p, n, j, complementable)
                cid = f"{p}^{n}/d{j}/partition/{'c' if complementable else 'r'}"
                cases.append(_cli_partition_case(cid, p, n, indices))
    rng.shuffle(cases)
    warm = _cli_decide_case(
        "warmup", ["decide", "--p", "3", "--n", "2", "--format", "json", "--gens", "s0"],
        0, "co_shift", (1,),
    )
    return Workload(cases, warm, KINDS)


# -- oracle-crosscheck --------------------------------------------------------

ORACLE_SIZES = [(2, 2), (3, 2), (2, 3)]
# recorded values: normal-subgroup counts, max abelian stats, gallery reports
NORMAL_COUNTS = {(2, 2): 6, (3, 2): 8, (2, 3): 28}
ABELIAN_2_3 = (4, 9)
GALLERY_Q8C4 = {"group_order": 16, "normal_order": 8, "complement_count": 6,
                "orbit_type": [3, 3], "invariant_complements": 0}
GALLERY_MOD9 = {"group_order": 243, "normal_order": 81, "complement_count": 54,
                "invariant_complements": 0}


def _recorded(expected: dict):
    def check(rep):
        return [f"{k} = {rep.get(k)!r}, recorded {v!r}" for k, v in expected.items() if rep.get(k) != v]

    return check


def oracle_crosscheck(seed: int) -> Workload:
    rng = random.Random(seed)
    cases = []
    group_23 = None
    for p, n in ORACLE_SIZES:
        tw = tower.tower(p, n)
        shifts = tower.shift_gens(tw)
        group = oracle.bfs_closure(shifts)
        normals = oracle.all_normal_subgroups(group)
        if (p, n) == (2, 3):
            group_23 = group
        order = p ** tw.order_exponent()

        def enum(shifts=shifts):
            return {"order": oracle.bfs_closure(shifts).order}

        def find(group=group):
            orders = [s.order for s in oracle.all_normal_subgroups(group)]
            return {"count": len(orders), "orders": orders}

        cases.append(Case(f"{p}^{n}/enumerate", enum, _recorded({"order": order})))
        cases.append(Case(f"{p}^{n}/normal_subgroups", find,
                          _recorded({"count": NORMAL_COUNTS[(p, n)]})))
        for i, sub in enumerate(normals):
            # every element, as the Tier-1 fixture passes them, in seeded order
            gens = sub.sorted_elements()
            rng.shuffle(gens)

            def run(tw=tw, gens=gens, group=group, sub=sub):
                handle = complements.closure_handle(tw, gens)
                decision = complements.decide(handle)
                cert = (complements.verify_complement(handle, decision).checks
                        if decision.has_complement else {})
                return {
                    "order_exponent": handle.order_exponent,
                    "depth": handle.j,
                    "kind": decision.style or decision.reason,
                    "engine": decision.has_complement,
                    "certificate": cert,
                    "oracle": oracle.has_complement(group, sub),
                }

            def check(rep, p=p, size=sub.order):
                problems = []
                if p ** rep["order_exponent"] != size:
                    problems.append(f"|N| = {p}^{rep['order_exponent']}, oracle counts {size}")
                if rep["engine"] != rep["oracle"]:
                    problems.append(f"engine {rep['engine']}, oracle {rep['oracle']}")
                if not all(rep["certificate"].values()):
                    problems.append(f"certificate failed: {rep['certificate']}")
                return problems

            cases.append(Case(f"{p}^{n}/N{i:02d}", run, check))

    cases.append(Case(
        "2^3/max_abelian",
        lambda: {"stats": list(oracle.max_abelian_stats(group_23, 2))},
        _recorded({"stats": list(ABELIAN_2_3)}),
    ))
    cases.append(Case("gallery/q8c4", lambda: gallery.gallery_quaternion_central(),
                      _recorded(GALLERY_Q8C4)))
    cases.append(Case("gallery/mod9", lambda: gallery.gallery_mod9(), _recorded(GALLERY_MOD9)))
    warm = cases[0]
    rng.shuffle(cases)  # as in deep_ladder
    return Workload(cases, warm)


def observed_kind(out) -> Optional[str]:
    """The verdict kind an output reports, if it reports one."""
    if isinstance(out, tuple):  # (exit code, stdout) of a CLI command
        try:
            out = json.loads(out[1])
        except ValueError:
            return None
    if not isinstance(out, dict):
        return None
    if "verdict" in out:
        return out["case"] if out["verdict"] == "HasComplement" else out["reason"]
    return out.get("kind")


WORKLOADS = {
    "deep-ladder": deep_ladder,
    "mixed-stream": mixed_stream,
    "oracle-crosscheck": oracle_crosscheck,
}
