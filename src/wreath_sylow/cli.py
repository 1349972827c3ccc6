"""Command line front door.

Subcommands: gens, decide, partition, oracle (crosscheck | abelian-max |
centralizer), gallery (q8c4 | mod9), corpus.  Every command takes
``--format text|json``; JSON output is deterministic (sorted keys, schema
field) so identical inputs give byte-identical reports.  Exit codes:
0 success, 1 a verification or expectation failed, 2 usage error.  Only
p and n pick the tower: its r is the smallest primitive root mod p.
The brute-force commands run with the oracle's fixed caps.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys

from . import complements, gallery, oracle, partition
from .corpus import run_corpus
from .perm import format_cycles
from .tower import (
    NotInTower,
    base_translations,
    co_shift_gens,
    decompose,
    random_element,
    scale_gens,
    shift_gens,
    tower,
)
from .words import generator_items, parse_generators


def _emit(report: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1))
    else:
        for line in text_lines(report):
            print(line)


def cmd_gens(args) -> int:
    tw = tower(args.p, args.n)
    families = {
        "shift": {f"s{i}": format_cycles(g) for i, g in enumerate(shift_gens(tw))},
        "scale": {f"e{i}": format_cycles(g) for i, g in enumerate(scale_gens(tw))},
        "co_shift": {
            f"r{i}": format_cycles(g) for i, g in enumerate(co_shift_gens(tw), start=1)
        },
        # base_translations(tw)[b] is the p-cycle on the points with (n-1)-prefix b;
        # printed from that support, as building the p**(n-1) cycles is quadratic
        "base": {
            f"base{b}": "(" + " ".join(map(str, range(b * tw.p, (b + 1) * tw.p))) + ")"
            for b in range(tw.p ** (tw.n - 1))
        },
    }
    report = {"schema": 1, "p": tw.p, "n": tw.n, "r": tw.r, "generators": families}

    def lines(rep):
        for family in ("shift", "scale", "co_shift", "base"):
            for name, cyc in rep["generators"][family].items():
                yield f"{name} = {cyc}"

    _emit(report, args.format, lines)
    return 0


def _off_tower(tw, text: str, gens, exc: NotInTower) -> str:
    """The error for a --gens item that is not a tower element, naming the first such item."""
    for item, g in zip(generator_items(text), gens):
        try:
            decompose(g, tw.p)
        except NotInTower:
            break
    msg = f"--gens item {item.strip()!r} is not in the tower: {exc}"
    scale = re.search(r"e\d+", item)
    if scale:
        msg += f"; the scaling map {scale.group()} normalizes the tower but is not in it"
    return msg


def cmd_decide(args) -> int:
    tw = tower(args.p, args.n)
    gens = parse_generators(tw, args.gens)
    try:
        handle = complements.closure_handle(tw, gens)
    except NotInTower as exc:
        raise ValueError(_off_tower(tw, args.gens, gens, exc)) from None
    decision = complements.decide(handle)
    report = complements.decision_json(handle, decision)

    def lines(rep):
        yield f"depth: {rep['depth']}"
        yield f"verdict: {rep['verdict']}"
        if rep["verdict"] == "HasComplement":
            yield f"case: {rep['case']}  Z: {rep['Z']}"
            yield "complement generators:"
            for cyc in rep["complement_generators"]:
                yield f"  {cyc}"
            yield f"orders (exponents of p): N {rep['orders']['N']}, C {rep['orders']['C']}, tower {rep['orders']['Pn']}"
            for name, ok in rep["checks"].items():
                yield f"check {name}: {'ok' if ok else 'FAILED'}"
        else:
            yield f"reason: {rep['reason']}"

    _emit(report, args.format, lines)
    if decision.has_complement and not all(report["checks"].values()):
        return 1
    return 0


def cmd_partition(args) -> int:
    tw = tower(args.p, args.n)
    spec = partition.PartitionSpec(tw.p, tw.n, args.indices)
    normal = partition.partition_is_normal(spec)
    report = {
        "schema": 1,
        "p": tw.p,
        "n": tw.n,
        "indices": list(args.indices),
        "depth": spec.depth,
        "normal": normal,
        "has_complement": None,
        "engine_crosscheck": None,
    }
    if normal:
        closed_form = partition.partition_has_complement(spec)
        handle = complements.closure_handle(tw, partition.module_generators(tw, spec))
        decision = complements.decide(handle)
        report["has_complement"] = closed_form
        report["engine_crosscheck"] = {
            "verdict": "HasComplement" if decision.has_complement else "NoComplement",
            "agrees": decision.has_complement == closed_form,
        }

    def lines(rep):
        yield f"depth: {rep['depth']}  normal: {rep['normal']}"
        if rep["normal"]:
            yield f"has_complement (closed form): {rep['has_complement']}"
            yield f"engine verdict: {rep['engine_crosscheck']['verdict']} (agrees: {rep['engine_crosscheck']['agrees']})"

    _emit(report, args.format, lines)
    if normal and not report["engine_crosscheck"]["agrees"]:
        return 1
    return 0


def _crosscheck_small(tw) -> dict:
    group = oracle.bfs_closure(shift_gens(tw))
    normals = oracle.all_normal_subgroups(group)
    rows = []
    for sub in normals:
        # sub is the normal closure of its gens, so they give the same handle
        handle = complements.closure_handle(tw, sub.gens)
        decision = complements.decide(handle)
        oracle_has = oracle.has_complement(group, sub)
        ok = decision.has_complement == oracle_has
        if decision.has_complement:
            ok = ok and complements.verify_complement(handle, decision).passed
        rows.append(
            {
                "order_exponent": handle.order_exponent,
                "depth": handle.j,
                "engine": decision.has_complement,
                "oracle": oracle_has,
                "ok": ok,
            }
        )
    return {"normal_subgroups": len(normals), "all_ok": all(r["ok"] for r in rows), "rows": rows}


def _crosscheck_random(tw, seed: int, trials: int) -> dict:
    rng = random.Random(seed)
    verified = 0
    found = 0
    for _ in range(trials):
        gens = [random_element(tw, rng) for _ in range(rng.randrange(1, 4))]
        handle = complements.closure_handle(tw, gens)
        decision = complements.decide(handle)
        if decision.has_complement:
            found += 1
            if complements.verify_complement(handle, decision).passed:
                verified += 1
    return {
        "trials": trials,
        "seed": seed,
        "with_complement": found,
        "verified": verified,
        "all_ok": found == verified,
    }


def cmd_oracle(args) -> int:
    tw = tower(args.p, args.n)
    if args.oracle_cmd == "crosscheck":
        if args.trials < 1:
            raise ValueError(f"--trials must be a positive integer, got {args.trials}")
        if tw.p ** tw.order_exponent() <= oracle.SEARCH_CAP:
            body = _crosscheck_small(tw)
            body["mode"] = "exhaustive"
        else:
            body = _crosscheck_random(tw, args.seed, args.trials)
            body["mode"] = "random"
        report = {"schema": 1, "p": tw.p, "n": tw.n, **body}

        def lines(rep):
            yield f"mode: {rep['mode']}"
            if rep["mode"] == "exhaustive":
                yield f"normal subgroups: {rep['normal_subgroups']}"
            else:
                yield f"trials: {rep['trials']} (seed {rep['seed']}), {rep['with_complement']} with complements"
            yield f"all_ok: {rep['all_ok']}"

        _emit(report, args.format, lines)
        return 0 if report["all_ok"] else 1
    if args.oracle_cmd == "abelian-max":
        order, cap = tw.p ** tw.order_exponent(), oracle.SEARCH_CAP
        if order > cap:  # refuse before enumerating, as max_abelian_stats would after
            raise oracle.CapExceeded(f"group order {order} exceeds cap {cap}")
        group = oracle.bfs_closure(shift_gens(tw))
        exponent, count = oracle.max_abelian_stats(group, tw.p)
        report = {
            "schema": 1,
            "p": tw.p,
            "n": tw.n,
            "max_abelian_order_exponent": exponent,
            "count_at_max": count,
        }
        _emit(
            report,
            args.format,
            lambda rep: [
                f"largest abelian subgroup order: {tw.p}^{rep['max_abelian_order_exponent']}",
                f"subgroups attaining it: {rep['count_at_max']}",
            ],
        )
        return 0
    # centralizer: the tower scan refuses a large degree before the base translations are built
    tower_gens = shift_gens(tw)
    cz_tower = oracle.centralizer_in_sym(tower_gens, tw.degree)
    base_gens = base_translations(tw)
    cz_base = oracle.centralizer_in_sym(base_gens, tw.degree)
    base_group, tower_set = oracle.bfs_closure(base_gens), oracle.bfs_closure(tower_gens)
    report = {
        "schema": 1,
        "p": tw.p,
        "n": tw.n,
        "base_centralizer_order": cz_base.order,
        "base_self_centralizing": cz_base.elements <= base_group.elements,
        "tower_centralizer_order": cz_tower.order,
        "tower_self_centralizing": cz_tower.elements <= tower_set.elements,
    }
    _emit(
        report,
        args.format,
        lambda rep: [
            f"base layer self-centralizing: {rep['base_self_centralizing']} (centralizer order {rep['base_centralizer_order']})",
            f"tower self-centralizing: {rep['tower_self_centralizing']} (centralizer order {rep['tower_centralizer_order']})",
        ],
    )
    return 0 if report["base_self_centralizing"] and report["tower_self_centralizing"] else 1


def cmd_gallery(args) -> int:
    report = gallery.gallery_quaternion_central() if args.which == "q8c4" else gallery.gallery_mod9()
    report = {"schema": 1, "which": args.which, **report}

    def lines(rep):
        for key in sorted(rep):
            if key not in ("schema", "which"):
                yield f"{key}: {rep[key]}"

    _emit(report, args.format, lines)
    return 0 if all(report[key] for key in gallery.SELF_CHECKS if key in report) else 1


def cmd_corpus(args) -> int:
    results = run_corpus()
    report = {"schema": 1, "results": results, "all_ok": all(r["ok"] for r in results)}

    def lines(rep):
        for r in rep["results"]:
            yield f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']}"
        yield f"all_ok: {rep['all_ok']}"

    _emit(report, args.format, lines)
    return 0 if report["all_ok"] else 1


def _indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fixed parser, built once per process: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="wreath-sylow",
        description="Sylow towers of symmetric groups: generators, complements, cross-checks",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(sp):
        sp.add_argument("--p", type=int, required=True, help="the prime")
        sp.add_argument("--n", type=int, required=True, help="tower height")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("gens", help="print the generator families")
    add_common(sp)
    sp.set_defaults(func=cmd_gens)

    sp = sub.add_parser("decide", help="decide complement existence for a normal closure")
    add_common(sp)
    sp.add_argument(
        "--gens",
        required=True,
        help="semicolon-separated generator words (s0, e1, r2, *, ^, ~) or cycle strings",
    )
    sp.set_defaults(func=cmd_decide)

    sp = sub.add_parser("partition", help="closed-form complement criterion for a partition subgroup")
    add_common(sp)
    sp.add_argument("--indices", type=_indices, required=True, help="comma-separated chain indices i0,i1,...")
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("oracle", help="brute-force cross-checks")
    oracle_sub = sp.add_subparsers(dest="oracle_cmd", required=True)
    for name in ("crosscheck", "abelian-max", "centralizer"):
        osp = oracle_sub.add_parser(name)
        add_common(osp)
        if name == "crosscheck":
            osp.add_argument("--seed", type=int, default=0)
            osp.add_argument("--trials", type=int, default=25)
        osp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("gallery", help="counterexample reports")
    sp.add_argument("which", choices=("q8c4", "mod9"))
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_gallery)

    sp = sub.add_parser("corpus", help="replay the recorded worked examples")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, oracle.CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
