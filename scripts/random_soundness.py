#!/usr/bin/env python3
"""Seeded random sweep over the bigger towers: every positive verdict from
the decision engine must come with a passing certificate.

At the enumerable sizes the certified complement is also enumerated from
its generators, and its order must be p^(tower - N), the order that the
certificate's order equation counts.  The line for such a size says how
many complements were counted.

Usage: random_soundness.py [seed] [trials-per-size]
"""

import random
import sys

import wreath_sylow as ws
from wreath_sylow import oracle
from wreath_sylow.perm import Perm
from wreath_sylow.tower import random_element

SIZES = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]
ENUMERABLE = {(2, 2), (2, 3), (3, 2)}


def main(seed: int = 0, trials: int = 40) -> int:
    rng = random.Random(seed)
    failures = 0
    for p, n in SIZES:
        tw = ws.tower(p, n)
        histogram = {"yes": 0, "not_direct_summand": 0, "socle_gap": 0}
        counted = 0
        for _ in range(trials):
            gens = [random_element(tw, rng) for _ in range(rng.randrange(1, 4))]
            handle = ws.closure_handle(tw, gens)
            decision = ws.decide(handle)
            if decision.has_complement:
                histogram["yes"] += 1
                if not ws.verify_complement(handle, decision).passed:
                    failures += 1
                    print(f"FAILED certificate at p={p} n={n}")
                elif (p, n) in ENUMERABLE:
                    group = oracle.bfs_closure(decision.gens, identity=Perm.identity(tw.degree))
                    if group.order != p ** (tw.order_exponent() - handle.order_exponent):
                        failures += 1
                        print(f"FAILED complement order {group.order} at p={p} n={n}")
                    else:
                        counted += 1
            else:
                histogram[decision.reason] += 1
        line = f"p={p} n={n}: {histogram} over {trials} trials"
        if (p, n) in ENUMERABLE:
            line += f", {counted} complement orders counted by enumeration"
        print(line)
    print("all certificates passed" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 40
    sys.exit(main(seed, trials))
