#!/usr/bin/env python3
"""Survey scan-certified complementary-inequality constants for a few quotient
singularities, and the stable intersection inclusion they feed.

Usage: scripts/icl_survey.py [deg_max] [trunc] [count]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from fractions import Fraction

from artinlab.artin import stable_ar_scan
from artinlab.orders import icl_envelope, valuation_check
from artinlab.series import RingSpec
from artinlab.subspace import IdealSpec
from artinlab.parsing import parse_poly

CASES = [
    ("T1^2 + T2^3", 2),      # cuspidal curve: additive gap 1 at slope 1
    ("T1^2 - T2^2", 2),      # node: two branches, deeper scans surface zero divisors
    ("T1*T2", 2),            # coordinate cross: zero divisors in the quotient
    ("T1^2 + T2^2 + T3^2", 3),  # irreducible quadric cone: a valuation
]


def main():
    deg_max = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    trunc = int(sys.argv[2]) if len(sys.argv) > 2 else 2 * deg_max + 2
    count = int(sys.argv[3]) if len(sys.argv) > 3 else 100
    for text, nvars in CASES:
        ring = RingSpec(num_vars=nvars, char=0, trunc=trunc)
        I = IdealSpec.of(ring, [parse_poly(text, ring)])
        print(f"== ideal ({text}), {nvars} variables, trunc {trunc} ==")
        val = valuation_check(I, deg_max, count=count)
        print(f"  order function additive on scanned pairs: {val.is_valuation}")
        for rep in icl_envelope(I, deg_max, count=count):
            b = "unbounded-at-truncation" if rep.b_min is None else rep.b_min
            print(f"  slope a = {rep.a}: smallest offset b = {b} ({rep.pair_count} pairs)")
        xs = [parse_poly(t, ring) for t in ("T1", "T2", "T1*T2")]
        stable = stable_ar_scan(I, xs, a=Fraction(1), b=0, grid_b_max=trunc)
        print(f"  stable inclusion at (a, b) = (1, 0): {stable.all_hold}")
        print(f"  smallest passing grid point: {stable.minimal_pass}")
        print()


if __name__ == "__main__":
    main()
