#!/usr/bin/env python3
"""Print the quadratic lower-bound table for X1*X2 - X3*X4.

For each index i the witness family (T1^i, T2^i, T1*T2 - T3^i, x4) leaves the
residual T3^(i^2); together with the exhaustive no-factorization certificates
this pins the approximation function below by i^2 - 1, so no affine bound
exists.  Usage: scripts/witness_table.py [i_max] [trunc]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from artinlab.series import RingSpec
from artinlab.witness import lower_bound_certificate


def main():
    i_max = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    trunc = int(sys.argv[2]) if len(sys.argv) > 2 else i_max * i_max
    ring = RingSpec(num_vars=3, char=0, trunc=trunc)
    rep = lower_bound_certificate(i_max, ring)
    print(f"{'i':>3} {'residual':>10} {'order':>6} {'i^2-1':>6}   x4")
    for fam in rep.families:
        print(
            f"{fam.i:>3} {fam.residual.to_str():>10} {fam.residual_order.value:>6} "
            f"{fam.i * fam.i - 1:>6}   {fam.x4.to_str()}"
        )
    print()
    for cert in rep.certificates:
        print(
            f"certificate i={cert.i} p={cert.p}: scanned {cert.search_space_size} pairs, "
            f"{cert.factorizations_found} factorizations"
        )
    print()
    print(rep.statement)


if __name__ == "__main__":
    main()
