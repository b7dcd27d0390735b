#!/usr/bin/env python3
"""Survey strip zeros across derivative orders: locate the first few zeros
of each existing strip at the given k and summarize how tightly they hug
the predicted line sigma = q_M k and the predicted ordinates."""
import argparse
import math

from zetaderiv.geometry import layout, q_value
from zetaderiv.zeros import enumerate_zeros


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=100)
    ap.add_argument("--periods", type=int, default=3,
                    help="height window per strip, in strip periods")
    args = ap.parse_args()

    k = args.k
    for sp in layout(k)[1]:
        M = sp.M
        records, n = enumerate_zeros(M, k, args.periods * sp.period)
        devs = [abs(r.location.sigma - q_value(M) * k) for r in records]
        dts = [abs(r.location.t - (2 * r.j + 1) * math.pi / sp.delta)
               for r in records]
        print(f"S_{M} (center {sp.center_sigma:.3f}): {n} zeros, "
              f"max |sigma - q_M k| = {max(devs):.2e}, "
              f"max ordinate deviation = {max(dts):.2e}")


if __name__ == "__main__":
    main()
