#!/usr/bin/env python3
"""Produce the annulus-integral table I~_k for a range of A_n indices.

Writes CSV rows (n, k, value, error, truncation_bound, subregions) to
stdout; the uniform-boundedness ratio max_k / I~_1 is printed to stderr
per n.
"""

import argparse
import sys

from duval_kind.quadrature import integral_Ik_bands


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=3)
    parser.add_argument("--k-max", type=int, default=4)
    parser.add_argument("--tol", type=float, default=1e-4)
    args = parser.parse_args()

    print("n,k,value,error,truncation_bound,subregions")
    for n in range(1, args.n_max + 1):
        results = integral_Ik_bands(n, range(1, args.k_max + 1), args.tol)
        for k, res in enumerate(results, start=1):
            print(
                f"{n},{k},{res.value:.17e},{res.error_estimate:.17e},"
                f"{res.truncation_bound:.17e},{res.subregions_used}"
            )
        ratio = max(res.value for res in results) / results[0].value
        print(f"n={n}: max_k I~_k / I~_1 = {ratio:.6f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
