#!/usr/bin/env python3
"""Sweep the noise variance for a fixed nested chain and print the list
decoder's block error rate as CSV (stdout)."""

import argparse

from latrelay.chain import build_chain
from latrelay.channel import AwgnParams, simulate_p2p
from latrelay.lattice import cubic_gamma


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--ranks", default="0,1,2")
    ap.add_argument("--P", type=float, default=1.0)
    ap.add_argument("--trials", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ranks = [int(t) for t in args.ranks.split(",")]
    gamma = cubic_gamma(args.p, args.P)
    chain = build_chain(args.p, args.n, ranks, gamma=gamma, seed=args.seed)
    print("N,pe_hat,pe_ci95,list_size")
    for N in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6):
        st = simulate_p2p(chain, AwgnParams(P=args.P, N=N),
                          trials=args.trials, seed=args.seed)
        print(f"{N!r},{st.pe_hat!r},{st.pe_ci95!r},{st.list_size}")


if __name__ == "__main__":
    main()
