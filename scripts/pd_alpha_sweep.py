#!/usr/bin/env python3
"""Sweep the compromise exponent on the bundled prisoner's dilemma.

Shows the two headline effects: the best-response gap epsilon shrinks as
alpha grows, while social welfare collapses from the soft-compromise value
toward the mutual-defection payoff.

Usage: python scripts/pd_alpha_sweep.py [--restarts N] [--seed S] [--out CSV]
"""

import argparse

from coopt import bundled_path
from coopt.equilibrium import alpha_sweep
from coopt.fileio import load_problem, write_text


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--restarts", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="also write the CSV report here")
    args = parser.parse_args()

    model = load_problem(bundled_path("prisoners_dilemma"))
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    report = alpha_sweep(model, grid, restarts=args.restarts, base_seed=args.seed)

    print(f"{'alpha':>8} {'converged':>9} {'iters':>6} {'epsilon':>12} {'welfare':>9}")
    for row in report.rows:
        print(
            f"{row.alpha:8.3g} {str(row.converged):>9} {row.iterations:6d} "
            f"{row.epsilon:12.4e} {row.welfare:9.4f}"
        )
    if args.out:
        write_text(report.to_csv(), args.out)
        print(f"\nreport written to {args.out}")


if __name__ == "__main__":
    main()
