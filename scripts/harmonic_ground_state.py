#!/usr/bin/env python3
"""Find the harmonic-oscillator ground state by dissipative evolution and
cross-check it against the eigensolver oracle (`jacobi_eigen`: the grid
Hamiltonian is tridiagonal, so it takes no Householder reflector and goes
straight to Sturm bisection and inverse iteration) and the analytic value 0.5.

Usage: python scripts/harmonic_ground_state.py [--points N] [--states K] [--dt F]
"""

import argparse

import numpy as np

from coopt.continuous import build_grid_hamiltonian, lowest_states
from coopt.numerics import jacobi_eigen


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--points", type=int, default=201)
    parser.add_argument("--states", type=int, default=3)
    parser.add_argument("--dt", type=float, default=None)
    args = parser.parse_args()

    xs = np.linspace(-8.0, 8.0, args.points)
    operator = build_grid_hamiltonian(-8.0, 8.0, args.points, xs**2 / 2.0)
    psi0 = np.ones(args.points)  # the uniform start; lowest_states normalizes it

    results = lowest_states(operator, args.states, psi0, dt=args.dt, tol=1e-9)
    reference = jacobi_eigen(operator).eigenvalues

    print(f"{'state':>5} {'evolved':>12} {'eigensolver':>12} {'analytic':>9}")
    for k, (points, converged) in enumerate(results):
        analytic = k + 0.5
        print(
            f"{k:5d} {points[-1].rayleigh[0]:12.8f} {reference[k]:12.8f} {analytic:9.1f}"
            + ("" if converged else "  (not stationary)")
        )


if __name__ == "__main__":
    main()
