#!/usr/bin/env python3
"""Find the harmonic-oscillator ground state by dissipative evolution and
cross-check it against the eigensolver oracle (`jacobi_eigen`: the grid
Hamiltonian is tridiagonal, so it takes no Householder reflector and goes
straight to Sturm bisection and inverse iteration) and the analytic value 0.5.

Usage: python scripts/harmonic_ground_state.py [--points N] [--states K] [--dt F]
"""

import argparse

import numpy as np

from coopt.continuous import build_grid_hamiltonian, default_step, lowest_states
from coopt.numerics import jacobi_eigen


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--points", type=int, default=201)
    parser.add_argument("--states", type=int, default=3)
    parser.add_argument("--dt", type=float, default=None)
    args = parser.parse_args()

    xs = np.linspace(-8.0, 8.0, args.points)
    operator = build_grid_hamiltonian(-8.0, 8.0, args.points, xs**2 / 2.0)
    dt = args.dt if args.dt is not None else default_step(operator)

    psi0 = np.full(args.points, 1.0)
    psi0[: args.points // 2] += np.linspace(0.3, 0.0, args.points // 2)  # break symmetry
    psi0 /= np.linalg.norm(psi0)

    results = lowest_states(operator, args.states, psi0, dt=dt, tol=1e-9)
    reference = jacobi_eigen(operator).eigenvalues

    print(f"{'state':>5} {'evolved':>12} {'eigensolver':>12} {'analytic':>9}")
    for k, (_, report, _) in enumerate(results):
        analytic = k + 0.5
        print(
            f"{k:5d} {report.states[0].rayleigh:12.8f} {reference[k]:12.8f} {analytic:9.1f}"
            + ("" if report.converged else "  (not stationary)")
        )


if __name__ == "__main__":
    main()
