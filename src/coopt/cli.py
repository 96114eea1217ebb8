"""Command-line surface.

Subcommands: solve (fixed-point iteration on a problem file), sweep (alpha
grid with seeded restarts, CSV report), quantum (stationary states of a
Hamiltonian file), nash (exhaustive pure-equilibrium enumeration) and
verify (epsilon certificate for a provided profile).

Exit codes: 0 success, 2 clean non-convergence (results still written),
1 malformed command line or input, validation failure, unwritable output
or an input too large for the memory that can be allocated.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from . import continuous, discrete, equilibrium, fileio
from .continuous import EvolutionError, lowest_states
from .discrete import AllZeroReturnsError, DivergenceError
from .model import validate
from .model import to_utility_model  # noqa: F401  perfbench/tracing.py patches this name here
from .rng import random_unit_vector

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def parse_alpha_grid(text: str) -> list[float]:
    """Grid spec 'a:b:log:N' or 'a:b:lin:N' (N values from a to b)."""
    parts = text.split(":")
    if len(parts) != 4 or parts[2] not in ("log", "lin"):
        raise ValueError("--alpha-grid must look like 'a:b:log:N' or 'a:b:lin:N'")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[3])
    except ValueError:
        raise ValueError("--alpha-grid bounds must be numbers and N an integer") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--alpha-grid bounds must be finite (got {lo} and {hi})")
    if n < 1:
        raise ValueError("--alpha-grid needs N >= 1")
    if parts[2] == "log":
        if lo <= 0 or hi <= 0:
            raise ValueError("--alpha-grid log spacing needs positive bounds")
        return [float(x) for x in np.geomspace(lo, hi, n)]
    grid = [float(x) for x in np.linspace(lo, hi, n)]
    if min(grid) <= 0:
        raise ValueError(f"--alpha-grid values must be positive (got {min(grid)})")
    return grid


def _load_model(args):
    model = fileio.load_problem(args.problem)
    if getattr(args, "hbar", None) is not None:
        model = validate(replace(model, hbar=args.hbar))
    return model


def _check_tol(args) -> None:
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be positive and finite (got {args.tol})")


def _check_count(value: int, flag: str) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1 (got {value})")


def _initial_profile(model, args):
    if args.init == "random":
        return discrete.random_profile(model, args.seed)
    return None  # iterate defaults to uniform


def _cmd_solve(args) -> int:
    if not math.isfinite(args.alpha):
        raise ValueError(f"--alpha must be finite (got {args.alpha})")
    if not args.alpha > 0:
        raise ValueError(f"--alpha must be positive (got {args.alpha})")
    _check_tol(args)
    _check_count(args.max_iter, "--max-iter")
    model = _load_model(args)
    result = discrete.iterate_to_fixed_point(
        model,
        args.alpha,
        _initial_profile(model, args),
        tol=args.tol,
        max_iter=args.max_iter,
        keep_trace=args.trace is not None,
    )
    logs = result.field.log_values
    # an expected return that underflows to 0 is valid output
    if model.mode == "energy" and np.isinf(np.exp(np.concatenate(logs))).any():
        i = next(i for i, row in enumerate(logs) if np.isinf(np.exp(row)).any())
        what = f"agent {model.agents[i].name!r}: the expected return exp({float(logs[i].max())!r})"
        raise equilibrium.weight_error(f"{what} of its best action", math.inf, model.hbar)
    certificate = (
        equilibrium.epsilon_of_profile(model, result.profile)
        if model.mode == "utility"
        else None
    )
    fileio.write_document(
        fileio.solve_document(model, args.alpha, result, certificate), args.out
    )
    if args.trace is not None:
        result.trace.write_csv(args.trace)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _cmd_sweep(args) -> int:
    _check_tol(args)
    grid = parse_alpha_grid(args.alpha_grid)
    _check_count(args.restarts, "--restarts")
    _check_count(args.max_iter, "--max-iter")
    model = _load_model(args)
    report = equilibrium.alpha_sweep(
        model,
        grid,
        restarts=args.restarts,
        base_seed=args.seed,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    fileio.write_text(report.to_csv(), args.out)
    all_converged = all(row.converged for row in report.rows)
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def _cmd_quantum(args) -> int:
    _check_tol(args)
    _check_count(args.states, "--states")
    if args.t_max is not None and not args.t_max > 0:
        raise ValueError(f"--t-max must be positive (got {args.t_max})")
    operator = fileio.load_hamiltonian(args.hamiltonian)
    n = operator.dimension
    if args.init == "random":
        psi0 = random_unit_vector(n, args.seed)
    else:
        psi0 = np.full(n, 1.0 / math.sqrt(n))
    dt = args.dt if args.dt is not None else continuous.default_step(operator, args.hbar)
    results = lowest_states(
        operator,
        args.states,
        psi0,
        dt=dt,
        t_max=args.t_max,
        tol=args.tol,
        hbar=args.hbar,
        seed=args.seed,
    )
    entries = [
        fileio.quantum_state_entry(k, points[-1], converged)
        for k, (points, converged) in enumerate(results)
    ]
    fileio.write_document(
        fileio.quantum_document(entries, dt=dt, tol=args.tol, hbar=args.hbar), args.out
    )
    if args.trace is not None:
        continuous.write_trajectory_csv(
            args.trace,
            ((points, [str(k)]) for k, (points, _) in enumerate(results)),
        )
    all_converged = all(converged for _, converged in results)
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def _cmd_nash(args) -> int:
    model = _load_model(args)
    equilibria = equilibrium.enumerate_pure_nash(model)
    fileio.write_document(fileio.nash_document(model, equilibria), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    model = _load_model(args)
    profile = fileio.load_profile(args.profile, model)
    certificate = equilibrium.epsilon_of_profile(model, profile)
    fileio.write_document(fileio.verify_document(model, certificate), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is malformed input, reported and exited on by main
        raise ValueError(message)


@functools.cache  # parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coopt",
        description="Compromise dynamics for games and energies, with "
        "stationary-state and equilibrium certification tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_iteration(p):
        p.add_argument("--problem", required=True, help="problem JSON file")
        p.add_argument("--hbar", type=float, default=None, help="override the model's hbar")
        p.add_argument("--tol", type=float, default=discrete.DEFAULT_TOL)
        p.add_argument("--max-iter", type=int, default=discrete.DEFAULT_MAX_ITER)

    p = sub.add_parser("solve", help="iterate to a fixed point and certify it")
    common_iteration(p)
    p.add_argument("--alpha", type=float, required=True, help="compromise exponent")
    p.add_argument("--init", choices=("uniform", "random"), default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="result JSON (stdout when omitted)")
    p.add_argument("--trace", default=None, help="per-step max-change CSV")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="alpha grid with seeded restarts, CSV report")
    common_iteration(p)
    p.add_argument("--alpha-grid", required=True, help="a:b:log:N or a:b:lin:N")
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="base seed for restart cells")
    p.add_argument("--out", default=None, help="report CSV (stdout when omitted)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("quantum", help="stationary states of a Hamiltonian file")
    p.add_argument("--hamiltonian", required=True, help="Hamiltonian JSON file")
    p.add_argument(
        "--dt", type=float, default=None,
        help=f"integrator step; must satisfy dt*half-width/hbar < "
        f"{continuous.RK4_MONOTONE_LIMIT:.4f} (the RK4 monotone limit); default 0.99 "
        "times that limit, a smaller step tracks the exact flow more closely",
    )
    p.add_argument(
        "--t-max", type=float, default=None,
        help=f"flow time limit; default {continuous.DEFAULT_T_MAX:g} * hbar",
    )
    p.add_argument("--tol", type=float, default=continuous.DEFAULT_STATIONARY_TOL)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--states", type=int, default=1, help="number of lowest states")
    p.add_argument("--init", choices=("uniform", "random"), default="uniform",
                   help="start of state 0; state k >= 1 starts from a seeded random vector")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of --init random; state k >= 1 starts from seed + k")
    p.add_argument("--out", default=None, help="report JSON (stdout when omitted)")
    p.add_argument("--trace", default=None, help="trajectory CSV")
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("nash", help="enumerate pure equilibria exhaustively")
    p.add_argument("--problem", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_nash)

    p = sub.add_parser("verify", help="epsilon certificate for a profile file")
    p.add_argument("--problem", required=True)
    p.add_argument("--profile", required=True, help="profile JSON file")
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # The library checks every result it returns: a numpy floating-point
        # warning would only print ahead of its refusal or a checked result.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, DivergenceError, AllZeroReturnsError, EvolutionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as e:  # the readers raise FileFormatError: an output failed
        print(f"error: {e.filename or 'output'}: {e.strerror or e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as e:  # numpy's message names the size it could not allocate
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
