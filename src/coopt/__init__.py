"""Compromise dynamics for games and distributed energy minimization.

Import each part from its module: problem types and the contraction plan
from `coopt.model`, the discrete compromise map from `coopt.discrete`, the
dissipative flow to stationary states from `coopt.continuous`, epsilon
certificates, Nash enumeration and sweeps from `coopt.equilibrium`,
operators, the RK4 step and the eigensolver oracle from `coopt.numerics`,
file formats from `coopt.fileio` and the command line from `coopt.cli`.
The package itself holds only `bundled_path`, the path of a shipped example.
"""

from pathlib import Path

__version__ = "0.1.0"


def bundled_path(name: str) -> Path:
    directory = Path(__file__).parent / "examples"
    names = sorted(path.stem for path in directory.glob("*.json"))
    if name not in names:
        raise KeyError(f"no bundled file {name!r}; choose one of {', '.join(names)}")
    return directory / f"{name}.json"
