"""Paths to the problem and Hamiltonian files shipped with the package."""

from __future__ import annotations

from pathlib import Path

_DIR = Path(__file__).parent / "examples"


def bundled_path(name: str) -> Path:
    names = sorted(path.stem for path in _DIR.glob("*.json"))
    if name not in names:
        raise KeyError(f"no bundled file {name!r}; choose one of {', '.join(names)}")
    return _DIR / f"{name}.json"
