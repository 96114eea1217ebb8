"""Every dotted `coopt.` name in README.md resolves, so a doc reference to a
deleted or moved name fails here."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
NAMES = sorted(set(re.findall(r"\bcoopt(?:\.[A-Za-z_]\w*)+", README.read_text(encoding="utf-8"))))


def resolve(dotted: str):
    """Import the longest importable module prefix, then getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_readme_names_some_coopt_attributes():
    assert "coopt.numerics.jacobi_eigen" in NAMES


@pytest.mark.parametrize("dotted", NAMES)
def test_readme_name_resolves(dotted):
    resolve(dotted)
