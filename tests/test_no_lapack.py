"""The library's oracles stay self-contained: no LAPACK inside src/coopt.

numpy.linalg is allowed for norms only, spelled np.linalg.norm; every
eigen-, solve- or factorization routine there (and all of scipy) calls
LAPACK.  The tests may use them as independent references.
"""

import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "coopt").glob("*.py"))
SCIPY_IMPORT = re.compile(r"^\s*(?:import|from)\s+scipy\b", re.MULTILINE)


def test_sources_found():
    assert any(path.name == "numerics.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_lapack_in_library(path):
    text = path.read_text()
    assert "linalg" not in text.replace("np.linalg.norm(", "")
    assert not SCIPY_IMPORT.search(text)
