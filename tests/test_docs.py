"""The documentation must stay executable and truthful.

* The quickstart in ``repro/__init__`` and ``README.md`` runs verbatim.
* Every ``repro.*`` module named in ``docs/paper_map.md`` imports, and every
  backtick-quoted symbol listed alongside it actually exists there.
* Every bench scenario the paper map names (``repro bench --suite <id>``) is
  registered, and every test file it names exists.
"""

from __future__ import annotations

import doctest
import importlib
import re
from pathlib import Path

import pytest

import repro
from repro.analysis.runner import scenario_ids

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_package_quickstart_doctest():
    results = doctest.testmod(repro, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


@pytest.mark.skipif(not (REPO_ROOT / "README.md").exists(), reason="no README")
def test_readme_quickstart_doctest():
    results = doctest.testfile(str(REPO_ROOT / "README.md"), module_relative=False)
    assert results.attempted > 0
    assert results.failed == 0


def _paper_map_references() -> list[tuple[str, list[str]]]:
    """Parse ``docs/paper_map.md`` into (module, [symbols]) pairs.

    The map writes references as ```repro.mod.ule`` — ``SymbolA``, ``SymbolB``
    ``; symbols quoted elsewhere in the row (prose) are not attributed to the
    module, which keeps the check strict but not brittle.
    """
    text = (REPO_ROOT / "docs" / "paper_map.md").read_text()
    references = []
    for match in re.finditer(r"`(repro(?:\.\w+)*)` — ((?:`[^`]+`(?:, )?)+)", text):
        module = match.group(1)
        symbols = [
            symbol.split("(")[0]
            for symbol in re.findall(r"`(\w+)", match.group(2))
        ]
        references.append((module, symbols))
    # Bare module mentions (no symbol list) must import too.
    for match in re.finditer(r"`(repro(?:\.\w+)+)`", text):
        references.append((match.group(1), []))
    return references


def test_paper_map_modules_and_symbols_exist():
    references = _paper_map_references()
    assert len(references) > 30, "paper map should reference many modules"
    missing = []
    for module_name, symbols in references:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(module_name)
            continue
        for symbol in symbols:
            if not hasattr(module, symbol):
                missing.append(f"{module_name}.{symbol}")
    assert not missing, f"paper map references nonexistent code: {missing}"


def test_paper_map_benchmarks_exist():
    text = (REPO_ROOT / "docs" / "paper_map.md").read_text()
    named = [
        scenario
        for suite in re.findall(r"`repro bench --suite ([\w,]+)`", text)
        for scenario in suite.split(",")
    ]
    assert len(set(named)) >= 10, named
    unknown = sorted(set(named) - set(scenario_ids()))
    assert not unknown, f"paper map names unregistered scenarios {unknown}"
    for path in re.findall(r"`(tests/\w+\.py)`", text):
        assert (REPO_ROOT / path).exists(), f"paper map names missing file {path}"
