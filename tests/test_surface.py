"""The public surface holds only what the engine, the demos or the benchmark reach.

A name that ``geoverify/__init__.py`` exports must appear as a code token
somewhere in ``src/`` other than its own ``def`` or ``class`` line, or in
``demos/`` or ``bench/``.  A name only tests reach belongs in
``tests/oracles.py``, not in the package.  And each exported name is in
the ``__all__`` of the module it comes from, so that ``from module import *``
gives it too.
"""

import ast
import importlib
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geoverify"

# exported names that nothing outside the tests reads yet, and why each stays
ALLOWED = {
    "lie_derivative_metric": "the algebraic-soliton certificate on the roadmap reads (L_xi g) in the frame",
    "horizontal_tension": "acceptance criterion 9 reads the witnesses' horizontal tension on its own",
}


def _imports() -> list[ast.ImportFrom]:
    """The package's relative ``from .module import ...`` statements."""
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    return [node for node in body if isinstance(node, ast.ImportFrom) and node.level]


def _exported() -> set[str]:
    return {alias.asname or alias.name for node in _imports() for alias in node.names}


def _code_names(path: Path) -> set[str]:
    """The NAME tokens of a file, less the name each ``def`` or ``class`` defines."""
    names, defining = set(), False
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME and not defining:
            names.add(tok.string)
        defining = tok.type == tokenize.NAME and tok.string in ("def", "class")
    return names


def test_every_exported_name_is_reached_outside_the_tests():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set().union(*map(_code_names, files))
    exported = _exported()
    assert set(ALLOWED) <= exported
    assert exported - used == set(ALLOWED), "only tests reach these: move them to tests/oracles.py, or allow them"


def test_every_exported_name_is_in_its_modules_all():
    for node in _imports():
        module = importlib.import_module(f"geoverify.{node.module}")
        missing = {alias.name for alias in node.names} - set(module.__all__)
        assert missing == set(), f"geoverify.{node.module}.__all__ lacks {sorted(missing)}"
