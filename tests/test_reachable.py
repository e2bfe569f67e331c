"""Every module under ``src/repro`` is reached by the program itself: a
module that only its own tests import is dead code to delete, not to
maintain."""

import ast
import pkgutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_names(path: Path) -> set[str]:
    """Dotted names ``path`` imports; ``from pkg import mod`` yields
    both ``pkg`` and ``pkg.mod``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_every_module_is_imported_by_src_or_benchmarks():
    importers: dict[str, set[str]] = {}
    for path in [*SRC.rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py")]:
        me = _module_name(path) if SRC in path.parents else str(path)
        for name in _imported_names(path):
            importers.setdefault(name, set()).add(me)
    # Entry points with no importer by design: ``python -m repro`` and
    # the policy plugins the registry finds with ``pkgutil``.
    plugins = {f"repro.policies.{info.name}"
               for info in pkgutil.iter_modules([str(SRC / "repro" / "policies")])}
    exempt = {"repro.__main__", *plugins}
    modules = {_module_name(p) for p in (SRC / "repro").rglob("*.py")
               if p.name != "__init__.py"}
    assert "repro.sim.core" in modules  # the scan itself found the package
    unreached = sorted(m for m in modules - exempt if not importers.get(m, set()) - {m})
    assert unreached == []
