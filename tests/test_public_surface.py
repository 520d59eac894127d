"""Every public name of the package is used by something that runs."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "donorspin"

# names that only tests reach, each kept for the reason given
TEST_ONLY = (
    ("evolve", "brute-force reference of the acceptance and dual-route tests"),
    ("extracted_rotation_angle", "rotation-angle reference of the "
                                 "acceptance and dual-route tests"),
    ("zeeman_frequency_hz", "pins the 137.9 GHz splitting anchor"),
)


class _Module:
    """One package module: its lines, exports and top-level definitions."""

    def __init__(self, path: Path):
        self.name = path.name
        self.lines = path.read_text(encoding="utf-8").splitlines()
        tree = ast.parse("\n".join(self.lines))
        self.exports = []
        self.export_lines = set()
        self.definitions = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.definitions[node.name] = node.lineno
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for elt in getattr(target, "elts", [target]):
                        if isinstance(elt, ast.Name):
                            self.definitions[elt.id] = node.lineno
                if any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in node.targets):
                    self.exports = [elt.value for elt in node.value.elts]
                    self.export_lines = set(range(node.lineno,
                                                  node.end_lineno + 1))

    def mentions(self, name: str) -> bool:
        """A line names ``name`` besides its definition and ``__all__``."""
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        skip = self.export_lines | {self.definitions.get(name)}
        return any(pattern.search(line)
                   for number, line in enumerate(self.lines, start=1)
                   if number not in skip)


def _outside_text() -> str:
    files = [ROOT / "README.md"]
    for folder in ("scripts", "perfbench", "configs"):
        files += [p for p in (ROOT / folder).rglob("*")
                  if p.is_file() and p.suffix in (".py", ".md", ".yaml")]
    return "\n".join(p.read_text(encoding="utf-8") for p in files)


def test_every_export_is_used_outside_tests():
    modules = [_Module(path) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    outside = _outside_text()
    exempt = {name for name, _ in TEST_ONLY}
    unused = [f"{module.name}:{name}"
              for module in modules for name in module.exports
              if name not in exempt
              and not any(other.mentions(name) for other in modules)
              and not re.search(rf"\b{re.escape(name)}\b", outside)]
    assert unused == []
    # an exemption outlives the name it excuses only by mistake
    assert exempt <= {name for module in modules for name in module.exports}
