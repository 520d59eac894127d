"""Every public name of the package is used by something that runs."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "donorspin"


class _Module:
    """One package module: its exports and the names its code reads."""

    def __init__(self, path: Path):
        self.name = path.name
        tree = ast.parse(path.read_text(encoding="utf-8"))
        self.exports = None
        self.references = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                self.exports = [elt.value for elt in node.value.elts]
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load):
                self.references.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                self.references.add(node.attr)

    def mentions(self, name: str) -> bool:
        """Code reads ``name``: docstrings, comments and ``__all__``
        strings do not count, nor does the definition itself."""
        return name in self.references


def _outside_text() -> str:
    files = [ROOT / "README.md"]
    for folder in ("scripts", "perfbench", "configs"):
        files += [p for p in (ROOT / folder).rglob("*")
                  if p.is_file() and p.suffix in (".py", ".md", ".yaml")]
    return "\n".join(p.read_text(encoding="utf-8") for p in files)


# the parameters that the benchmark's probes bind by name
PROBED_PARAMETERS = {
    "lindblad.pulse_window_propagator": (
        "levels", "pulse", "dissipators", "config", "spin_detuning",
        "expm_steps"),
    "bath.BathModel.sample_detunings": ("n",),
    "fitting.fit_fringe": ("known_frequency",),
    "fitting.ingest_trace": ("path",),
    "cli.write_trace_file": ("path",),
}


def test_every_export_is_used_outside_tests():
    modules = [_Module(path) for path in sorted(PACKAGE.glob("*.py"))
               if path.name not in ("__init__.py", "__main__.py")]
    # a module without __all__ would hide its names from this check
    assert [m.name for m in modules if m.exports is None] == []
    outside = _outside_text()
    unused = [f"{module.name}:{name}"
              for module in modules for name in module.exports
              if not any(other.mentions(name) for other in modules)
              and not re.search(rf"\b{re.escape(name)}\b", outside)]
    assert unused == []


def test_the_benchmark_traces_live_names():
    # the benchmark wraps these by name, so a deleted or renamed one
    # would leave its spans empty rather than fail a run
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for full in tracing.traced_names():
        module, *path = full.split(".")
        target = importlib.import_module(f"donorspin.{module}")
        for attr in path:
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(full)
            continue
        parameters = inspect.signature(target).parameters
        missing += [f"{full}({name}=)"
                    for name in PROBED_PARAMETERS.get(full, ())
                    if name not in parameters]
    assert missing == []
    assert set(PROBED_PARAMETERS) <= set(tracing.traced_names())


def _attribute_reads() -> set:
    """The attribute names that package code, the benchmark or a script
    reads: not tests and not prose."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(
            (ROOT / "perfbench").rglob("*.py")) + sorted(
            (ROOT / "scripts").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_method_is_read_outside_tests():
    # a method or property is used when code reads it as an attribute
    reads = _attribute_reads()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                unread += [f"{path.name}:{cls.name}.{node.name}"
                           for node in cls.body
                           if isinstance(node, ast.FunctionDef)
                           and not node.name.startswith("_")
                           and node.name not in reads]
    assert unread == []


# fields kept although only tests read them, each with its reason
UNREAD_FIELDS = {
    # acceptance criterion 4 reads the continuum-tail share
    "estimators.py:LatticeSumResult.growth_change",
    # run_echo stays for the names the benchmark traces, and this is
    # the echo amplitude it returns
    "sequences.py:EchoResult.amplitude",
}


def test_every_result_field_is_read_outside_tests():
    # an annotated class field is used when code reads it as an attribute
    reads = _attribute_reads()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                unread += [f"{path.name}:{cls.name}.{node.target.id}"
                           for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)
                           and node.target.id not in reads]
    # an exemption whose field is read, or gone, is stale
    assert sorted(set(unread) ^ UNREAD_FIELDS) == []
