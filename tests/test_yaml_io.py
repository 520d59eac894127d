"""Every YAML read and write goes through the two materials helpers, and
their libyaml backend gives the same documents as pure-Python PyYAML."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest
import yaml

from donorspin import materials
from donorspin.config import config_digest, load_run_config, plain_data
from donorspin.estimators import decoherence_budget
from donorspin.materials import dump_yaml, load_yaml

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "donorspin"
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
PROFILE = PACKAGE / "materials" / "zno-natural.yaml"
_YAML_CALLS = {"load", "dump", "safe_load", "safe_dump"}
_HELPERS = {("materials.py", "load_yaml"), ("materials.py", "dump_yaml")}


def _yaml_calls(path: Path) -> list:
    """(module, enclosing function, line) of each direct PyYAML call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Attribute) \
                    and isinstance(child.func.value, ast.Name) \
                    and child.func.value.id == "yaml" \
                    and child.func.attr in _YAML_CALLS:
                found.append((path.name, function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_the_helpers_call_pyyaml():
    calls = [call for path in sorted(PACKAGE.glob("*.py"))
             for call in _yaml_calls(path)]
    assert [c for c in calls if c[:2] not in _HELPERS] == []
    # the scan sees the helpers' own calls, so it is looking
    assert {c[:2] for c in calls} == _HELPERS


def test_helpers_use_libyaml_when_pyyaml_has_it():
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    assert materials._LOADER is yaml.CSafeLoader
    assert materials._DUMPER is yaml.CSafeDumper


def _meta_document(path: Path) -> dict:
    """The metadata document a run of this config writes, with summary
    values of every kind a summary holds."""
    config = load_run_config(path)
    document = {
        "config": config.resolved,
        "config_digest": config_digest(config.resolved),
        "seed": config.seed,
        "summary": {"fitted_frequency_Hz": math.nan, "p_up_max": 0.1 + 0.2,
                    "windows": 3, "total_time_span_s": 1.5e-05,
                    "fitted_t1_s": -math.inf, "larmor_rad_per_s": 8.66e11},
    }
    if path.name == "estimate.yaml":
        document["budget"] = decoherence_budget(config.material).as_report()
    return plain_data(document)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_meta_dump_matches_pure_python(path):
    document = _meta_document(path)
    text = dump_yaml(document)
    assert text == yaml.safe_dump(document, sort_keys=True)
    assert load_yaml(text) == yaml.safe_load(text) == document


@pytest.mark.parametrize("path", CONFIGS + [PROFILE], ids=lambda p: p.stem)
def test_shipped_documents_load_as_pure_python(path):
    text = path.read_text(encoding="utf-8")
    assert load_yaml(text) == yaml.safe_load(text)
    with open(path, encoding="utf-8") as handle:
        assert load_yaml(handle) == yaml.safe_load(text)
