"""The example scripts run end to end with their default arguments."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["decoherence_budget",
                                  "echo_injected_roundtrip", "ramsey_t2star",
                                  "t1_field_sweep"])
def test_script_main_succeeds(name, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{name}",
                                                  SCRIPT_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([]) == 0
    assert capsys.readouterr().out
