"""The traced benchmark stays runnable: every function ``perfbench/run.py``
wraps in a ``--trace 1`` run exists on ``qbcsim``, and the CLI reaches its
CSV writer through the module global the tracer replaces."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qbcsim import cli

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TARGETS = load_run().TRACE_TARGETS


@pytest.mark.parametrize("module, attr", [t[:2] for t in TARGETS], ids=lambda v: v)
def test_trace_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"qbcsim.{module}"), attr))


def test_main_writes_csv_through_the_module_global(monkeypatch, capsys):
    seen = []

    def spy(artifact):
        seen.append(artifact)
        return "spied\n"

    monkeypatch.setattr(cli, "to_csv", spy)
    assert cli.main(["distance", "--alpha", "0.2"]) == 0
    assert capsys.readouterr().out == "spied\n"
    assert [a.columns for a in seen] == [
        ("alpha", "rd", "rn", "max_safe_km", "max_safe_noisy_km")
    ]
