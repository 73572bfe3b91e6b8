"""The traced benchmark stays runnable: every function ``perfbench/run.py``
wraps in a ``--trace 1`` run exists on ``qbcsim``, and the CLI reaches its
CSV writer through the module global the tracer replaces.  The README's
commands and its Python API example run as written, and each command's
artifact is pinned byte for byte."""

import contextlib
import csv
import hashlib
import importlib
import importlib.util
import io
import shlex
import sys
from pathlib import Path

import pytest

from qbcsim import cli

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


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


def test_readme_python_example_runs_and_its_check_prints_true():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    check = next(i for i, line in enumerate(prints) if "== best.value" in line)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(prints)
    assert lines[check] == "True"


def readme_commands() -> list[list[str]]:
    """The arguments of every ``qbcsim ...`` line of the README's ``sh`` blocks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in readme.split("```sh\n")[1:]]
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("qbcsim ")]


#: sha256 of each README command's artifact, by subcommand.  A change that
#: alters an artifact on purpose updates its digest and says so.
README_DIGESTS = {
    "honest": "4fe2486cce9776ae522c9aee49c3205f25d643047c2743690c5104c3ef567419",
    "binding-failure": "762f2585a80858f4f388a1af0a6348e0cf1b9fe2e539e08bb57587cf91bc9f97",
    "cheat-surface": "4734f6927c8997466f8a8f2d9f6eace6c4786fa815aca80f06d19edb384c7375",
    "cheat-max": "fb7ecac14ccdcc963c9402dcbb5cb8a0a273511162b75528f6677c85baafd77b",
    "tables": "597c6d5fd7d8b82351c82488c0350baa570e53da9194fea20adc64048111691a",
    "distance": "82067e5944666da9a0a13922bd3a546e25196dc8aac89f09643ac67e103c2f67",
    "multiphoton": "33c63f927abdda6c2c0fab861b57a73fe905bb91f6030468c99af1a6150b789e",
    "mc": "a90bb10361d2ef31565934b7b478ac3e5b3e38b03eef086d773cda4bbf021b44",
}


def test_readme_commands_run_and_write_csv(tmp_path, capsys):
    commands = readme_commands()
    assert sorted(args[0] for args in commands) == sorted(README_DIGESTS)
    for args in commands:
        out = None
        if "--out" in args:
            i = args.index("--out") + 1
            out = args[i] = str(tmp_path / Path(args[i]).name)
        assert cli.main(args) == 0, args
        data = capsys.readouterr().out.encode() if out is None else Path(out).read_bytes()
        assert hashlib.sha256(data).hexdigest() == README_DIGESTS[args[0]], args
        header, first_row = list(csv.reader(io.StringIO(data.decode())))[:2]
        # column names, not numbers, and a row of the same width
        assert all(name[:1].isalpha() for name in header), args
        assert len(first_row) == len(header), args
