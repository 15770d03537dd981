"""The README's code examples run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import contseq
from contseq.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(tmp_path, capsys):
    """The block under ``## Library use``, run on a small ``gen`` corpus named
    ``corpus.jsonl``, prints a fit's exponent, uncertainty and r^2."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    example = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    assert main(["gen", "--vocab", "50", "--size", "3000", "--seed", "1",
                 "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    src = str(Path(contseq.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", example], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert len([float(value) for value in run.stdout.split()]) == 3, run.stdout


def test_pipeline_walkthrough_runs(tmp_path, monkeypatch, capsys):
    """The block under ``## Pipeline walkthrough``, run as written: every
    command exits 0 and writes the files that the README's table lists for it."""
    section = README.read_text(encoding="utf-8").split("\n## Pipeline walkthrough\n", 1)[1]
    block = re.match(r".*?```bash\n(.*?)\n```", section, re.S).group(1)
    writes = {command: re.findall(r"`(\w+\.\w+)`", cells)
              for command, cells in re.findall(r"^\| `([\w-]+)`\s*\|[^|]*\|([^|]*)\|$",
                                               section, re.M)}
    commands = [shlex.split(text) for text in block.splitlines()]
    assert len(commands) == 7 and sorted(writes) == sorted(argv[1] for argv in commands)
    monkeypatch.chdir(tmp_path)
    for program, *argv in commands:
        assert program == "contseq"
        assert all(not (tmp_path / "out" / name).exists() for name in writes[argv[0]])
        assert main(argv) == 0, capsys.readouterr().err
        assert writes[argv[0]] and all((tmp_path / "out" / name).is_file()
                                       for name in writes[argv[0]]), argv[0]
