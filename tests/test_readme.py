"""The README's code example runs as written."""

import os
import re
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
