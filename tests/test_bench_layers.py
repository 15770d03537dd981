"""Smoke test of the traced benchmark run: ``bench/layers.py`` patches
``contseq.cli`` by attribute name, so renaming one of those attributes must
fail here rather than only in a benchmark comparison."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contseq
from contseq.cli import main

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "bench" / "layers.py"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["gen", "--output-dir", str(out), "--vocab", "20", "--size", "2000",
                 "--seed", "1"]) == 0
    assert main(["map", "--input", str(out / "corpus.jsonl"), "--output-dir", str(out),
                 "--threads", "1"]) == 0
    return out


@pytest.mark.parametrize("command", ["map", "crawl"])
def test_traced_run_succeeds(command, corpus, tmp_path):
    extra = (["--sequences", str(corpus / "sequences.txt")] if command == "map"
             else ["--seed-author", "s00001-a01"])
    env = dict(os.environ, PYTHONPATH=str(Path(contseq.__file__).parents[1]))
    subprocess.run([sys.executable, str(LAYERS), command, "--input",
                    str(corpus / "corpus.jsonl"), "--output-dir", str(tmp_path), *extra,
                    "--traced"], env=env, capture_output=True, timeout=300, check=True)
    result = json.loads((tmp_path / "traced.json").read_text())
    assert result["exit_codes"] and set(result["exit_codes"]) == {0}, result
