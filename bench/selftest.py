"""Self-test of the benchmark at tiny corpus sizes.

    python3 bench/selftest.py

Run from the repository root. Checks that the co-authorship generator is
deterministic for a seed, that every workload runs clean (both with and
without tracing) on a seed other than the default, and that each workload's
checker rejects a corrupted output.
"""

from __future__ import annotations

import shutil
import sys
import traceback

import corpus
import run

TINY = run.Sizes(zipf_records=3000, zipf_vocab=200, zipf_trace_records=1000,
                 coauthor_records=4000)
SCRATCH = run.WORK / "selftest"


def test_generator_is_deterministic():
    geo = corpus.Geography.load(run.DATA)
    paths = [SCRATCH / f"{name}.jsonl" for name in "abc"]
    first, second, other = (corpus.write_coauthor_corpus(path, seed, 3000, geo)
                            for path, seed in zip(paths, (7, 7, 8)))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert first == second
    assert paths[0].read_bytes() != paths[2].read_bytes()
    assert first.report()["total"] == 3000
    assert first.report() != other.report() or first.sequences != other.sequences


def test_workloads_run_clean_on_another_seed():
    for name in run.WORKLOADS:
        for trace in (False, True):
            result, record = run.run(name, 7, 0, trace, TINY)
            problems = [op for op in record["operations"] if op["problems"]]
            assert result["correct"] and result["failed"] == 0, (name, trace, problems)
            assert result["attempted"] >= 1
            units = run.PER_LAYER if trace else run.END_TO_END
            assert set(result["metrics"]) == set(units)


def _staged(name: str):
    """A workload set up at tiny size with all its stages run clean."""
    work = SCRATCH / name
    workload = run.WORKLOADS[name](work, 7, TINY, run.Commands(work / "stderr.log"))
    workload.setup()
    for op in workload.run_stages():
        assert not op["problems"], op
    return workload, {stage: check for stage, _, check, _ in workload.stages()}


def _rewrite(path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_sequence(lines):
    lines[0] = "Asia (1)" if lines[0] != "Asia (1)" else "Africa (1)"


def _bump_rank_count(lines):
    rank_and_sequence, count, percent = lines[1].rsplit(",", 2)
    lines[1] = f"{rank_and_sequence},{int(count) + 1},{percent}"


def _bump_distance(lines):
    author, distance = lines[-1].split(",")
    lines[-1] = f"{author},{int(distance) + 1}"


def test_checkers_reject_corrupted_outputs():
    for name in ("zipf-1m", "messy-300k"):
        workload, check = _staged(name)
        for stage, path, edit in (("map", "sequences.txt", _edit_sequence),
                                  ("rank", "rank.csv", _bump_rank_count)):
            assert not check[stage](workload.out)
            _rewrite(workload.out / path, edit)
            assert check[stage](workload.out), (name, path)
    workload, check = _staged("coauthor-crawl")
    _rewrite(workload.out / "crawl_distances.csv", _bump_distance)
    assert check["crawl"](workload.out)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failed = 0
    for test in (test_generator_is_deterministic, test_checkers_reject_corrupted_outputs,
                 test_workloads_run_clean_on_another_seed):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)
        try:
            test()
        except Exception:  # report every test, then fail
            failed += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
        else:
            print(f"PASS {test.__name__}")
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
