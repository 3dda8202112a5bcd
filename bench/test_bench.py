"""The benchmark's own test.

    python3 -m pytest bench/test_bench.py -q

Checks that tracing repeats its counts exactly and leaves every output
unchanged, that the per-layer self times add up to the traced wall time,
that the limits reject oversized inputs before anything runs, and that the
checks catch a wrong output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import passes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from superstrict.semantics import NAMED_CLASSES  # noqa: E402
from superstrict.search import enumerate_frames  # noqa: E402

GOLDEN = (ROOT / "tests" / "golden" / "suite_max2.json").read_text(encoding="utf-8")


def _traced(plan, tmp_path):
    """Per-layer metrics and failed operations of one traced run."""
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    for name, text in plan.files.items():
        (work / name).write_text(text, encoding="utf-8")
    recorded = workloads.load_reference(plan)

    def check(ops, outputs):
        return [op.key for op, out in zip(ops, outputs) if workloads.check(op, out, recorded, plan.files, GOLDEN)]

    metrics, failures, _, _ = passes.traced_run(plan, str(work), 1, check)
    return metrics, failures


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_outputs_are_unchanged(workload, tmp_path):
    plan = workloads.build(workload, 7, 1)
    first, failures = _traced(plan, tmp_path)
    second, _ = _traced(plan, tmp_path)
    assert failures == []  # includes every traced output equal to its untraced one
    counts = [name for name, (_, unit) in first.items() if unit == "count"]
    assert counts and {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["search.frames_yielded"][0] > 0
    covered = sum(first[m][0] / scale for m, _, _, scale in tracing.SELF_TIMES)
    assert covered + first["bench.other_s"][0] == pytest.approx(first["bench.traced_wall_s"][0], rel=1e-9)


def test_full_scans_count_the_planned_work(tmp_path):
    plan = workloads.build("scan-valuations", 3, 1)
    ops = tuple(op for op in plan.rounds[0] if all(scan.full for scan in op.scans))
    full_only = workloads.Plan(plan.workload, plan.seed, (ops,), plan.files)
    planned = workloads.validate(full_only)
    metrics, _ = _traced(full_only, tmp_path)
    assert metrics["search.frames_yielded"][0] == planned["frames_yielded"]
    assert metrics["search.frames_evaluated"][0] == planned["frames_evaluated"]
    assert metrics["search.pairs"][0] == planned["pairs"]
    assert metrics["semantics.relation_satisfies.calls"][0] == planned["relation_codes"]


@pytest.mark.parametrize("class_name", sorted(NAMED_CLASSES))
def test_frame_tables(class_name):
    fc = NAMED_CLASSES[class_name]
    for n in (1, 2, 3):
        frames = list(enumerate_frames(n, fc))
        assert oracle.FRAMES[class_name][n - 1] == len(frames)
        assert oracle.FRAMES_NORMAL[class_name][n - 1] == sum(1 for f in frames if f.normals)


@pytest.mark.parametrize("scan, message", [
    (workloads.Scan("s2", 5, ("p",), True), "frame size"),
    (workloads.Scan("s5", 4, ("(p & q) | (r & (s | t))",), True), "k*n"),
    (workloads.Scan("s2_0", 4, ("(p & q) | (r & s)",), True), "pairs above"),
])
def test_limits_reject_before_running(scan, message):
    op = workloads.Op("valid", "big", ("cli", ("valid",)), ("none",), scans=(scan,))
    with pytest.raises(workloads.InputError, match=message):
        workloads.validate(workloads.Plan("scan-frames", 0, ((op,),), {}))


def test_every_seed_stays_within_the_limits():
    for workload in workloads.WORKLOADS:
        for seed in range(20):
            workloads.validate(workloads.build(workload, seed, 30))


def test_windowed_percentile_ignores_a_slow_minority_of_windows():
    fast, slow = [1.0] * 202, [2.0] * 202
    # p50 windows are single rounds; two slow rounds of five leave it at 1.
    assert passes.windowed_percentile([fast, slow, fast, slow, fast], 0.5) == (1.0, 5, 202)
    # p99 windows need 1,000 operations: five rounds, the remainder joins the last.
    assert passes.windowed_percentile([fast] * 11, 0.99) == (1.0, 2, 1010)
    assert passes.windowed_percentile([fast] * 3, 0.99) == (1.0, 1, 606)


def test_checks_catch_a_wrong_witness():
    op = workloads._countermodel_cli("box p -> p", "k", 3, "t", "schema T over k")
    good = 'rc=0\ncountermodel at n=1, world 0\n{"normals": [0], "rel": [[]], "val": {"p": []}, "worlds": 1}\n'
    assert workloads.check(op, good, {}, {}, GOLDEN) is None
    looped = good.replace('"rel": [[]]', '"rel": [[0]]')
    assert "true at the witness" in workloads.check(op, looped, {}, {}, GOLDEN)
    suite = workloads.Op("suite", "suite", ("suite", None), ("suite-catalog",))
    data = json.loads(GOLDEN)
    data["entries"][0]["witness"]["world"] = 5
    assert workloads.check(suite, json.dumps(data), {}, {}, GOLDEN) is not None


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
