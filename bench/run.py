"""Benchmark of the superstrict toolkit.

    python3 bench/run.py --workload scan-frames|scan-valuations|queries \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run measures set-up time, then makes its rounds
untraced and reports the end-to-end metrics.  With ``--trace 1`` it makes
one round untraced and the same round again with every layer wrapped, and
reports the per-layer metrics of the traced round.  Every operation's
output is checked after the timed region.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "suite_max2.json"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "superstrict" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: run from a checkout of the repository; {SRC} or {GOLDEN} is missing", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from superstrict.catalog import run_suite

    import passes
    import workloads

    try:
        plan = workloads.build(args.workload, args.seed, args.seconds)
        planned = workloads.validate(plan)
        recorded = workloads.load_reference(plan)
    except workloads.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    golden = GOLDEN.read_text(encoding="utf-8")

    def check_round(ops, outputs) -> list[str]:
        return [f"{op.kind} {op.key}: {problem}" for op, out in zip(ops, outputs)
                if (problem := workloads.check(op, out, recorded, plan.files, golden))]

    work = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        for name, text in plan.files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        run = passes.traced_run if args.trace else passes.timed_run
        metrics, failures, attempted, notes = run(plan, work, args.seconds, check_round)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    suite_json = run_suite(2).to_json()
    attempted += 1
    if suite_json != golden:
        failures.append("run_suite(2) JSON differs from tests/golden/suite_max2.json")

    print(f"workload {plan.workload}, seed {plan.seed}, trace {args.trace}: "
          f"{attempted} operations attempted, {len(failures)} failed")
    for note in notes:
        print(note)
    print("planned work of the full scans in one round: "
          + ", ".join(f"{k}={v}" for k, v in planned.items()))
    print(f"suite JSON sha256 (max_n=2): {workloads.sha256(suite_json)}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
