"""Record the output of every member of the query pools.

    python3 bench/make_reference.py

Writes bench/reference/queries.json, which pins the output bytes of every
CLI query the queries workload can draw (and so the canonical first
witness of each countermodel query).  Run it only on a commit whose outputs
are known good; a run of the benchmark compares against these bytes.
Every member must also pass its independent check before it is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import passes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    pools, files = workloads.query_pools()
    golden = (ROOT / "tests" / "golden" / "suite_max2.json").read_text(encoding="utf-8")
    work = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    recorded, problems = {}, []
    try:
        for name, text in files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        api = tracing.plain_api()
        for ops in pools.values():
            for op in ops:
                if op.call[0] != "cli":
                    continue
                output = passes.execute(op, api, work)
                problem = workloads.check(op, output, {}, files, golden)
                if problem:
                    problems.append(f"{op.key}: {problem}")
                recorded[op.key] = {**workloads.reference_entry(op, files),
                                    "output_sha256": workloads.sha256(output)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    workloads.REFERENCE_FILE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} queries in {workloads.REFERENCE_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
