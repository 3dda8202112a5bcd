"""One workload run: timed rounds or a traced round, with every output kept
for the checks that follow."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from superstrict.proof import SystemId
from superstrict.semantics import NAMED_CLASSES, model_to_json

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_STARTS = 15  # fresh interpreters per run; set-up time is their median
MIN_ROUNDS = 3


def execute(op, api, work: str) -> str:
    """Run one operation; return its output as text."""
    match op.call:
        case ("cli", argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = api.cli_main([a.replace("{work}", work) for a in argv])
            text = f"rc={rc}\n{out.getvalue()}"
            if err.getvalue():
                text += f"--- stderr ---\n{err.getvalue()}"
            if "--json" in argv and argv[0] == "suite":
                with open(argv[-1].replace("{work}", work), encoding="utf-8") as fh:
                    text += "--- json ---\n" + fh.read()
            return text
        case ("suite", max_n):
            return api.run_suite(max_n).to_json()
        case ("rule_probe", premises, conclusion, class_name, max_n):
            return _witness_text(api.rule_probe_witness([api.parse(p) for p in premises], api.parse(conclusion),
                                                        NAMED_CLASSES[class_name], max_n))
        case ("definability_probe", text, class_name, max_n):
            return _witness_text(api.definability_probe(api.parse(text), NAMED_CLASSES[class_name], max_n))
        case ("spotcheck", system, script, max_n):
            with open(os.path.join(work, script), encoding="utf-8") as fh:
                derivation = api.parse_script(fh.read())
            entries = api.soundness_spotcheck(SystemId(system), derivation, max_n)
            return "".join(f"{e.step}: {'valid' if e.valid_up_to_bound else 'countermodel'}\n" for e in entries)
    raise ValueError(f"unknown operation {op.call!r}")


def _witness_text(wit) -> str:
    return "none" if wit is None else f"witness at world {wit[1]}: {json.dumps(model_to_json(wit[0]))}"


def freeze_heap() -> None:
    """Move every object alive now (the plan, the recorded outputs, the
    loaded modules) out of the collector's reach, so that the timed calls
    pay for collecting their own garbage and not for scanning the
    benchmark's data, which a command-line call would not hold."""
    gc.collect()
    gc.freeze()


def run_round(ops, api, work: str, op_times: list[float] | None = None) -> tuple[float, list[str]]:
    """One pass over `ops`: its wall time and every output."""
    gc.collect()
    outputs = []
    t0 = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        outputs.append(execute(op, api, work))
        if op_times is not None:
            op_times.append(time.perf_counter() - t)
    return time.perf_counter() - t0, outputs


def import_time(env: dict) -> float:
    """Seconds for a fresh interpreter to import the package."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import superstrict"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def windowed_percentile(round_times: list[list[float]], p: float) -> tuple[float, int, int]:
    """The median over windows of each window's `p` percentile, with the
    window count and the smallest window's size.  A window is a run of
    consecutive rounds holding enough operations for 10 or more to lie
    beyond the percentile; the last window takes the remainder.  A slow
    phase of the machine that covers less than half of a run's windows
    then leaves the figure unchanged, where a percentile pooled over the
    whole run would shift with it."""
    need = math.ceil(round(10 / (1 - p), 9))
    windows: list[list[float]] = []
    current: list[float] = []
    for times in round_times:
        current += times
        if len(current) >= need:
            windows.append(current)
            current = []
    if current:
        if windows:
            windows[-1] += current
        else:
            windows.append(current)
    return (statistics.median(percentile(w, p) for w in windows), len(windows), min(len(w) for w in windows))


def timed_run(plan, work: str, seconds: float, check) -> tuple[dict, list[str], int, list[str]]:
    """Rounds until `seconds` are used (at least MIN_ROUNDS), with the
    set-up starts spread between them so that both sample the whole run.
    `check(ops, outputs)` lists the failed operations of a round; it runs
    between rounds, so no round's outputs are kept into the next."""
    api = tracing.plain_api()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    import_time(env)  # writes the bytecode cache
    freeze_heap()
    setup_times: list[float] = []
    op_times: list[list[float]] = []
    round_times: list[float] = []
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    for ops in plan.rounds:
        elapsed = time.perf_counter() - start
        if len(round_times) >= MIN_ROUNDS and elapsed + round_times[-1] > seconds:
            break
        while len(setup_times) < SETUP_STARTS * min(1.0, elapsed / seconds):
            setup_times.append(import_time(env))
        op_times.append([])
        dt, outputs = run_round(ops, api, work, op_times[-1])
        round_times.append(dt)
        failures += check(ops, outputs)
        attempted += len(ops)
    while len(setup_times) < SETUP_STARTS:
        setup_times.append(import_time(env))
    p = workloads.TAIL_PERCENTILE[plan.workload]
    p50, p50_windows, p50_size = windowed_percentile(op_times, 0.5)
    tail, tail_windows, tail_size = windowed_percentile(op_times, p)
    metrics = {
        "wall_s": (statistics.median(round_times), "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = [f"rounds: {len(round_times)}, seconds each: {' '.join(f'{t:.3f}' for t in round_times)}",
             f"wall_s is the median round; setup_s the median of {SETUP_STARTS} fresh imports of the package",
             f"op_p50_ms is the median p50 of {p50_windows} windows of {p50_size} or more operations",
             f"op_tail_ms is the median p{p * 100:g} of {tail_windows} windows of {tail_size} or more operations "
             f"({tail_size - math.ceil(p * tail_size)} or more beyond it in each)"]
    return metrics, failures, attempted, notes


def traced_run(plan, work: str, seconds: float, check) -> tuple[dict, list[str], int, list[str]]:
    """Round 0 untraced twice (the first fills caches), then traced,
    whatever `seconds` is.  A traced output that differs from the untraced
    one fails its operation."""
    ops = plan.rounds[0]
    freeze_heap()
    run_round(ops, tracing.plain_api(), work)
    wall_untraced, plain = run_round(ops, tracing.plain_api(), work)
    tracer = tracing.Tracer()
    try:
        api = tracer.install()
        wall, traced = run_round(ops, api, work)
    finally:
        tracer.uninstall()
    differ = [op.key for op, a, b in zip(ops, plain, traced) if a != b]
    notes = [f"traced round: {len(ops)} operations, {wall:.3f} s traced, {wall_untraced:.3f} s untraced",
             f"outputs identical with and without tracing: {'yes' if not differ else 'NO: ' + ', '.join(differ)}"]
    traced = [b if a == b else "traced output differs from the untraced one" for a, b in zip(plain, traced)]
    return tracer.metrics(wall, wall_untraced), check(ops, plain) + check(ops, traced), 2 * len(ops), notes
