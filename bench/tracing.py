"""Per-layer spans and counts, recorded from outside the package.

`Tracer.install` replaces each public function at the place its caller looks
it up (``superstrict.cli.find_countermodel``, ``superstrict.search.holds``,
...) with a wrapper that records a span, and `uninstall` puts the originals
back.  Nothing is patched where a function would find itself again when it
recurses: ``desugar`` and the other translations are wrapped only where
``cli`` and ``search`` import them, so one call records one span.

A span's self time is its duration minus the durations of the spans it
directly contains.  Every wrapped name has a self-time metric, so the self
times plus `bench.other_s` (the pass outside any span) add up to the traced
wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from types import SimpleNamespace

from superstrict import catalog, cli, proof, search, syntax
from superstrict.syntax import children, desugar, variables

import oracle

# (module, attribute, span) for every call site inside the package.
_CALL_SITES = (
    (cli, "find_countermodel", "search.find_countermodel"),
    (catalog, "find_countermodel", "search.find_countermodel"),
    (proof, "find_countermodel", "search.find_countermodel"),
    (search, "enumerate_frames", "search.enumerate_frames"),
    (search, "relation_satisfies", "semantics.relation_satisfies"),
    (search, "holds", "semantics.holds"),
    (cli, "holds", "semantics.holds"),
    (search, "satisfies_class", "semantics.satisfies_class"),
    (cli, "model_to_json", "semantics.model_to_json"),
    (catalog, "model_to_json", "semantics.model_to_json"),
    (cli, "parse", "syntax.parse"),
    (proof, "parse", "syntax.parse"),
    (cli, "desugar", "syntax.translate"),
    (cli, "to_box_language", "syntax.translate"),
    (cli, "to_strict_language", "syntax.translate"),
    (search, "desugar", "syntax.translate"),
    (cli, "parse_script", "proof.parse_script"),
    (cli, "check", "proof.check"),
    (proof, "check", "proof.check"),
    (proof, "taut", "proof.taut"),
    (cli, "run_suite", "catalog.run_suite"),
)

SEARCHES = ("search.find_countermodel", "search.rule_probe_witness", "search.definability_probe")

# (metric, unit, span whose self time it reports, scale) for every span.
SELF_TIMES = (
    ("search.find_countermodel.self_s", "s", "search.find_countermodel", 1.0),
    ("search.enumerate_frames.self_s", "s", "search.enumerate_frames", 1.0),
    ("semantics.relation_satisfies.self_s", "s", "semantics.relation_satisfies", 1.0),
    ("search.rule_probe_witness.self_s", "s", "search.rule_probe_witness", 1.0),
    ("search.definability_probe.self_s", "s", "search.definability_probe", 1.0),
    ("semantics.holds.self_ms", "ms", "semantics.holds", 1e3),
    ("semantics.satisfies_class.self_ms", "ms", "semantics.satisfies_class", 1e3),
    ("semantics.model_to_json.self_ms", "ms", "semantics.model_to_json", 1e3),
    ("syntax.parse.self_ms", "ms", "syntax.parse", 1e3),
    ("syntax.translate.self_ms", "ms", "syntax.translate", 1e3),
    ("proof.parse_script.self_ms", "ms", "proof.parse_script", 1e3),
    ("proof.check.self_ms", "ms", "proof.check", 1e3),
    ("proof.taut.self_ms", "ms", "proof.taut", 1e3),
    ("catalog.run_suite.self_s", "s", "catalog.run_suite", 1.0),
    ("cli.main.self_ms", "ms", "cli.main", 1e3),
)

COUNTS = ("search.frames_yielded", "search.frames_evaluated", "search.pairs", "semantics.relation_satisfies.calls",
          "semantics.holds.calls", "syntax.parse.calls", "syntax.parse.nodes", "proof.check.steps",
          "proof.taut.calls", "proof.taut.assignments")


def plain_api() -> SimpleNamespace:
    """The entry points the benchmark calls, untraced."""
    return SimpleNamespace(cli_main=cli.main, run_suite=catalog.run_suite, parse=syntax.parse,
                           rule_probe_witness=search.rule_probe_witness,
                           definability_probe=search.definability_probe,
                           parse_script=proof.parse_script, soundness_spotcheck=proof.soundness_spotcheck)


def _nodes(f) -> int:
    count, stack = 0, [f]
    while stack:
        g = stack.pop()
        count += 1
        stack.extend(children(g))
    return count


class Tracer:
    def __init__(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.accepted = 0
        self.covered = 0.0  # time inside outermost spans
        self._child: list[float] = []  # time of finished child spans, per open span
        self._search: list[tuple[int, bool]] = []  # (variables, evaluates frames without normal points)
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self) -> float:
        self._child.append(0.0)
        return time.perf_counter()

    def _leave(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._child.pop()
        self.self_time[name] += dt - child
        self.total_time[name] += dt
        if self._child:
            self._child[-1] += dt
        else:
            self.covered += dt

    def wrap(self, name, fn, after=None, search_of=None):
        """`fn` recording a span `name`; `after(result, *args)` adds counts
        and `search_of(*args)` gives the (variables, evaluate_all) context of
        a search for the frames it enumerates."""

        def traced(*args, **kwargs):
            if search_of is not None:
                self._search.append(search_of(*args, **kwargs))
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, t0)
                if search_of is not None:
                    self._search.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def _wrap_enumerate(self, fn):
        def enumerate_frames(n, fc):
            frames = fn(n, fc)
            k, evaluate_all = self._search[-1] if self._search else (0, True)
            pairs = 1 << (k * n)
            while True:
                t0 = self._enter()
                try:
                    frame = next(frames)
                except StopIteration:
                    return
                finally:
                    self._leave("search.enumerate_frames", t0)
                self.counts["search.frames_yielded"] += 1
                if evaluate_all or frame.normals:
                    self.counts["search.frames_evaluated"] += 1
                    self.counts["search.pairs"] += pairs
                yield frame

        return enumerate_frames

    def _after_relation(self, result, *args) -> None:
        self.counts["semantics.relation_satisfies.calls"] += 1
        self.accepted += bool(result)

    def _after_holds(self, result, *args) -> None:
        self.counts["semantics.holds.calls"] += 1

    def _after_parse(self, result, *args) -> None:
        self.counts["syntax.parse.calls"] += 1
        self.counts["syntax.parse.nodes"] += _nodes(result)

    def _after_taut(self, result, f) -> None:
        self.counts["proof.taut.calls"] += 1
        self.counts["proof.taut.assignments"] += 1 << oracle.opaque_atoms(f)

    def _after_check(self, result, system, d) -> None:
        self.counts["proof.check.steps"] += len(d.steps)

    def _wrapped(self, name: str, fn):
        match name:
            case "search.enumerate_frames":
                return self._wrap_enumerate(fn)
            case "search.find_countermodel":
                return self.wrap(name, fn, search_of=lambda f, fc, n: (len(variables(f)), False))
            case "semantics.relation_satisfies":
                return self.wrap(name, fn, after=self._after_relation)
            case "semantics.holds":
                return self.wrap(name, fn, after=self._after_holds)
            case "syntax.parse":
                return self.wrap(name, fn, after=self._after_parse)
            case "proof.taut":
                return self.wrap(name, fn, after=self._after_taut)
            case "proof.check":
                return self.wrap(name, fn, after=self._after_check)
        return self.wrap(name, fn)

    def install(self) -> SimpleNamespace:
        """Patch every call site; return the traced entry points."""
        for module, attr, name in _CALL_SITES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapped(name, original))
        base = plain_api()
        return SimpleNamespace(
            cli_main=self.wrap("cli.main", base.cli_main),
            run_suite=self.wrap("catalog.run_suite", base.run_suite),
            parse=self._wrapped("syntax.parse", base.parse),
            rule_probe_witness=self.wrap(
                "search.rule_probe_witness", base.rule_probe_witness,
                search_of=lambda ps, c, fc, n: (len(set().union(variables(c), *map(variables, ps))), False)),
            definability_probe=self.wrap(
                "search.definability_probe", base.definability_probe,
                search_of=lambda f, fc, n: (len(variables(f) | variables(desugar(f))), True)),
            parse_script=self.wrap("proof.parse_script", base.parse_script),
            soundness_spotcheck=base.soundness_spotcheck,
        )

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def metrics(self, wall: float, wall_untraced: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced pass: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for metric, unit, span, scale in SELF_TIMES:
            out[metric] = (self.self_time[span] * scale, unit)
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        calls = self.counts["semantics.relation_satisfies.calls"]
        out["semantics.relation_satisfies.accept_ratio"] = (self.accepted / calls if calls else 0.0, "ratio")
        search_time = sum(self.total_time[s] for s in SEARCHES)
        out["search.pairs_per_s"] = (self.counts["search.pairs"] / search_time if search_time else 0.0, "1/s")
        out["bench.other_s"] = (wall - self.covered, "s")
        out["bench.trace_overhead_s"] = (wall - wall_untraced, "s")
        out["bench.traced_wall_s"] = (wall, "s")
        return out
