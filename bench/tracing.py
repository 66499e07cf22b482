"""Spans around casedraft's public functions, recorded from outside the program.

``Tracer.install`` replaces every public module-level function of every
casedraft module with a wrapper, under each name a caller looks it up by:
``pipeline.score`` and ``grounding.score`` are both wrapped, each around
the original, so the program's own orchestration runs unchanged and each
call makes one span.  ``transform.haversine_m`` is only counted: it is
called millions of times per case and a span each would swamp the rest.

A span is ``[name, start, end, parent, case, extra]``; ``name`` is
``<defining module>.<function>``, ``parent`` the index of the enclosing
span (-1 for a root) and ``extra`` a small measurement taken from the
call's arguments or result (records parsed, claims found, and so on).
Spans stay in memory until ``write`` is called when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Every span of a case descends from one of the case's root
``cli.main`` spans, so the self times of a case add up to its traced time.
"""

from __future__ import annotations

import functools
import json
import types
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("model", "ingest", "transform", "prompting", "gateway", "grounding", "pipeline", "cli")
COUNT_ONLY = {"transform.haversine_m"}


def _lines_and_records(args, kwargs, result):
    text = args[0] if args and isinstance(args[0], str) else ""
    records = result[0] if isinstance(result, tuple) and isinstance(result[0], list) else ()
    return (text.count("\n") + 1 if text else 0, len(records))


# name -> f(args, kwargs, result) giving the span's ``extra``
MEASURES = {
    "cli.main": lambda a, k, r: a[0][0] if a and a[0] else "",
    "prompting.build_matrix": lambda a, k, r: sum(len(p.rendered_text) for p in r),
    "gateway.generate": lambda a, k, r: r.latency_s,
    "grounding.extract_claims": lambda a, k, r: len(r),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.case = None
        self._stack: list[int] = []
        self._installed: list[tuple[types.ModuleType, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        measure = MEASURES.get(name) or (_lines_and_records if name.startswith("ingest.parse_") else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if measure is not None:
                rec[5] = measure(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: types.ModuleType) -> None:
        for short in MODULES:
            module = getattr(package, short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                wrap = self._count if name in COUNT_ONLY else self._span
                self._installed.append((module, attr, obj))
                setattr(module, attr, wrap(name, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._installed):
            setattr(module, attr, obj)
        self._installed.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, case, extra in self.spans:
                fh.write(json.dumps([name, start, end, parent, case, extra]) + "\n")


def case_profile(spans: list[list]) -> dict:
    """Totals over the spans of whole cases.

    Returns per span name the summed duration, self time and call count,
    the summed ``extra`` per name, the command of each span's root call,
    per module self time, and the summed root time.
    """
    dur: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    extra: dict[tuple[str, str], float] = defaultdict(float)
    module_self: dict[str, float] = defaultdict(float)
    child = [0.0] * len(spans)
    root_cmd = [""] * len(spans)
    root_time = 0.0
    for i, (name, start, end, parent, _case, x) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root_cmd[i] = root_cmd[parent]
        else:
            root_cmd[i] = x or ""
            root_time += end - start
    for i, (name, start, end, _parent, _case, x) in enumerate(spans):
        d = end - start
        s = d - child[i]
        cmd = root_cmd[i]
        dur[name] += d
        dur[f"{cmd}:{name}"] += d
        self_t[name] += s
        calls[name] += 1
        module_self[name.split(".", 1)[0]] += s
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            extra[(cmd, name)] += x
        elif isinstance(x, tuple):
            for j, v in enumerate(x):
                extra[(cmd, f"{name}#{j}")] += v
    return {
        "dur": dur, "self": self_t, "calls": calls, "extra": extra,
        "module_self": module_self, "root_time": root_time,
    }
