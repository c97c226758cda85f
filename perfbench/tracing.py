"""Per-layer tracing for the benchmark's traced run.

`Tracer.install()` replaces every public function of each `abc_eqf` module
(plus `eqf._reproject`) with a timing wrapper, on every module attribute that
refers to it.  Modules import each other's functions by name, so wrapping
only the defining module would miss calls made between layers.  Each call
becomes a span (name, start, end, parent); spans stay in memory and are
written as JSON by `Tracer.dump`.  `uninstall()` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "abc_eqf"
EXTRA = {"abc_eqf.eqf": ("_reproject",)}
MAX_SPANS = 200_000          # spans kept for the JSON dump; aggregates count all


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []   # name id, start ns, end ns, parent
        self.dropped = 0
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(float)    # extra counters, see _record_extra
        self._stack: list[list] = []        # [span index, name, child ns]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(qualified name, function) of every function to wrap."""
        found = {}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith(PACKAGE + "."):
                continue
            short = modname[len(PACKAGE) + 1:]
            extra = EXTRA.get(modname, ())
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and (not name.startswith("_") or name in extra)):
                    found[obj] = f"{short}.{name}"
        return found

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {fn: self._wrap(qual, fn) for fn, qual in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrap(self, qual: str, fn):
        if qual not in self.name_id:
            self.name_id[qual] = len(self.names)
            self.names.append(qual)
        nid = self.name_id[qual]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [-1, qual, 0]
            if len(spans) < MAX_SPANS:
                frame[0] = len(spans)
                spans.append(None)
            else:
                self.dropped += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[qual] += 1
                self.total_ns[qual] += dur
                self.self_ns[qual] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if frame[0] >= 0:
                    spans[frame[0]] = (nid, start, end,
                                       parent[0] if parent is not None else -1)
            self._record_extra(qual, parent, args, result)
            return result

        return wrapper

    def _record_extra(self, qual, parent, args, result) -> None:
        """Counters that need arguments or results, keyed like the metrics."""
        counts = self.counts
        pname = parent[1] if parent is not None else ""
        if qual in ("eqf.eqf_update", "iekf.iekf_update"):
            counts[qual + ".meas"] += len(args[1])
            if result is args[0]:
                counts[qual + ".skipped"] += 1
            if pname == "runner.drive_filter":
                counts["runner.update_groups"] += 1
        elif qual == "lie.project_to_so3" and pname.startswith("iekf."):
            counts["iekf.reproject"] += 1
        elif qual == "runner.drive_filter":
            counts["runner.drive_steps"] += args[1].size
        elif qual == "runner.resolve_workers":
            counts["runner.workers"] = result
        elif qual == "sim.simulate_run":
            counts["sim.measurements"] += len(result.measurements)
        elif qual == "csvio.read_gyro":
            counts["csvio.rows"] += result[0].size
        elif qual in ("csvio.read_directions", "csvio.read_report"):
            counts["csvio.rows"] += len(result)
        elif qual == "csvio.read_truth":
            counts["csvio.rows"] += result.t.size
        elif qual.startswith("csvio.write_"):
            counts["csvio.bytes"] += os.path.getsize(args[0])

    # -- results -------------------------------------------------------------

    def mean_us(self, qual: str, self_time: bool = False) -> float:
        n = self.calls.get(qual, 0)
        ns = (self.self_ns if self_time else self.total_ns).get(qual, 0)
        return ns / n / 1e3 if n else 0.0

    def total_s(self, *quals: str) -> float:
        return sum(self.total_ns.get(q, 0) for q in quals) / 1e9

    def dump(self, path) -> None:
        cols = list(zip(*[s for s in self.spans if s is not None])) or [[], [], [], []]
        t0 = min(cols[1]) if cols[1] else 0
        data = {
            "names": self.names,
            "name": list(cols[0]),
            "start_ns": [s - t0 for s in cols[1]],
            "end_ns": [e - t0 for e in cols[2]],
            "parent": list(cols[3]),
            "dropped": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
