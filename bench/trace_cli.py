"""Run the sftlab CLI with a span recorded around calls into each layer.

Usage: python3 bench/trace_cli.py SPAN_DIR -- SFTLAB_ARGS...

The library is not changed: each public function of interest is wrapped here
and the wrapper is installed under the name its caller looks up (for example
`experiments.sample_bits_batch`, since `experiments` imports it by name).
Every process appends its spans to SPAN_DIR/spans-<pid>.jsonl.  Pool workers
are forked after the wrappers are installed, so they inherit them; a worker
writes its spans when each chunk it runs returns, and bench/run.py merges the
files of all processes.

A span is a JSON object: name, pid, id, parent (the id of the enclosing span
in the same process, or null), t0 and t1 (time.perf_counter, which reads the
system-wide monotonic clock), and named counters.
"""

import functools
import itertools
import json
import os
import sys
import time


class Tracer:
    """Spans of the current process, written to one file per process."""

    def __init__(self, span_dir):
        self.span_dir = span_dir
        self.main_pid = self.owner = os.getpid()
        self.ids = itertools.count(1)
        self.spans = []
        self.stack = []

    def _claim(self):
        """Forget spans inherited from the parent across a fork."""
        pid = os.getpid()
        if pid != self.owner:
            self.owner = pid
            self.spans.clear()
            self.stack.clear()
        return pid

    def flush(self):
        pid = self._claim()
        if not self.spans:
            return
        path = os.path.join(self.span_dir, f"spans-{pid}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
        self.spans.clear()

    def wrap(self, name, fn, counters=None, flush_after=False):
        """fn inside a span; counters(args, kwargs, result) -> dict.  With
        flush_after, a worker process writes its spans when fn returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = self._claim()
            span = {"name": name, "pid": pid, "id": next(self.ids),
                    "parent": self.stack[-1]["id"] if self.stack else None}
            self.stack.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
            if counters is not None:
                span["counters"] = counters(args, kwargs, result)
            if flush_after and pid != self.main_pid:
                self.flush()
            return result

        return wrapper

    def patch(self, module, attr, name, counters=None, flush_after=False):
        fn = getattr(module, attr)
        setattr(module, attr, self.wrap(name, fn, counters, flush_after))


def install(tr):
    from sftlab import analysis, experiments, orbits, patterns, repeatcover

    for kind, runner in list(experiments.RUNNERS.items()):
        experiments.RUNNERS[kind] = tr.wrap("experiments.run", runner)
    for attr in ("_emptiness_chunk", "_orbit_chunk", "_entropy_chunk"):
        tr.patch(experiments, attr, "experiments.chunk", flush_after=True)

    tr.patch(experiments, "sample", "ensemble.sample",
             lambda a, k, r: {"words": a[0].n_windows})
    tr.patch(experiments, "sample_bits_batch", "ensemble.sample",
             lambda a, k, r: {"words": a[0].n_windows * len(a[1])})

    tr.patch(analysis, "prune_rows", "analysis.prune_rows",
             lambda a, k, r: {"cells": int(a[0].size)})
    tr.patch(analysis, "shortest_allowed_cycle", "analysis.shortest_allowed_cycle")
    tr.patch(analysis, "count_periodic_fillins", "analysis.count_periodic_fillins",
             lambda a, k, r: {"boundaries": r.samples or r.boundary_pool})
    tr.patch(analysis, "count_patterns_1d_fast", "analysis.count_patterns_1d_fast")
    tr.patch(analysis, "decide_empty", "analysis.decide_empty")
    tr.patch(analysis, "pattern_exists", "analysis.pattern_exists",
             lambda a, k, r: {"empty": int(not r)})
    tr.patch(analysis, "torus_config", "analysis.torus_config",
             lambda a, k, r: {"hit": int(r is not None)})

    # orbit_window_table is an lru_cache and only experiments calls it, so
    # the cache misses since the previous call are the builds of this call
    cache_info = orbits.orbit_window_table.cache_info
    seen = [cache_info().misses]

    def table_builds(a, k, r):
        misses = cache_info().misses
        built, seen[0] = misses - seen[0], misses
        return {"builds": built}

    tr.patch(experiments, "orbit_window_table", "orbits.orbit_window_table",
             table_builds)
    tr.patch(analysis, "orbit_from_config", "orbits.orbit_from_config")
    tr.patch(experiments, "zeta_inverse", "zeta.zeta_inverse")

    tr.patch(repeatcover, "efficient_cover", "repeatcover.efficient_cover")
    tr.patch(repeatcover, "cover_near_face", "repeatcover.cover_near_face",
             lambda a, k, r: {"cubes": len(a[3])})
    tr.patch(repeatcover, "cover_interior", "repeatcover.cover_interior")
    tr.patch(repeatcover, "find_repeats", "repeatcover.find_repeats")
    tr.patch(repeatcover, "interior", "geometry.interior")
    tr.patch(patterns, "cubes_in", "geometry.cubes_in")
    tr.patch(patterns, "windows", "patterns.windows")


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        sys.exit("usage: trace_cli.py SPAN_DIR -- SFTLAB_ARGS...")
    tr = Tracer(argv[0])
    install(tr)
    from sftlab import cli

    try:
        return tr.wrap("cli.main", cli.main)(argv[2:])
    finally:
        tr.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
