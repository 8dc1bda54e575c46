"""sftlab benchmark: each workload is a `sftlab` CLI command run as a subprocess.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N --seconds S --trace 0|1]   # every workload
    python3 bench/run.py --record [--workload NAME]

Run from the root of a source checkout; the CLI is run from `src/`, so nothing
needs installing.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
describe the machine and every subprocess.  Metric names and units come from
BENCHMARK.json.

Inputs.  The run seed selects one of POOL input seeds, and references.json
holds the SHA-256 of the output file for every workload and input seed.
Experiments receive the input seed as `--seed`; for d2-cover it draws a 5x5
tile with 25 distinct translates, and the CLI reads the 64x64 grid tiled from
it.  `--record` recomputes references.json with the current source; use it
only when a change to the output bytes is intended.

Trace 0 measures the end-to-end metrics.  The full command runs until
`--seconds` of full runs are spent (at least one), and the set-up command,
which is the same command at one trial per chunk (`sftlab --version` for
d2-cover), runs in between and after, at least SETUP_MIN_RUNS times and for
at least SETUP_MIN_SECONDS; medians are reported.

Trace 1 alternates untraced and traced runs of the full command.  The traced
run goes through bench/trace_cli.py, which records spans around the calls into
each layer, and the per-layer metrics are computed from its spans.  Its output
digest must equal the untraced one.

Every subprocess gets one BLAS thread and no SFTLAB_THREADS, so the only
parallelism is the `--workers 2` of d1-orbit-census.  Peak RSS is read per
subprocess with os.wait4, which reports the largest single process among the
child and the descendants it reaped.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")
TRACE_CLI = os.path.join(HERE, "trace_cli.py")

POOL = 16                 # input seeds with a recorded reference
SEED_BASE = 20260809
SETUP_MIN_RUNS = 3        # set-up runs: at least this many, and more while
SETUP_MIN_SECONDS = 3.0   # their total stays below this, up to SETUP_MAX_RUNS
SETUP_MAX_RUNS = 15
RUN_DEADLINE_S = 150.0    # a subprocess still running this long into a run is killed

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple          # CLI arguments; experiments get --trials/--seed/--out-csv
    trials: int = 0      # 0 for d2-cover, which is one cover per run

    @property
    def is_cover(self) -> bool:
        return self.args[0] == "cover"

    def option(self, flag):
        return self.args[self.args.index(flag) + 1]

    @property
    def work(self) -> int:
        """Trials times alphas; one cover counts as one trial."""
        if self.is_cover:
            return 1
        return self.trials * len(self.option("--alpha").split(","))


# Trial counts are set so that a run's figures are steady: d2-transition uses
# kmax 7 and torus-max 4 because at 9 and 5 a trial ending unknown costs up to
# 0.9 s, and the spread of per-trial cost would need ~1700 trials (~100 s) per
# run to average out.  Both searches and unknown verdicts remain at 7 and 4.

WORKLOADS = {w.name: w for w in (
    Workload("d1-threshold-sweep", (
        "experiment", "emptiness", "--d", "1", "--alphabet", "2", "--n", "8",
        "--alpha", "0.1,0.2,0.3,0.4,0.6,0.9", "--zeta-jmax", "20",
        "--workers", "1"), trials=2500),
    Workload("d1-entropy", (
        "experiment", "entropy", "--d", "1", "--alphabet", "2", "--n", "10",
        "--k", "40", "--boundary-samples", "256", "--alpha", "0.75",
        "--epsilons", "0.05,0.1,0.15,0.2", "--workers", "1"), trials=20),
    Workload("d1-orbit-census", (
        "experiment", "orbits", "--d", "1", "--alphabet", "2", "--n", "8",
        "--orbit-max", "12", "--alpha", "0.2,0.4,0.6", "--workers", "2"),
        trials=40000),
    Workload("d2-transition", (
        "experiment", "emptiness", "--d", "2", "--alphabet", "2", "--n", "3",
        "--alpha", "0.25,0.35,0.45", "--kmax", "7", "--torus-max", "4",
        "--zeta-jmax", "4", "--workers", "1"), trials=1200),
    Workload("d2-cover", ("cover", "--n", "16", "--tau", "0.5")),
)}

TILE = 5            # d2-cover tile side; 25 windows keeps it on the skeleton-1 route
GRID = 64           # n * ceil(n^tau) for n = 16, tau = 0.5


def input_seed(seed: int) -> int:
    return SEED_BASE + seed % POOL


# ---------------------------------------------------------------------------
# inputs and output checks

def cover_tile(seed: int):
    """A seeded binary TILE x TILE tile whose TILE^2 torus translates differ,
    so the grid tiled from it has exactly TILE^2 distinct side-16 windows."""
    rng = random.Random(seed)
    while True:
        tile = [[rng.getrandbits(1) for _ in range(TILE)] for _ in range(TILE)]
        if len(torus_translates(tile)) == TILE * TILE:
            return tile


def torus_translates(tile):
    p, q = len(tile), len(tile[0])
    return {tuple(tuple(tile[(i + a) % p][(j + b) % q] for j in range(q))
                  for i in range(p))
            for a in range(p) for b in range(q)}


def write_grid(path, tile):
    p, q = len(tile), len(tile[0])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"2 {GRID} 2\n")
        for i in range(GRID):
            f.write(" ".join(str(tile[i % p][j % q]) for j in range(GRID)) + "\n")


class Instance:
    """One workload at one input seed, with its commands and output checks."""

    def __init__(self, wl: Workload, seed: int, workdir: str):
        self.wl = wl
        self.seed = input_seed(seed)
        self.out = os.path.join(workdir, "out")
        if wl.is_cover:
            self.windows = TILE * TILE
            grid = os.path.join(workdir, "grid.txt")
            write_grid(grid, cover_tile(self.seed))
            self.full = [*wl.args, "--in", grid, "--out", self.out]
            self.setup = ["--version"]
        else:
            base = [*wl.args, "--seed", str(self.seed)]
            self.full = [*base, "--trials", str(wl.trials), "--out-csv", self.out]
            self.setup = [*base, "--trials", wl.option("--workers"),
                          "--out-csv", os.path.join(workdir, "setup-out")]

    def check(self, call, reference):
        """Problems with the output of a full run that exited 0 in time; a
        failed exit is already among the call's problems."""
        if call.problems:
            return []
        try:
            with open(self.out, "rb") as f:
                data = f.read()
            os.remove(self.out)
        except OSError as e:
            return [f"no output: {e}"]
        call.digest = hashlib.sha256(data).hexdigest()
        problems = []
        if reference is not None and call.digest != reference:
            problems.append(f"digest {call.digest} differs from reference {reference}")
        if self.wl.is_cover:
            payload = json.loads(data)
            if payload.get("route") != "skeleton-1":
                problems.append(f"route {payload.get('route')!r} is not skeleton-1")
            if payload.get("windows") != self.windows:
                problems.append(f"windows {payload.get('windows')} != {self.windows} of the tile")
        else:
            lines = data.decode().splitlines()
            cols = lines[0].split(",")
            rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
            call.trials = sum(int(r["trials"]) for r in rows)
            call.unknown = sum(int(r.get("unknown", 0)) for r in rows)
        return problems


# ---------------------------------------------------------------------------
# subprocesses

class Call:
    def __init__(self, kind):
        self.kind = kind
        self.wall = self.rss_mb = 0.0
        self.rc = None
        self.timed_out = False
        self.digest = None
        self.trials = 1
        self.unknown = 0
        self.problems = []

    def record(self):
        return {"call": self.kind, "wall_s": self.wall, "peak_rss_mb": self.rss_mb,
                "rc": self.rc, "digest": self.digest, "problems": self.problems}


def child_env():
    env = dict(os.environ)
    env.pop("SFTLAB_THREADS", None)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


def invoke(kind, argv, workdir, timeout):
    """Run argv under the benchmark's interpreter in its own process group;
    wall time runs from spawn to exit.  On timeout the whole group is killed."""
    call = Call(kind)
    log = os.path.join(workdir, f"{kind}.log")
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    done = {}

    def reap():
        _, status, usage = os.wait4(pid, 0)
        done.update(t1=time.perf_counter(), status=status, usage=usage)

    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                         file_actions=actions, setsid=True)
    reaper = threading.Thread(target=reap)
    reaper.start()
    reaper.join(max(timeout, 1.0))
    if reaper.is_alive():
        call.timed_out = True
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        reaper.join()
    call.wall = done["t1"] - t0
    call.rc = os.waitstatus_to_exitcode(done["status"])
    call.rss_mb = done["usage"].ru_maxrss / 1024.0
    if call.rc != 0 or call.timed_out:
        with open(log, encoding="utf-8", errors="replace") as f:
            tail = f.read()[-400:]
        how = "timed out" if call.timed_out else f"exit {call.rc}"
        call.problems.append(f"{how}: {tail}")
    return call


def cli_argv(argv):
    return ["-m", "sftlab.cli", *argv]


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def load_spans(span_dir):
    spans = []
    for name in sorted(os.listdir(span_dir)):
        with open(os.path.join(span_dir, name), encoding="utf-8") as f:
            spans.extend(json.loads(line) for line in f)
    return spans


# What each layer metric should move, and where:
#   ensemble.*                       trials_per_s on d1-threshold-sweep; ~0 elsewhere
#   analysis.prune_rows.*, .shortest_allowed_cycle.*
#                                    trials_per_s on d1-threshold-sweep, d1-orbit-census
#   analysis.count_periodic_fillins.*, .boundaries_evaluated, .count_patterns_1d_fast.*
#                                    trials_per_s on d1-entropy
#   analysis.decide_empty.*, .pattern_exists.*, .torus_config.*
#                                    trials_per_s, resolved_frac on d2-transition
#   orbits.*, experiments.*          setup_s, wall_s on d1-orbit-census
#   zeta.*                           setup_s on d1-threshold-sweep, d2-transition (~0)
#   repeatcover.*, geometry.*, patterns.*
#                                    wall_s on d2-cover
#   cli.self_s                       wall_s everywhere, expected small
# busy_s sums a function's spans over all processes (inclusive of callees);
# self_s is a span minus the child spans it covers in its own process.
def layer_metrics(spans, wall, untraced_wall):
    by_name = {}
    child_time = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["t1"] - s["t0"]

    def durations(name):
        return sorted(s["t1"] - s["t0"] for s in by_name.get(name, ()))

    def busy(name):
        return float(sum(durations(name)))

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, counter):
        return sum(s.get("counters", {}).get(counter, 0) for s in by_name.get(name, ()))

    def share(name, counter):
        return total(name, counter) / calls(name) if calls(name) else 0.0

    def self_time(name):
        return sum(s["t1"] - s["t0"] - child_time.get((s["pid"], s["id"]), 0.0)
                   for s in by_name.get(name, ()))

    def quantile(name, q):
        ds = durations(name)
        return ds[max(0, math.ceil(len(ds) * q) - 1)] if ds else 0.0

    sample_busy = busy("ensemble.sample")
    words = total("ensemble.sample", "words")
    return {
        "ensemble.sample.busy_s": sample_busy,
        "ensemble.words_drawn": words,
        "ensemble.words_per_s": words / sample_busy if sample_busy else 0.0,
        "analysis.prune_rows.busy_s": busy("analysis.prune_rows"),
        "analysis.prune_rows.cells": total("analysis.prune_rows", "cells"),
        "analysis.shortest_allowed_cycle.busy_s": busy("analysis.shortest_allowed_cycle"),
        "analysis.shortest_allowed_cycle.calls": calls("analysis.shortest_allowed_cycle"),
        "analysis.count_periodic_fillins.busy_s": busy("analysis.count_periodic_fillins"),
        "analysis.boundaries_evaluated": total("analysis.count_periodic_fillins", "boundaries"),
        "analysis.count_patterns_1d_fast.busy_s": busy("analysis.count_patterns_1d_fast"),
        "analysis.decide_empty.busy_s": busy("analysis.decide_empty"),
        "analysis.decide_empty.p50_s": quantile("analysis.decide_empty", 0.5),
        "analysis.decide_empty.p95_s": quantile("analysis.decide_empty", 0.95),
        "analysis.pattern_exists.busy_s": busy("analysis.pattern_exists"),
        "analysis.pattern_exists.calls": calls("analysis.pattern_exists"),
        "analysis.pattern_exists.empty_frac": share("analysis.pattern_exists", "empty"),
        "analysis.torus_config.busy_s": busy("analysis.torus_config"),
        "analysis.torus_config.calls": calls("analysis.torus_config"),
        "analysis.torus_config.hit_frac": share("analysis.torus_config", "hit"),
        "orbits.orbit_window_table.busy_s": busy("orbits.orbit_window_table"),
        "orbits.orbit_window_table.builds": total("orbits.orbit_window_table", "builds"),
        "orbits.orbit_from_config.busy_s": busy("orbits.orbit_from_config"),
        "zeta.zeta_inverse.busy_s": busy("zeta.zeta_inverse"),
        "zeta.zeta_inverse.calls": calls("zeta.zeta_inverse"),
        "experiments.self_s": self_time("experiments.run"),
        "experiments.chunks": calls("experiments.chunk"),
        "experiments.worker_busy_s": busy("experiments.chunk"),
        "repeatcover.efficient_cover.busy_s": busy("repeatcover.efficient_cover"),
        "repeatcover.cover_near_face.busy_s": busy("repeatcover.cover_near_face"),
        "repeatcover.cover_near_face.cubes": total("repeatcover.cover_near_face", "cubes"),
        "repeatcover.cover_interior.busy_s": busy("repeatcover.cover_interior"),
        "repeatcover.find_repeats.busy_s": busy("repeatcover.find_repeats"),
        "geometry.interior.busy_s": busy("geometry.interior"),
        "geometry.cubes_in.busy_s": busy("geometry.cubes_in"),
        "patterns.windows.busy_s": busy("patterns.windows"),
        "patterns.windows.calls": calls("patterns.windows"),
        "cli.self_s": self_time("cli.main"),
        "trace.overhead_frac": wall / untraced_wall - 1.0,
        "trace.uncovered_frac": (wall - busy("cli.main")) / wall,
    }


# ---------------------------------------------------------------------------
# runs

class Runner:
    """The subprocess runs of one benchmark run, all within its deadline."""

    def __init__(self, inst, reference, workdir):
        self.inst = inst
        self.reference = reference
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.calls = []

    def left(self):
        return self.deadline - time.perf_counter()

    def setup(self):
        call = invoke("setup", cli_argv(self.inst.setup), self.workdir, self.left())
        self.calls.append(call)
        return call

    def full(self, span_dir=None):
        if span_dir is None:
            call = invoke("full", cli_argv(self.inst.full), self.workdir, self.left())
        else:
            call = invoke("traced", [TRACE_CLI, span_dir, "--", *self.inst.full],
                          self.workdir, self.left())
        call.problems += self.inst.check(call, self.reference)
        self.calls.append(call)
        return call

    def another(self, calls, seconds):
        """Whether one more run like `calls` fits in `seconds` of them and
        before the deadline; always true for the first."""
        if not calls:
            return True
        spent = sum(c.wall for c in calls)
        per_run = spent / len(calls)
        return spent + per_run <= seconds and per_run < self.left()


def measure_end_to_end(runner, seconds):
    setups, fulls = [], []

    def more_setups():
        return len(setups) < SETUP_MIN_RUNS or (
            len(setups) < SETUP_MAX_RUNS
            and runner.another(setups, SETUP_MIN_SECONDS))

    while runner.another(fulls, seconds):
        if more_setups():
            setups.append(runner.setup())
        fulls.append(runner.full())
    while more_setups():
        setups.append(runner.setup())

    wall = statistics.median(c.wall for c in fulls)
    setup = statistics.median(c.wall for c in setups)
    failed = sum(bool(c.problems) for c in runner.calls)
    out = next((c for c in fulls if not c.problems), fulls[0])
    return {
        "wall_s": wall,
        "trials_per_s": runner.inst.wl.work / max(wall - setup, 1e-3),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(c.rss_mb for c in fulls),
        "ok_frac": 1.0 - failed / len(runner.calls),
        "resolved_frac": 1.0 - out.unknown / out.trials,
    }


def measure_layers(runner, seconds):
    """Untraced and traced runs in turn; per-layer medians over traced runs."""
    plain, traced, rows = [], [], []
    while runner.another(plain + traced, seconds):
        plain.append(runner.full())
        span_dir = tempfile.mkdtemp(dir=runner.workdir)
        call = runner.full(span_dir)
        if call.digest != plain[-1].digest:
            call.problems.append("traced output differs from untraced output")
        traced.append(call)
        if not call.problems:
            rows.append((call.wall, load_spans(span_dir)))
    untraced_wall = statistics.median(c.wall for c in plain)
    rows = [layer_metrics(spans, wall, untraced_wall) for wall, spans in rows]
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


def machine_info():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "sftlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "env": PINNED_ENV,
    }


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def make_workdir():
    """A fresh scratch directory inside the checkout (.bench_tmp is ignored by git)."""
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    return tempfile.mkdtemp(dir=scratch)


def load_references():
    with open(REFERENCES, encoding="utf-8") as f:
        return json.load(f)


def run(args, name):
    """One run of one workload; prints its lines and returns whether it was correct."""
    end_to_end, per_layer = declared_metrics()
    wl = WORKLOADS[name]
    reference = load_references().get(wl.name, {}).get(str(input_seed(args.seed)))
    workdir = make_workdir()
    try:
        print(json.dumps({"machine": machine_info(), "workload": wl.name,
                          "seed": args.seed, "input_seed": input_seed(args.seed)}))
        runner = Runner(Instance(wl, args.seed, workdir), reference, workdir)
        if args.trace:
            values, units = measure_layers(runner, args.seconds), per_layer
        else:
            values, units = measure_end_to_end(runner, args.seconds), end_to_end
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calls = runner.calls
    for c in calls:
        print(json.dumps(c.record()))
    failed = sum(bool(c.problems) for c in calls)
    if reference is None:
        print(f"no reference for {wl.name} at input seed {input_seed(args.seed)}",
              file=sys.stderr)
    if values and set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} "
                         "disagree with BENCHMARK.json")
    correct = failed == 0 and reference is not None and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }))
    return correct


def record(args):
    """Recompute references.json: one full run per workload and input seed."""
    refs = load_references() if os.path.exists(REFERENCES) else {}
    for name in [args.workload] if args.workload else sorted(WORKLOADS):
        wl = WORKLOADS[name]
        refs[name] = {}
        for seed in range(POOL):
            workdir = make_workdir()
            try:
                inst = Instance(wl, seed, workdir)
                call = invoke("record", cli_argv(inst.full), workdir, RUN_DEADLINE_S)
                problems = call.problems + inst.check(call, None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if problems:
                raise SystemExit(f"{name} seed {inst.seed}: {problems}")
            refs[name][str(inst.seed)] = call.digest
            print(f"{name} {inst.seed} {call.digest} {call.wall:.2f}s", file=sys.stderr)
        with open(REFERENCES, "w", encoding="utf-8") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="default: every workload in turn, exit 1 unless all are correct")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="recompute references.json from the current source")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "sftlab", "cli.py")):
        raise SystemExit(f"no sftlab source under {SRC}; run from a source checkout")
    os.environ.update(PINNED_ENV)
    if args.record:
        record(args)
    elif args.workload:
        run(args, args.workload)
    elif not all([run(args, name) for name in WORKLOADS]):
        sys.exit(1)


if __name__ == "__main__":
    main()
