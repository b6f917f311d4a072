"""Benchmark entry point.

    python3 perfbench/run.py --workload apr-ladder --seed 1 --seconds 30 --trace 0

Runs one workload through the public CLI entry point `tiltkit.cli.main`,
one operation after another (a closed loop with one client).  Each
operation runs in a fresh interpreter (child.py) with an empty workspace,
as a user's command does, so nothing a call keeps in memory or in its
workspace can speed up a later call; each pass also writes its modules in
new bases.  Every operation's exit code, first stdout line and output
sha256 are checked against expected.json.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: the workload repeats in passes
for --seconds and each operation reports its median over the passes.
--trace 1 runs one untraced pass and one pass with the per-layer wrappers
of layers.py installed in each child, and reports the per-layer metrics
summed over the operations.

The speed of a shared machine swings by up to 2x, so the end-to-end times
are given at a fixed reference speed, which each child measures while it
runs (speed.py).  Raw times go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 9
CHILD_TIMEOUT = 120

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "largest_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s"}

SETUP_CODE = """\
import speed
with speed.Speedometer(speed.int_kernel, speed.INT_REF_SECONDS) as meter:
    t0 = meter.clock()
    import tiltkit.cli
    seconds = meter.clock() - t0
print(meter.scale(seconds))
"""


def load_expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def per_layer_units():
    return {**layers.metric_units(), **TRACE_UNITS}


def call(op, work: Path, trace=False):
    """Run `op` in a fresh interpreter with an empty workspace.  Returns the
    child's result (see child.py), or None when the child failed."""
    workspace = work / "workspace"
    shutil.rmtree(workspace, ignore_errors=True)
    request = {"argv": ["--workspace", str(workspace)] + op.argv,
               "out": str(op.out) if op.out is not None else None, "trace": trace}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(request)],
                              cwd=work, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
        print(f"{op.id}: child exited with {proc.returncode}", file=sys.stderr)
    except (subprocess.TimeoutExpired, ValueError, IndexError) as err:
        print(f"{op.id}: {err!r}", file=sys.stderr)
    return None


class Tally:
    """Times and correctness of the operations of one or more passes."""

    def __init__(self, expected):
        self.expected = expected
        self.times = {}         # op id -> times at the reference speed
        self.raw = {}           # op id -> wall times
        self.attempted = 0
        self.failed = 0

    def run(self, ops, work, tracer=None):
        """One pass over `ops`, each in its own child, traced into `tracer`
        when one is given; returns the pass's total time in cli.main."""
        total = 0.0
        for op in ops:
            self.attempted += 1
            got = call(op, work, tracer is not None)
            if got is None:
                self.failed += 1
                continue
            seen = [got["exit"], got["verdict"], got["sha256"]]
            want = self.expected.get(op.id)
            if want is None or seen != [want["exit"], want["verdict"], want["sha256"]]:
                print(f"mismatch on {op.id}: got {seen}, want {want}", file=sys.stderr)
                self.failed += 1
            if tracer is not None:
                tracer.absorb(got["trace"])
            else:
                self.times.setdefault(op.id, []).append(got["scaled"])
            self.raw.setdefault(op.id, []).append(got["seconds"])
            total += got["seconds"]
        return total

    def wall_s(self, ops):
        """Sum over operations of each one's median time."""
        return sum(statistics.median(self.times[op.id]) for op in ops if op.id in self.times)

    def largest_s(self, ops):
        op = next(op for op in ops if op.largest)
        return statistics.median(self.times[op.id])


def measure_setup():
    """Median time, at the reference speed, that a fresh interpreter takes
    to import tiltkit.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    samples = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             check=True, capture_output=True, text=True, timeout=60)
        if i:   # the first import may still be writing bytecode caches
            samples.append(float(out.stdout))
    return statistics.median(samples)


def end_to_end(name, seed, work, expected, seconds):
    setup_s = measure_setup()
    passes = Tally(expected)
    durations = []      # wall time of each whole pass, children and kernels included
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = workloads.build(name, seed, work, len(durations))
        passes.run(ops, work)
        durations.append(time.perf_counter() - t0)
        if seconds - (time.perf_counter() - start) < statistics.median(durations):
            break
    # the largest peak RSS of any child: the import children are smaller
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"{len(durations)} passes; per-operation medians, wall and at reference speed:",
          file=sys.stderr)
    for op in ops:
        if op.id in passes.times:
            print(f"  {op.id:24s} {statistics.median(passes.raw[op.id]):9.4f} s "
                  f"{statistics.median(passes.times[op.id]):9.4f} s", file=sys.stderr)
    print(f"failed_frac {passes.failed}/{passes.attempted}", file=sys.stderr)
    values = {
        "wall_s": passes.wall_s(ops),
        "largest_s": passes.largest_s(ops),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    return passes, {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(ops, work, expected):
    plain = Tally(expected)
    untraced = plain.run(ops, work)
    traced = Tally(expected)
    tracer = layers.Tracer()
    wall = traced.run(ops, work, tracer)
    if tracer.absent:
        print("absent targets: " + ", ".join(tracer.absent), file=sys.stderr)
    values = tracer.metrics()
    values.update({"trace.wall_s": wall, "trace.untraced_wall_s": untraced,
                   "trace.overhead_s": wall - untraced})
    metrics = {name: (values[name], unit) for name, unit in per_layer_units().items()}
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    return plain, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tiltkit" / "cli.py").is_file():
        print(f"no tiltkit sources under {SRC}", file=sys.stderr)
        return 2
    expected = load_expected()

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            ops = workloads.build(args.workload, args.seed, work)
            tally, metrics = per_layer(ops, work, expected)
        else:
            tally, metrics = end_to_end(args.workload, args.seed, work, expected,
                                        args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
