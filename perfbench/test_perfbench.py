"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They use the smallest operations of each workload, so they run in well
under a minute.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

from tiltkit.cli import main as cli_main  # noqa: E402

SMALL = {
    "apr-ladder": {"apr-lp22", "apr-lp12-refused", "tilting-check-lp32"},
    "glue-homotopy": {"jshriek-lp22", "stalk-lp22", "jstar-lp12-refused"},
    "recollement-large": {"verify-a3"},
}


class Workspace:
    """The small operations, over inputs in a temporary directory."""

    def __enter__(self):
        self.dir = Path(tempfile.mkdtemp(prefix=".perfbench-test-", dir=run.ROOT))
        self.ops = [op for name, ids in sorted(SMALL.items())
                    for op in workloads.build(name, 1, self.dir) if op.id in ids]
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)


def observe(op, work):
    """Run `op` in this process, as child.py runs it."""
    argv = ["--workspace", str(work / "workspace")] + op.argv
    return child.observe(argv, op.out, cli_main)


def counts(values):
    return {name: value for name, value in values.items()
            if layers.metric_units().get(name) in ("count", "ratio")}


def traced_counts():
    """Every count-valued per-layer metric of one traced pass."""
    expected = run.load_expected()
    with Workspace() as ws:
        _, metrics = run.per_layer(ws.ops, ws.dir, expected)
    return counts({name: value for name, (value, _) in metrics.items()})


class BenchmarkTest(unittest.TestCase):

    def test_certificates_identical_with_and_without_tracing(self):
        with Workspace() as ws:
            for op in ws.ops:
                seen = []
                for traced in (False, True):
                    tracer = layers.Tracer()
                    if traced:
                        tracer.install()
                    try:
                        _, outcome = observe(op, ws.dir)
                        body = op.out.read_bytes() if op.out.exists() else None
                    finally:
                        tracer.uninstall()
                    seen.append((outcome, body))
                self.assertEqual(seen[0], seen[1], op.id)
                want = run.load_expected()[op.id]
                self.assertEqual(seen[0][0], (want["exit"], want["verdict"], want["sha256"]))

    def test_counts_repeat_across_processes(self):
        """Two traced runs in fresh interpreters, with different hash seeds,
        give identical counts."""
        code = "import json, test_perfbench as t; print(json.dumps(t.traced_counts()))"
        results = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                                 check=True, capture_output=True, text=True, timeout=600)
            results.append(json.loads(out.stdout.splitlines()[-1]))
        self.assertEqual(results[0], results[1])
        self.assertGreater(results[0]["linalg.fraction_eq.calls"], 0)
        self.assertGreater(results[0]["linalg.rank_and_rref.cells"], 0)

    def test_traced_run_reports_overhead_and_every_metric(self):
        with Workspace() as ws:
            tally, metrics = run.per_layer(ws.ops, ws.dir, run.load_expected())
        self.assertEqual(tally.failed, 0)
        self.assertEqual(tally.attempted, 2 * len(ws.ops))
        self.assertEqual(set(metrics), set(run.per_layer_units()))
        wall, untraced, overhead = (metrics[k][0] for k in (
            "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"))
        self.assertAlmostEqual(overhead, wall - untraced, places=12)

    def test_calls_match_cprofile(self):
        with Workspace() as ws:
            op = next(op for op in ws.ops if op.id == "apr-lp22")
            with layers.Tracer() as tracer:
                observe(op, ws.dir)
            profile = cProfile.Profile()
            profile.runcall(observe, op, ws.dir)
        stats = pstats.Stats(profile).stats
        ncalls = {(code[0], code[1], code[2]): entry[1] for code, entry in stats.items()}
        targets = [(f"{layer}.{name}", mod, path) for layer, mod, path, name, _ in layers.TIMED]
        targets += [(f"{layer}.{name}", mod, path) for layer, mod, path, name in layers.COUNTED]
        checked = 0
        for key, mod, path in targets:
            _, _, fn = layers._resolve(mod, path)
            code = fn.__code__
            want = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
            self.assertEqual(tracer.calls[key], want, key)
            checked += want > 0
        code = Fraction.__eq__.__code__
        self.assertEqual(tracer.calls["linalg.fraction_eq"],
                         ncalls[(code.co_filename, code.co_firstlineno, code.co_name)])
        self.assertGreater(checked, 10)

    def test_child_reports_what_runs_in_process(self):
        """A traced child gives the outcome and the per-layer counts of the
        same operation traced in this process."""
        with Workspace() as ws:
            op = next(op for op in ws.ops if op.id == "tilting-check-lp32")
            with layers.Tracer() as here:
                _, outcome = observe(op, ws.dir)
            got = run.call(op, ws.dir, trace=True)
        there = layers.Tracer()
        there.absorb(got["trace"])
        self.assertEqual([got["exit"], got["verdict"], got["sha256"]], list(outcome))
        self.assertEqual(counts(there.metrics()), counts(here.metrics()))
        self.assertGreater(there.metrics()["modules.tilting_module_check.calls"], 0)

    def test_speedometer_samples_and_leaves_out_its_own_time(self):
        import signal
        import time
        import speed
        with speed.Speedometer(speed.fraction_kernel(), speed.FRACTION_REF_SECONDS) as meter:
            t0, c0 = time.perf_counter(), meter.clock()
            while time.perf_counter() - t0 < 0.3:
                pass
        wall, net = time.perf_counter() - t0, meter.clock() - c0
        self.assertGreaterEqual(len(meter.samples), 5)
        self.assertAlmostEqual(wall - net, meter.spent - meter.samples[0], places=4)
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_fraction_kernel_ignores_a_patched_fraction(self):
        import speed
        kernel = speed.fraction_kernel()
        saved = Fraction.__dict__["__add__"]
        Fraction.__add__ = lambda a, b: 1 / 0
        try:
            self.assertGreater(kernel(), 0)
        finally:
            Fraction.__add__ = saved

    def test_wrappers_cover_every_binding_and_restore(self):
        """Every module namespace that binds a wrapped function sees the
        wrapper (hom_space, for one, is bound in four modules), and
        uninstalling puts the originals back."""
        targets = [layers._resolve(mod, path) for _, mod, path, _, _ in layers.TIMED]
        bound = [(attr, original, layers._bindings(owner, attr, original))
                 for owner, attr, original in targets]
        self.assertEqual(len(bound[[t[1] for t in targets].index("hom_space")][2]), 4)
        with layers.Tracer():
            for attr, original, places in bound:
                wrappers = {id(getattr(place, attr)) for place in places}
                self.assertEqual(len(wrappers), 1, attr)
                self.assertIsNot(getattr(places[0], attr), original, attr)
        for attr, original, places in bound:
            for place in places:
                got = place.__dict__[attr] if isinstance(place, type) else getattr(place, attr)
                self.assertIs(got, original, attr)

    def test_missing_target_is_reported_absent(self):
        saved = list(layers.TIMED)
        layers.TIMED.append(("modules", "modules", "no_such_function", "gone", None))
        layers.TIMED.append(("linalg", "linalg", "NoSuchClass.method", "gone", None))
        try:
            with layers.Tracer() as tracer:
                pass
            values = tracer.metrics()
        finally:
            layers.TIMED[:] = saved
        self.assertEqual(tracer.absent, ["tiltkit.modules.no_such_function",
                                         "tiltkit.linalg.NoSuchClass.method"])
        self.assertEqual(values["modules.gone.calls"], 0)

    def test_benchmark_json_lists_every_metric(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         run.per_layer_units())
        self.assertEqual({w["name"] for w in doc["workloads"]}, set(workloads.WORKLOADS))

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                  "apr-ladder", "--seed", "1", "--seconds", "1",
                                  "--trace", "0"],
                                 cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
