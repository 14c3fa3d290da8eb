"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that one seed yields byte-identical input files (built in two
processes with different hash seeds), that the seed changes the draw, that
times are scaled by the median reference time around them, and that a
traced command writes the same report as an untraced one, so the wrappers
do not change results.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run

sys.path[:0] = [str(run.SRC), str(run.BENCH_DIR)]
import catalogue  # noqa: E402

_WRITE = """
import sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import catalogue, run
wl = catalogue.WORKLOADS[sys.argv[1]]
chosen, _ = catalogue.draw(wl, int(sys.argv[2]))
run.write_inputs(catalogue, chosen, wl.plain, Path(sys.argv[3]))
"""


def _work_dir():
    run.WORK_ROOT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK_ROOT)


def tearDownModule():
    try:
        run.WORK_ROOT.rmdir()
    except OSError:  # another run is using it
        pass


def _digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


class SeededInputs(unittest.TestCase):
    def _write(self, workload, seed, dest, hash_seed):
        code = _WRITE.format(src=str(run.SRC), bench=str(run.BENCH_DIR))
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        subprocess.run([sys.executable, "-c", code, workload, str(seed), str(dest)],
                       check=True, env=env)
        return _digests(dest)

    def test_same_seed_gives_byte_identical_files(self):
        with _work_dir() as tmp:
            for name in catalogue.WORKLOADS:
                first = self._write(name, 7, Path(tmp, name, "a"), 1)
                second = self._write(name, 7, Path(tmp, name, "b"), 2)
                self.assertTrue(first)
                self.assertEqual(first, second, name)

    def test_seed_changes_the_draw(self):
        wl = catalogue.WORKLOADS["ho-check"]
        draws = set()
        for seed in range(4):
            chosen, passes = catalogue.draw(wl, seed)
            draws.add(tuple(e.key for e in next(passes)))
        self.assertGreater(len(draws), 1)


class HostScaling(unittest.TestCase):
    def test_times_scale_by_the_median_nearby_reference(self):
        nominal = run.REF_NOMINAL_S
        refs = [2, 2, 20, 2, 2]  # one reference hit by a stall
        samples = [{"wall": 1.0, "cpu": 0.8, "ref_wall": r * nominal, "ref_cpu": r * nominal}
                   for r in refs]
        scaled = run.scale(samples)
        for s in scaled:
            self.assertAlmostEqual(s["wall"], 0.5)
            self.assertAlmostEqual(s["cpu"], 0.4)
            self.assertEqual((s["raw_wall"], s["raw_cpu"]), (1.0, 0.8))


class TracedRun(unittest.TestCase):
    def test_traced_report_equals_untraced_report(self):
        expected = json.loads((run.BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
        with _work_dir() as tmp:
            work = Path(tmp)
            runner = run.Runner(work, expected, time.perf_counter() + 600)
            for name, wl in catalogue.WORKLOADS.items():
                entry = min(catalogue.all_entries(wl),
                            key=lambda e: len(e.key))  # one cheap entry each
                paths = run.write_inputs(catalogue, [entry], wl.plain, work / name)
                runner.command(entry, paths[entry.instance])
                untraced = runner.out.read_bytes()
                spans = work / f"{name}-spans.json"
                runner.command(entry, paths[entry.instance], spans)
                self.assertEqual(untraced, runner.out.read_bytes(), entry.key)
                names = {s[0] for s in json.loads(spans.read_text())["spans"]}
                self.assertIn("cli.command", names)
            self.assertEqual(runner.failures, [])


if __name__ == "__main__":
    unittest.main()
