"""qcatk benchmark: seeded CLI workloads, timed end to end, or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One client runs a closed loop: each command is its own
``python -m qcatk.cli ... --out FILE`` process, started only after the
previous one exited, so no in-memory cache survives between commands.

Set-up writes the workload's input files from the seed; ``setup_s`` is the
median of several builds.  Then commands run in whole passes, each pass a
seed-shuffled order of the seed's catalogue draw, until ``--seconds`` have
elapsed.  Every report is checked against its expected exit code, verdict
fields, and the sha256 recorded at the seed commit (``expected.json``).

The speed of a shared host drifts by up to 1.7x within minutes.  So a fresh
interpreter running a fixed pure-Python loop is timed just before every
command and every set-up, and each time is scaled to a host on which that
reference takes ``REF_NOMINAL_S``.  The unscaled figures are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
command twice, untraced and then under ``traced.py``, and reports the
per-layer metrics, the tracing overhead and the import time of the CLI.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import traced

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_MIN_REPEATS = 5  # set-up repeats at least this often ...
SETUP_MIN_SECONDS = 1.0  # ... and until this much set-up time has accumulated
SETUP_MAX_REPEATS = 11
IMPORT_REPEATS = 7
RUN_LIMIT_S = 150  # a run stops starting commands, and kills a late one, after this
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
REF_NOMINAL_S = 0.080  # time of the reference on the host that times are scaled to
REF_WINDOW = 3  # a time is scaled by the median of the references this near it
REAL_CAP = 1.5  # a run lasts --seconds of scaled time, and at most this factor more of real time

END_TO_END_UNITS = {
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "cmds_per_s": "1/s",
    "cpu_s_per_cmd": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metrics: every traced span reports calls, self_s and errors per
# traced command, plus these counts, ratios and shares
LAYER_FUNCTIONS = tuple(traced.span_names())
# (metric, span name, count key, unit): count summed per traced command
LAYER_COUNTS = (
    ("io.load_path.bytes", "io.load_path", "bytes", "B/cmd"),
    ("io.dumps.bytes", "io.dumps", "bytes", "B/cmd"),
    ("simplicial.enumerate_maps.functor.maps", "simplicial.enumerate_maps.functor",
     "maps", "count/cmd"),
    ("simplicial.enumerate_maps.generic.maps", "simplicial.enumerate_maps.generic",
     "maps", "count/cmd"),
    ("simplicial.MaterializedSSet.gens", "simplicial.MaterializedSSet", "gens",
     "count/cmd"),
    ("cats.FinCategory.check.morphisms", "cats.FinCategory.check", "morphisms",
     "count/cmd"),
    ("cats.nerve.gens", "cats.nerve", "gens", "count/cmd"),
    ("homology.smith_normal_form.entries", "homology.smith_normal_form", "entries",
     "count/cmd"),
    ("lifting.rlp_check.problems", "lifting.rlp_check", "problems", "count/cmd"),
)
# (metric, span name, count key): share of calls with the count set
LAYER_FRACTIONS = (
    ("simplicial.enumerate_maps.generic.repeat_target_frac",
     "simplicial.enumerate_maps.generic", "repeat_target"),
    ("simplicial.inner_horn_filler.filled_frac", "simplicial.inner_horn_filler", "filled"),
    ("quasicat.ho_category.repeat_frac", "quasicat.ho_category", "repeat"),
)
# inclusive time of these spans as a share of traced command time
LAYER_SHARES = (
    "cats.FinCategory.check", "cats.nerve", "cats.FinFunctor.check",
    "simplicial.enumerate_maps.functor", "simplicial.enumerate_maps.generic",
    "io.dumps",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count/cmd"
        units[f"{fn}.self_s"] = "s/cmd"
        units[f"{fn}.errors"] = "count/cmd"
    for metric, _, _, unit in LAYER_COUNTS:
        units[metric] = unit
    for metric, _, _ in LAYER_FRACTIONS:
        units[metric] = "frac"
    for name in LAYER_SHARES:
        units[f"{name}.share"] = "frac"
    units["trace.command_s"] = "s/cmd"
    units["trace.overhead_frac"] = "frac"
    units["cli.import_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# host speed


# The reference: tuple, dict, set and frozenset work, the kind qcatk does, in
# a fresh interpreter like each command.  Timed in the benchmark's own
# process, the loop followed the commands' speed less than half as well.
REFERENCE = """
table, seen, kept = {}, set(), []
for i in range(60_000):
    key = (i % 211, i % 53)
    table[key] = table.get(key, 0) + 1
    if key not in seen:
        seen.add(key)
        kept.append(frozenset(key))
    elif len(kept) > 64:
        kept = kept[len(kept) // 2:]
"""


def scale(samples: list[dict]) -> list[dict]:
    """Scale each sample's ``wall`` and ``cpu`` to the nominal host speed, by
    the median of the reference times taken around it; keeps the unscaled
    values as ``raw_wall`` and ``raw_cpu``."""
    scaled = []
    for i, sample in enumerate(samples):
        near = samples[max(i - REF_WINDOW, 0):i + REF_WINDOW + 1]
        ref_wall = statistics.median(s["ref_wall"] for s in near)
        ref_cpu = statistics.median(s["ref_cpu"] for s in near)
        scaled.append(dict(sample, raw_wall=sample["wall"], raw_cpu=sample["cpu"],
                           wall=sample["wall"] * REF_NOMINAL_S / ref_wall,
                           cpu=sample["cpu"] * REF_NOMINAL_S / ref_cpu))
    return scaled


# ---------------------------------------------------------------------------
# running one command


class Runner:
    def __init__(self, work: Path, expected: dict, deadline: float):
        self.work = work
        self.expected = expected
        self.deadline = deadline  # time.perf_counter() value
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.out = work / "report.json"
        self.err = work / "stderr.txt"
        self.attempted = 0
        self.failures: list[str] = []
        self.ref_walls: list[float] = []

    def spawn(self, cmd: list[str]):
        """Run ``cmd`` to completion; returns (exit code, wall s, cpu s, maxrss MB).
        The command is killed at the run's deadline."""
        with open(self.err, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0

    def reference(self) -> tuple[float, float]:
        """Wall and CPU time of the reference."""
        _, wall, cpu, _ = self.spawn([sys.executable, "-c", REFERENCE])
        self.ref_walls.append(wall)
        return wall, cpu

    def command(self, entry, path: Path, spans: Path | None = None, cmd_id: int = 0):
        """Run one catalogue entry, check its report, return its sample with
        the reference times taken just before it."""
        if self.out.exists():
            self.out.unlink()
        qargs = entry.argv(str(path)) + ["--out", str(self.out)]
        if spans is None:
            cmd = [sys.executable, "-m", "qcatk.cli", *qargs]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans), str(cmd_id),
                   "--", *qargs]
        ref_wall, ref_cpu = self.reference()
        code, wall, cpu, rss = self.spawn(cmd)
        self.attempted += 1
        problem = self.check(entry, code)
        if problem:
            self.failures.append(f"{entry.key}: {problem}")
        return {"wall": wall, "cpu": cpu, "rss": rss,
                "ref_wall": ref_wall, "ref_cpu": ref_cpu}

    def check(self, entry, code: int) -> str:
        if code != entry.exit_code:
            tail = self.err.read_bytes()[-300:].decode("utf-8", "replace")
            return f"exit {code}, expected {entry.exit_code}: {tail}"
        try:
            data = self.out.read_bytes()
        except FileNotFoundError:
            return "no report written"
        digest = hashlib.sha256(data).hexdigest()
        try:
            verdict_ok = entry.verdict(json.loads(data))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"report is not JSON or lacks a verdict field: {exc!r}"
        if not verdict_ok:
            return "verdict fields differ from the known outcome"
        want = self.expected.get(entry.key)
        if digest != want:
            return f"report sha256 {digest[:12]} differs from the recorded {str(want)[:12]}"
        return ""


# ---------------------------------------------------------------------------
# set-up


def write_inputs(catalogue, entries, plain: bool, dest: Path) -> dict:
    """Build and write the input file of every entry; returns instance -> path."""
    from qcatk import io

    dest.mkdir(parents=True, exist_ok=True)
    paths = {}
    for entry in entries:
        if entry.instance in paths:
            continue
        path = dest / (catalogue.file_stem(entry.instance) + ".json")
        path.write_text(io.dumps(catalogue.instance_doc(entry.instance, plain)),
                        encoding="utf-8")
        paths[entry.instance] = path
    return paths


def setup(runner, catalogue, workload, chosen):
    """Build the inputs several times; returns the paths, the median scaled
    set-up time and the scaled samples."""
    samples = []
    while len(samples) < SETUP_MIN_REPEATS or (
            sum(s["wall"] for s in samples) < SETUP_MIN_SECONDS
            and len(samples) < SETUP_MAX_REPEATS):
        ref_wall, ref_cpu = runner.reference()
        start = time.perf_counter()
        paths = write_inputs(catalogue, chosen, workload.plain, runner.work / "inputs")
        samples.append({"wall": time.perf_counter() - start, "cpu": 0.0,
                        "ref_wall": ref_wall, "ref_cpu": ref_cpu})
    samples = scale(samples)
    return paths, statistics.median(s["wall"] for s in samples), samples


# ---------------------------------------------------------------------------
# measurement loops


def run_passes(runner, passes, seconds, run_one):
    """Whole passes, so every run measures the same mix of commands.  Another
    pass starts while it would end, by the last pass's length, no more than
    half a pass after ``seconds`` of scaled time, so that a slow stretch of
    the host does not change the number of passes, and no more than half a
    pass after ``REAL_CAP * seconds`` of real time, which bounds the run.
    Returns the real elapsed time."""
    start = time.perf_counter()
    scaled = 0.0
    while True:
        begun, refs = time.perf_counter(), len(runner.ref_walls)
        for entry in next(passes):
            if time.perf_counter() > runner.deadline:
                break
            run_one(entry)
        now = time.perf_counter()
        if now > runner.deadline:
            return now - start
        last = now - begun
        last_scaled = last * REF_NOMINAL_S / statistics.median(runner.ref_walls[refs:])
        scaled += last_scaled
        if scaled + last_scaled / 2 >= seconds or now - start + last / 2 >= REAL_CAP * seconds:
            return now - start


def timed_loop(runner, passes, paths, seconds):
    samples = []
    elapsed = run_passes(runner, passes, seconds, lambda entry: samples.append(
        runner.command(entry, paths[entry.instance])))
    return scale(samples), elapsed


def traced_loop(runner, passes, paths, seconds, spans_dir: Path):
    """Each command runs untraced and then traced; returns the pairs of
    scaled samples and the span files."""
    samples, span_files = [], []

    def run_one(entry):
        samples.append(runner.command(entry, paths[entry.instance]))
        spans = spans_dir / f"spans{len(span_files)}.json"
        samples.append(runner.command(entry, paths[entry.instance], spans, len(span_files)))
        span_files.append(spans)

    run_passes(runner, passes, seconds, run_one)
    samples = scale(samples)
    return list(zip(samples[::2], samples[1::2])), span_files


def import_time(runner) -> float:
    times = [runner.spawn([sys.executable, "-c", "import qcatk.cli"])[1]
             for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


# ---------------------------------------------------------------------------
# metrics


def tail(walls: list[float]):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, and
    not below the median when a run has too few samples for that."""
    ordered = sorted(walls)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(samples, setup_s):
    """Metrics from scaled samples.  The loop has one client, so commands per
    second is the inverse of the mean scaled command wall time."""
    walls = [s["wall"] for s in samples]
    tail_s, tail_pct = tail(walls)
    metrics = {
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": tail_s,
        "cmds_per_s": len(samples) / sum(walls),
        "cpu_s_per_cmd": sum(s["cpu"] for s in samples) / len(samples),
        "peak_rss_mb": max(s["rss"] for s in samples),
        "setup_s": setup_s,
    }
    return metrics, tail_pct


def layer_metrics(span_files, pairs, import_s):
    n_cmds = len(span_files)
    calls, self_s, errors = {}, {}, {}
    counts: dict[tuple, float] = {}
    inclusive = {name: 0.0 for name in LAYER_SHARES}
    command_s = 0.0
    for path in span_files:
        if not path.exists():  # the command was killed before it wrote its spans
            continue
        spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        for i, span in enumerate(spans):
            if span is None:  # left open by an exit from inside a traced call
                continue
            name, start, end, parent, err, extra = span
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            errors[name] = errors.get(name, 0) + err
            for key, value in (extra or {}).items():
                counts[(name, key)] = counts.get((name, key), 0) + value
            if name == "cli.command":
                command_s += end - start
            if name in inclusive and not _has_ancestor(spans, parent, name):
                inclusive[name] += end - start
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        metrics[f"{fn}.calls"] = calls.get(fn, 0) / n_cmds
        metrics[f"{fn}.self_s"] = self_s.get(fn, 0.0) / n_cmds
        metrics[f"{fn}.errors"] = errors.get(fn, 0) / n_cmds
    for metric, name, key, _ in LAYER_COUNTS:
        metrics[metric] = counts.get((name, key), 0) / n_cmds
    for metric, name, key in LAYER_FRACTIONS:
        done = calls.get(name, 0) - errors.get(name, 0)
        metrics[metric] = counts.get((name, key), 0) / done if done else 0.0
    for name in LAYER_SHARES:
        metrics[f"{name}.share"] = inclusive[name] / command_s if command_s else 0.0
    metrics["trace.command_s"] = command_s / n_cmds
    untraced_cpu = sum(p["cpu"] for p, _ in pairs)
    traced_cpu = sum(t["cpu"] for _, t in pairs)
    metrics["trace.overhead_frac"] = traced_cpu / untraced_cpu - 1.0
    metrics["cli.import_s"] = import_s
    return metrics


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "qcatk" / "cli.py").is_file():
        print(f"perfbench: no qcatk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import catalogue

    if args.workload not in catalogue.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(catalogue.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = catalogue.WORKLOADS[args.workload]
    expected = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, catalogue, workload, Runner(work, expected, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def measure(args, catalogue, workload, runner: Runner) -> int:
    work = runner.work
    chosen, passes = catalogue.draw(workload, args.seed)
    paths, setup_s, setup_samples = setup(runner, catalogue, workload, chosen)
    print(f"workload {workload.name}, seed {args.seed}: "
          f"{len(chosen)} entries per pass, closed loop, 1 client")
    print("  set-up times, scaled (s): "
          + ", ".join(f"{s['wall']:.4f}" for s in setup_samples))

    if args.trace:
        spans_dir = work / "spans"
        spans_dir.mkdir()
        pairs, span_files = traced_loop(runner, passes, paths, args.seconds, spans_dir)
        metrics = layer_metrics(span_files, pairs, import_time(runner))
        units = per_layer_units()
        print(f"  traced commands: {len(span_files)} (each also run untraced)")
        for name in sorted(metrics):
            print(f"  {name:58s} {metrics[name]:14.6g} {units[name]}")
    else:
        samples, elapsed = timed_loop(runner, passes, paths, args.seconds)
        metrics, tail_pct = end_to_end(samples, setup_s)
        units = END_TO_END_UNITS
        n = len(samples)
        labels = {"cmd_p50_s": f"p50 of {n} commands",
                  "cmd_tail_s": f"p{tail_pct:.0f} of {n} commands",
                  "cmds_per_s": f"{n} commands, closed loop",
                  "cpu_s_per_cmd": f"mean of {n} commands",
                  "peak_rss_mb": f"max of {n} commands",
                  "setup_s": f"median of {len(setup_samples)} set-ups"}
        print(f"  times scaled to a reference of {REF_NOMINAL_S * 1000:.0f} ms; "
              f"here it took a median {statistics.median(s['ref_wall'] for s in samples) * 1000:.1f} ms")
        for name, value in metrics.items():
            print(f"  {name:14s} {value:12.6f} {units[name]:4s} ({labels[name]})")
        walls = [s["raw_wall"] for s in samples]
        print(f"  unscaled: p50 {statistics.median(walls):.4f} s, "
              f"{n / elapsed:.4f} commands/s over {elapsed:.2f} s, "
              f"CPU {statistics.mean(s['raw_cpu'] for s in samples):.4f} s/command")
        failed = len(runner.failures)
        print(f"  failed_frac    {failed / max(runner.attempted, 1):12.6f}      "
              f"({failed} of {runner.attempted} commands)")

    for failure in runner.failures[:20]:
        print(f"  FAILED {failure}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
