"""Record the sha256 of every catalogue report into ``expected.json``.

    python3 perfbench/record.py

Run at the commit whose reports are the reference.  Every entry of every
workload runs once per variant, with category blocks (``lift-nerve``) and
without (``lift-plain``) where the workload asks; the two must produce
byte-identical reports, the known exit code and the known verdict fields, or
nothing is written.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import run


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.BENCH_DIR)]
    import catalogue

    digests: dict[str, set] = {}
    problems = []
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        work = Path(tmp)
        runner = run.Runner(work, {}, time.perf_counter() + 600)
        for workload in catalogue.WORKLOADS.values():
            entries = catalogue.all_entries(workload)
            paths = run.write_inputs(catalogue, entries, workload.plain,
                                     work / workload.name)
            for entry in entries:
                qargs = entry.argv(str(paths[entry.instance])) + ["--out", str(runner.out)]
                code, wall, _, _ = runner.spawn([sys.executable, "-m", "qcatk.cli", *qargs])
                report = runner.out.read_bytes() if runner.out.exists() else b""
                runner.out.unlink(missing_ok=True)
                ok = code == entry.exit_code and entry.verdict(json.loads(report or b"{}"))
                print(f"{workload.name:10s} {wall:7.3f}s exit {code} "
                      f"{'ok ' if ok else 'BAD'} {entry.key}", flush=True)
                if not ok:
                    problems.append(f"{workload.name}: {entry.key}")
                digests.setdefault(entry.key, set()).add(hashlib.sha256(report).hexdigest())
    try:
        run.WORK_ROOT.rmdir()
    except OSError:  # another run is using it
        pass
    for key, found in digests.items():
        if len(found) != 1:
            problems.append(f"{key}: reports differ between inputs ({len(found)} digests)")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    expected = {key: found.pop() for key, found in sorted(digests.items())}
    (run.BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=1) + "\n",
                                                 encoding="utf-8")
    print(f"wrote {len(expected)} report digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
