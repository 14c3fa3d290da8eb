"""Iterate probe: run ``qcatk iterate`` at two indices on the duplicate-object
map dup(2, 2), each run as its own child process, and print one JSON line
per run.

    python tests/iterate_probe.py [source root; default: this checkout]

The runs are ``--n 2 1`` and then ``--n 1 2``, one at a time.  Each child
gets an address-space limit of 3.5 GB and a CPU limit of 300 s, set on that
child only.  A line holds the indices, the exit code, the child's CPU time
(user plus system) and peak RSS, the report's four consistency fields
(null when the run wrote no report) and the start of the report's SHA-256,
so that the reports of two checkouts can be compared byte for byte.  Each
run takes about a minute of CPU and up to 2 GB of memory, so pytest does
not collect this file.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("conclusion_holds", "conclusion_holds_cof_variant",
          "consistent_with_statement", "consistent_with_cof_statement")
ADDRESS_SPACE = int(3.5 * 2**30)
CPU_SECONDS = 300


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def probe(src: Path, path: Path, nbar, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "qcatk.cli", "iterate", str(path),
            "--n", *map(str, nbar), "--out", str(out)]
    child = subprocess.Popen(argv, env=env, preexec_fn=_limit,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here
    text = out.read_bytes() if out.exists() else b"{}"
    report = json.loads(text)
    return {"n": list(nbar), "exit": child.returncode,
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 2),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            **{f: report.get(f) for f in FIELDS},
            "report_sha256": hashlib.sha256(text).hexdigest()[:16] if out.exists() else None}


def main(argv) -> None:
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    sys.path.insert(0, str(src))
    from qcatk import io, zoo

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dupexact_2_2.json"
        path.write_text(io.dumps(io.serialize_exact(zoo.pointed_sets_with_duplicate(2, 2)[1])))
        for nbar in ((2, 1), (1, 2)):
            out = Path(tmp) / f"iterate_{nbar[0]}_{nbar[1]}.json"
            print(json.dumps(probe(src, path, nbar, out)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
