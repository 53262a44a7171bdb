"""Record the gate's reference counters and controller digests.

    python3 bench/record_expected.py

Runs both routes on every problem of each workload with the code in this
checkout and writes bench/expected.json.  Run it only on a commit whose
controllers are known good; the gate then holds every later commit to
those outputs bit for bit.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads  # noqa: E402

KEEP = ("states", "transitions", "bad", "memory_units", "steps")


def run_route(route: str, config: str, tmp: str) -> dict:
    result = os.path.join(tmp, f"{route}.json")
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), route,
                    config, result, os.path.join(tmp, f"{route}.ctrl"), "0",
                    "1"],
                   check=True)
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    entry = {k: out["metrics"][k] for k in KEEP}
    entry["digest"] = out["digest"]
    return entry


def main() -> int:
    expected = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_record_") as tmp:
        problems = []
        for name in ("linear-pair", "nonlinear-pair"):
            w = workloads.workload(ROOT, name, tmp)
            problems += [p for p in (w.timed, w.published) if p is not None]
        for p in problems:
            expected[p.key] = {r: run_route(r, p.config, tmp)
                               for r in ("integrated", "baseline")}
            print(p.key, json.dumps(expected[p.key]), flush=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
