"""Record expected.json: each operation's exit code, first stdout line and
output sha256, from a run of the current program.

    python3 perfbench/record.py

Each operation runs in a fresh interpreter, as in the benchmark.  The seeds
change only the basis of each generated module, so every seed in SEEDS must
give the same record; a difference is reported and nothing is written.
Re-record only when a change to the program is meant to change its
certificates, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEEDS = (1, 2, 3)


def main():
    record = {}
    ok = True
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
            try:
                for op in workloads.build(name, seed, work):
                    got = run.call(op, work)
                    if got is None:
                        ok = False
                        continue
                    seen = {"exit": got["exit"], "verdict": got["verdict"],
                            "sha256": got["sha256"]}
                    if record.setdefault(op.id, seen) != seen:
                        print(f"{op.id}: seed {seed} gives {seen}, "
                              f"another seed gave {record[op.id]}", file=sys.stderr)
                        ok = False
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    if not ok:
        return 1
    run.EXPECTED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
