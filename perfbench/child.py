"""Runs one CLI operation in a fresh interpreter, as a user's command would.

    python3 perfbench/child.py '{"argv": [...], "out": null, "trace": false}'

Prints one JSON line: the time spent in `tiltkit.cli.main(argv)`, the exit
code, the first stdout line and the sha256 of the output (the file at "out"
when there is one, else stdout).  Without "trace" the call runs under a
speed.Speedometer, and "scaled" gives its time at the reference speed.
With "trace" the per-layer wrappers of layers.py are installed instead and
their raw totals are added under "trace".  An exception is printed to
stderr and the exit code is 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def observe(argv, out, main, clock=time.perf_counter):
    """Run one command; (seconds, (exit code, first stdout line, sha256))."""
    out = Path(out) if out else None
    if out is not None and out.exists():
        out.unlink()
    buf = io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as err:
        rc = err.code
    dt = clock() - t0
    lines = buf.getvalue().splitlines()
    payload = out.read_bytes() if out is not None and out.exists() \
        else buf.getvalue().encode()
    return dt, (rc, lines[0] if lines else "", hashlib.sha256(payload).hexdigest())


def main():
    request = json.loads(sys.argv[1])
    sys.path[:0] = [str(SRC), str(HERE)]
    from tiltkit.cli import main as cli_main
    argv, out = request["argv"], request["out"]
    if request["trace"]:
        import layers
        with layers.Tracer() as tracer:
            seconds, (rc, verdict, digest) = observe(argv, out, cli_main)
        extra = {"trace": tracer.state()}
    else:
        import speed
        with speed.Speedometer(speed.fraction_kernel(), speed.FRACTION_REF_SECONDS) as meter:
            seconds, (rc, verdict, digest) = observe(argv, out, cli_main, meter.clock)
        extra = {"scaled": meter.scale(seconds)}
    result = {"seconds": seconds, "exit": rc, "verdict": verdict, "sha256": digest}
    result.update(extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
