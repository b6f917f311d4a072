"""Start-up cost: a fresh interpreter that imports `tiltkit.cli` and runs one
command loads neither `dataclasses` nor `inspect`.  Without bytecode caches
the two cost about a quarter of the import of `tiltkit.cli`, and a command
that imported them inside a function would pay that in its own run time.
Only the modules added after the interpreter starts count, so what `site`
preloads is left out."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tiltkit.cli
from conftest import loop_pair_presentation
from tiltkit.formats import algebra_input_to_json

EXPENSIVE = {"dataclasses", "inspect"}

# prints the modules that the import, then one run of `cli.main`, added
SCRIPT = """\
import json, sys
before = set(sys.modules)
import tiltkit.cli
imported = set(sys.modules)
code = tiltkit.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "import": sorted(imported - before),
                  "main": sorted(set(sys.modules) - imported)}))
"""


def test_cli_loads_no_expensive_module(tmp_path):
    path = tmp_path / "lp22.json"
    path.write_text(json.dumps(algebra_input_to_json(loop_pair_presentation(2, 2))),
                    encoding="utf-8")
    src = str(Path(tiltkit.cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, "--workspace", str(tmp_path / "ws"),
         "algebra", "info", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    added = json.loads(run.stdout.splitlines()[-1])
    assert added["code"] == 0
    assert "tiltkit.cli" in added["import"]
    assert sorted(EXPENSIVE & set(added["import"])) == []
    assert sorted(EXPENSIVE & set(added["main"])) == []
