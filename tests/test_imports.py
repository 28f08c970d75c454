"""What importing the package loads, each check in a fresh ``python -S``.

``-S`` leaves out ``site``, so only the package's own imports are counted.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def modules_after(statement: str) -> set:
    """The names in ``sys.modules`` after a fresh interpreter runs statement."""
    probe = f"import sys\n{statement}\nprint(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_cli_import_leaves_out_dataclasses_and_what_it_pulls_in():
    loaded = modules_after("import polyproof.cli")
    unwanted = {"dataclasses", "inspect", "ast", "dis", "fractions", "decimal", "numbers"}
    assert unwanted & loaded == set()


def test_mpoly_imports_nothing_from_the_package():
    loaded = modules_after("import polyproof.mpoly")
    assert {m for m in loaded if m.startswith("polyproof.")} == {"polyproof.mpoly"}
