"""Run Python in a fresh interpreter that imports hopfp and the test helpers."""

import os
import subprocess
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with args, src and tests first on PYTHONPATH;
    the output is captured as text."""
    env = dict(os.environ)
    path = [str(_HERE.parent / "src"), str(_HERE), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
