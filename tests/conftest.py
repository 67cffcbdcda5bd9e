"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import periodindex

SRC = str(Path(periodindex.__file__).resolve().parents[1])


def run_cold(args, *, timeout, text=True, check=False, **env):
    """``python *args`` in a fresh interpreter, as a user starts one, that
    imports the package under test: its source directory leads PYTHONPATH,
    and ``env`` adds variables.  Output is captured."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=text, check=check,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=path, **env))
