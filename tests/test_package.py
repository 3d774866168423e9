"""Package surface: the lazy export map and the import order."""

import os
import pathlib
import subprocess
import sys

import treeharmonics

SRC = pathlib.Path(treeharmonics.__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    # the export map is resolved only on access, so a stale entry would
    # otherwise fail only in the caller that first asks for it
    namespace = {}
    exec("from treeharmonics import *", namespace)
    assert set(treeharmonics.__all__) <= set(namespace)


def test_spherical_transform_runs_in_a_fresh_process_that_imports_abel_first():
    # spherical imports abel inside the transform, since abel imports
    # spherical; a fresh process catches a cycle that an earlier import hides.
    # abel goes first: a module-level import of abel at the foot of spherical
    # would still load in the other order
    code = (
        "import treeharmonics.abel\n"
        "from treeharmonics.spherical import ball_kernel, spherical_transform\n"
        "print(len(spherical_transform(ball_kernel(2, 2), 64)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "64\n"
