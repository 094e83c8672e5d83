"""The paper's partition labeling: pinned outputs, and kept off the program's path."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from nnidist.gen import generate_pair
from nnidist.labeling import augment_and_root, partition_labeling
from nnidist.runtime import ParRuntime

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("seed,n,moves,dup,digest", [
    (5, 12, 10, False, "e48dbb0e793965e89f3c3700d21c606d50958e2f0e6fa19bebd07874a8c68b47"),
    (77, 9, 10, True, "59c9f2d9e937c5065ab08f0efcec9c9ee6ab376efe5b9f13617a0a3c8f5a3835"),
    (3, 64, 64, True, "d0c9c1b02344309dd6dcd29c2625ec2f216fe1571cd8116764500c32d137eca5"),
    (4, 128, 128, False, "ab5abdfd9eb313542ac3a8e8c7ce824e6d05bea552b68907076e17ff2649eeae"),
], ids=["n12", "n9-dup", "n64-dup", "n128"])
def test_labels_and_rounds_are_pinned(seed, n, moves, dup, digest):
    # the label values and every round's width, on distinct and repeated
    # weights: no other test pins them
    t1, t2, _ = generate_pair(seed, n, moves, dup_weights=dup)
    rt = ParRuntime()
    lab = partition_labeling(augment_and_root(t1), augment_and_root(t2), rt)
    blob = json.dumps(
        [sorted(lab.rho.items()), sorted(lab.rho_p.items()), rt.snapshot()], sort_keys=True
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_approx_and_gep_do_not_import_the_labeling(tmp_path):
    # the labeling answers the good-pair question in the paper's parallel
    # form; approx and gep read goodpairs' exact keys and never load it
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from nnidist import cli, newick\n"
        "from nnidist.gen import generate_pair\n"
        "from nnidist.pipeline import approx_nni\n"
        "t1, t2, _ = generate_pair(3, 24, 12)\n"
        "approx_nni(t1, t2)\n"
        "newick.write_tree(sys.argv[2], t1)\n"
        "newick.write_tree(sys.argv[3], t2)\n"
        "assert cli.main(['gep', sys.argv[2], sys.argv[3]]) == 0\n"
        "assert 'nnidist.labeling' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"),
         str(tmp_path / "t1.nwk"), str(tmp_path / "t2.nwk")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pairs"]
