"""The traced benchmark can wrap every entry point it looks up."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_program_namespaces():
    # perfbench/tracing.py replaces each layer's entry points in the modules
    # that call them and raises when one of those modules no longer holds the
    # name; without this test a dropped import fails only inside the benchmark
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from tracing import Tracer, install; install(Tracer())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
