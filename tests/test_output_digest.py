"""scripts/output_digest.py run twice: every CLI output of its fixed calls is deterministic."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import steinflow

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


def _call_names():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [name for name, _, _ in module._calls()]


def _digest(*options):
    src = str(Path(steinflow.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, str(SCRIPT), "--src", src, *options],
                          capture_output=True, text=True, timeout=600)


def test_a_second_run_reproduces_every_output(tmp_path):
    kept = tmp_path / "kept"
    first = _digest("--keep", str(kept))
    assert first.returncode == 0, first.stderr
    second = _digest("--against", str(kept))
    assert second.returncode == 0, second.stderr
    assert second.stderr == ""  # no output file differs from the kept one
    assert second.stdout == first.stdout
    # each line is "sha256  name/file" or "name  error: ...": every call wrote a file or failed
    names = {line.split("  ", 1)[1].split("/")[0] if "  error: " not in line else line.split("  ", 1)[0]
             for line in first.stdout.splitlines()}
    calls = _call_names()
    assert len(calls) == 92 and names == set(calls)
