"""scripts/output_digest.py: two runs write identical outputs, and ``--against`` says how far and in which column a file moved."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import steinflow

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


def _script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _call_names():
    return [name for name, _, _ in _script()._calls()]


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
    header, *lines = first.stdout.splitlines()
    assert header == f"blas-threads  {_script()._blas_threads(os.environ)}"
    # each line is "sha256  name/file" or "name  error: ...": every call wrote a file or failed
    names = {line.split("  ", 1)[1].split("/")[0] if "  error: " not in line else line.split("  ", 1)[0]
             for line in lines}
    calls = _call_names()
    assert len(calls) == 95 and names == set(calls)


def test_the_thread_setting_names_its_source():
    blas_threads = _script()._blas_threads
    assert blas_threads({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}) == "1  (OPENBLAS_NUM_THREADS)"
    assert blas_threads({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "2"}) == "2  (OMP_NUM_THREADS)"
    assert blas_threads({}) == f"{os.cpu_count()}  (cores)"


def test_a_deviation_names_its_column(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("iteration,kl_estimate,grad_restart_stat,note\n0,0.5,nan,a\n3,0.25,nan,a\n", encoding="utf-8")
    new.write_text("iteration,kl_estimate,grad_restart_stat,note\n0,0.5,nan,b\n3,0.2,nan,b\n", encoding="utf-8")
    deviation = _script()._deviation
    assert deviation(new, old) == f"max-rel-dev 0.2  {new.as_posix()}  (kl_estimate)"
    new.write_text("iteration,kl_estimate,grad_restart_stat,note\n0,0.5,nan,a\n3,0.25,-1,a\n", encoding="utf-8")
    assert deviation(new, old) == f"max-rel-dev inf  {new.as_posix()}  (grad_restart_stat)"
    # an inf names the largest finite deviation too, which it would hide
    new.write_text("iteration,kl_estimate,grad_restart_stat,note\n0,0.5,nan,a\n3,0.2,-1,a\n", encoding="utf-8")
    assert deviation(new, old) == (f"max-rel-dev inf  {new.as_posix()}  (grad_restart_stat)"
                                   "  finite 0.2  (kl_estimate)")
    old, new = old.with_suffix(".npy"), new.with_suffix(".npy")
    np.save(old, np.ones(3))
    np.save(new, np.array([1.0, 1.0, 0.5]))
    assert deviation(new, old) == f"max-rel-dev 0.5  {new.as_posix()}"  # an array has no column to name
    np.save(new, np.array([np.nan, 1.0, 0.5]))
    assert deviation(new, old) == f"max-rel-dev inf  {new.as_posix()}  finite 0.5"
    # a JSON file names the dotted keys whose values differ or that one side lacks; a NaN equals a NaN
    old, new = old.with_suffix(".json"), new.with_suffix(".json")
    old.write_text(json.dumps({"config": {"beta": 0.9, "seed": 0, "tau": 0.1, "x": float("nan")},
                               "content_hash": "a"}), encoding="utf-8")
    new.write_text(json.dumps({"config": {"seed": 0, "tau": 0.2, "x": float("nan")}, "content_hash": "b",
                               "wall_s": 1.0}), encoding="utf-8")
    assert deviation(new, old) == f"differs  {new.as_posix()}  (keys: config.beta, config.tau, content_hash, wall_s)"
