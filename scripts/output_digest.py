"""Digest of every file a fixed set of 95 steinflow CLI calls writes.

    python3 scripts/output_digest.py [--src DIR] [--keep DIR] [--against DIR] > digest.txt

The calls are ``steinflow run`` on the grid 5 samplers x 2 kernels x 4
built-in targets x 2 dampings, then ``mala`` with a bilinear ``a_matrix``
that is not positive definite (a Langevin run builds no kernel, and must
still reject it), then seven ``steinflow analyze`` calls with the bilinear
kernel (the 2-D commuting ``gauss-correlated``, once with the default
sampler and once with ``mala``; a centred 1-D ``gaussian`` target, which
sweeps the damping and adds the optimal 1-D kernel scale to the accelerated
spectrum; an off-centre 1-D one, which sweeps the kernel scale and has no
accelerated spectrum; ``gauss-aniso``, off-centre and 2-D, which admits
neither sweep and fails with an ``error:`` line; ``gauss-correlated`` with
``a_matrix`` 1e200 I, whose norms would overflow the commutation check, and
with 5e306 I, whose damping grid reaches an alpha whose square overflows, so
it fails with an ``error:`` line), and two two-value
``steinflow sweep --param tau`` calls: one of the default sampler, and one of ``mala`` on
``double-bananas`` at N = 300, which draws only the first 100 paths of
truncated snapshots and finds nearest neighbours over two distance blocks;
then two ``asvgd`` runs with the bilinear kernel on ``gauss-correlated`` at
N = 5000, so both bilinear paths also run at a size where BLAS may block
their products differently: constant damping, which steps the coefficients
of the affine frame of the run's start and forms the ensemble only at its
records (every 3rd iteration and the last), as every constant-damped
bilinear ``asvgd`` run of the grid on a Gaussian target does at N = 60 (on a
non-Gaussian target such a run takes the particle step), and restart
damping, which takes the particle step with its N-row products on every
step; then one ``svgd``
run with the Gaussian kernel on ``gauss-correlated`` at N = 600, whose Gram
matrix spans several distance blocks and whose symmetric product K [X | grad_f | 1]
BLAS blocks too; then one ``ula`` run on ``double-bananas`` with record_every 1,
whose ``knn`` KL reading overflows at iteration 5, so the run fails there on
a non-finite metric; last, one constant-damped bilinear ``asvgd`` run on
``quartic`` with record_every 1, which takes the particle step.
Every config has 12 steps, eps = 0.1 and, unless it sets its own,
record_every 3 and N = 60 particles, and every call runs inside a temporary
directory.  The script prints first the BLAS thread setting, ``blas-threads  T  (SOURCE)``:
the value of ``OPENBLAS_NUM_THREADS``, else of ``OMP_NUM_THREADS``, else the
core count, as OpenBLAS picks it, since another thread count may move the
last bits.  Then it prints one ``sha256  path`` line per output file and one
``name  error: ...`` line per failed call, with paths relative to that
directory.  Run it on two checkouts at one thread setting and diff the
outputs to check that a change leaves every CLI output byte-identical;
``--src`` names the directory that holds the ``steinflow`` package to import
(default: this checkout's ``src``).

``--keep DIR`` runs the calls in DIR, which must not exist yet, instead of a
temporary directory, and leaves the output tree there.  ``--against DIR``
compares each output file with the file of the same path under DIR, a tree
kept by an earlier ``--keep`` run, and writes one line to stderr for each
file whose bytes differ: ``max-rel-dev R  path``, with R the largest
relative deviation |a - b| / max(|a|, |b|) over its numbers (the array of a
``.npy`` file, the numeric columns of a CSV file; a NaN equals a NaN, and a
NaN against a number deviates by inf), followed for a CSV file by
``  (column)``, the first column that deviates by R.  When R is inf and a
finite deviation is not 0, the line goes on with ``  finite F``, F the
largest finite deviation, which the inf would hide, followed for a CSV file
by its column.  A ``.json`` file gives ``differs  path  (keys: K, ...)``,
the dotted keys whose values differ or that only one side has, and another
file with no numbers to compare ``differs  path``; one that DIR lacks gives
``missing  path``.  So one command measures how far
a change of arithmetic moved each output:

    python3 scripts/output_digest.py --src OLD/src --keep /tmp/old > old.txt
    python3 scripts/output_digest.py --against /tmp/old > new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

SAMPLERS = ("asvgd", "svgd", "ula", "mala", "uld")
KERNELS = ("gaussian", "bilinear")
TARGETS = ("gauss-correlated", "gauss-aniso", "quartic", "double-bananas")
DAMPINGS = ("restart", "constant")
FIXED = {"n_particles": 60, "n_steps": 12, "record_every": 3, "eps": 0.1}  # a call's config overrides these


def _calls():
    """(name, config, CLI command and options) of every call, the grid of runs first."""
    for sampler, kernel, target, damping in itertools.product(SAMPLERS, KERNELS, TARGETS, DAMPINGS):
        yield (f"{sampler}-{kernel}-{target}-{damping}",
               {"sampler": sampler, "kernel": kernel, "target": target, "damping": damping}, ["run"])
    yield ("mala-bilinear-not-pd-quartic",
           {"sampler": "mala", "kernel": "bilinear", "a_matrix": [[1, 0], [0, -1]], "target": "quartic"}, ["run"])
    yield "analyze-bilinear-gauss-correlated", {"kernel": "bilinear", "target": "gauss-correlated"}, ["analyze"]
    yield ("analyze-bilinear-gauss-correlated-mala",
           {"sampler": "mala", "kernel": "bilinear", "target": "gauss-correlated"}, ["analyze"])
    for name, mean in (("centred", 0.0), ("offcentre", 0.5)):
        yield (f"analyze-bilinear-gaussian-1d-{name}",
               {"kernel": "bilinear", "target": "gaussian", "target_mean": [mean], "target_q": [[2.0]]},
               ["analyze"])
    yield "analyze-bilinear-gauss-aniso", {"kernel": "bilinear", "target": "gauss-aniso"}, ["analyze"]
    for scale in ("1e200", "5e306"):
        yield (f"analyze-bilinear-gauss-correlated-a{scale}",
               {"kernel": "bilinear", "target": "gauss-correlated", "a_matrix": [[float(scale), 0], [0, float(scale)]]},
               ["analyze"])
    yield ("sweep-tau-gauss-correlated", {"target": "gauss-correlated"},
           ["sweep", "--param", "tau", "--values", "0.05,0.1"])
    yield ("sweep-tau-mala-double-bananas-n300",
           {"sampler": "mala", "target": "double-bananas", "n_particles": 300},
           ["sweep", "--param", "tau", "--values", "0.01,0.02"])
    for damping in ("constant", "restart"):
        yield (f"asvgd-bilinear-gauss-correlated-{damping}-n5000",
               {"kernel": "bilinear", "target": "gauss-correlated", "damping": damping, "n_particles": 5000},
               ["run"])
    yield ("svgd-gaussian-gauss-correlated-n600",
           {"sampler": "svgd", "target": "gauss-correlated", "n_particles": 600}, ["run"])
    yield ("ula-double-bananas-every-record",
           {"sampler": "ula", "target": "double-bananas", "record_every": 1}, ["run"])
    yield ("asvgd-bilinear-quartic-constant-every-record",
           {"kernel": "bilinear", "target": "quartic", "damping": "constant", "record_every": 1}, ["run"])


def _blas_threads(environ):
    """``T  (SOURCE)``: the BLAS thread count that ``environ`` sets and the variable that sets it, or the core count."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if environ.get(name):
            return f"{environ[name]}  ({name})"
    return f"{os.cpu_count()}  (cores)"


def _numbers(path):
    """The numbers of an output file as named float arrays, or None for a file without them.

    A ``.npy`` file gives its array, a CSV file each column whose values all
    parse as floats, keyed by its header; ``#`` lines are skipped.
    """
    if path.suffix == ".npy":
        return {"": np.load(path, allow_pickle=False)}
    if path.suffix != ".csv":
        return None
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    rows = [line.split(",") for line in lines[1:]]
    columns = {}
    for j, name in enumerate(lines[0].split(",")):
        try:
            columns[name] = np.array([float(row[j]) for row in rows])
        except ValueError:
            continue
    return columns


def _max_rel_devs(a, b):
    """The largest and the largest finite |a - b| / max(|a|, |b|) over equal-shape arrays.

    A non-finite mismatch deviates by inf, and a shape mismatch gives (inf, 0).
    """
    if a.shape != b.shape:
        return float("inf"), 0.0
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(all="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    dev = np.where(same, 0.0, np.nan_to_num(rel, nan=np.inf))
    return float(dev.max(initial=0.0)), float(dev[np.isfinite(dev)].max(initial=0.0))


def _json_keys(a, b, prefix=""):
    """The sorted dotted keys under which the JSON objects a and b differ, or that only one of them has."""
    keys = []
    for key in sorted(a.keys() | b.keys()):
        name, x, y = prefix + key, a.get(key), b.get(key)
        if isinstance(x, dict) and isinstance(y, dict):
            keys += _json_keys(x, y, name + ".")
        elif key not in a or key not in b or json.dumps(x) != json.dumps(y):  # dumps: a NaN equals a NaN
            keys.append(name)
    return keys


def _deviation(out, old):
    """The stderr line for output file ``out`` against ``old``, or None if their bytes are equal."""
    if not old.is_file():
        return f"missing  {out.as_posix()}"
    if old.read_bytes() == out.read_bytes():
        return None
    if out.suffix == ".json":
        keys = _json_keys(*(json.loads(path.read_text(encoding="utf-8")) for path in (out, old)))
        return f"differs  {out.as_posix()}" + (f"  (keys: {', '.join(keys)})" if keys else "")
    new_numbers, old_numbers = _numbers(out), _numbers(old)
    if not new_numbers or not old_numbers:
        return f"differs  {out.as_posix()}"
    if new_numbers.keys() != old_numbers.keys():
        return f"max-rel-dev inf  {out.as_posix()}"
    devs = {k: _max_rel_devs(new_numbers[k], old_numbers[k]) for k in new_numbers}
    # the first column of the largest deviation, and of the largest finite one; "" for a .npy array
    column = max(devs, key=lambda k: devs[k][0])
    finite = max(devs, key=lambda k: devs[k][1])
    line = f"max-rel-dev {devs[column][0]:.3g}  {out.as_posix()}" + (f"  ({column})" if column else "")
    if np.isinf(devs[column][0]) and devs[finite][1] > 0.0:
        line += f"  finite {devs[finite][1]:.3g}" + (f"  ({finite})" if finite else "")
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the steinflow package")
    parser.add_argument("--keep", metavar="DIR", help="run in DIR, which must not exist, and keep the outputs")
    parser.add_argument("--against", metavar="DIR",
                        help="report on stderr how far each differing output deviates from DIR's")
    args = parser.parse_args(argv)
    against = Path(args.against).resolve() if args.against else None
    sys.path.insert(0, str(Path(args.src).resolve()))
    from steinflow import cli

    lines = [f"blas-threads  {_blas_threads(os.environ)}"]
    cwd = os.getcwd()
    if args.keep:
        Path(args.keep).mkdir(parents=True)
        workdir = contextlib.nullcontext(str(Path(args.keep).resolve()))
    else:
        workdir = tempfile.TemporaryDirectory()
    with workdir as tmp:
        os.chdir(tmp)  # output_dir stays relative, so manifest.json does not name the temp dir
        try:
            for name, config, (command, *options) in _calls():
                path = Path(f"{name}.json")
                path.write_text(json.dumps({**FIXED, **config, "output_dir": name}), encoding="utf-8")
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    cli.main([command, str(path), *options])
                lines += [f"{name}  {line}" for line in stderr.getvalue().splitlines()
                          if line.startswith("error:")]
                for out in sorted(p for p in Path(name).rglob("*") if p.is_file()):
                    lines.append(f"{hashlib.sha256(out.read_bytes()).hexdigest()}  {out.as_posix()}")
                    deviation = None if against is None else _deviation(out, against / out)
                    if deviation:
                        print(deviation, file=sys.stderr)
        finally:
            os.chdir(cwd)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
