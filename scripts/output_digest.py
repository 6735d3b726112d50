"""Digest of every file a fixed set of 90 steinflow CLI calls writes.

    python3 scripts/output_digest.py [--src DIR] > digest.txt

The calls are ``steinflow run`` on the grid 5 samplers x 2 kernels x 4
built-in targets x 2 dampings, then ``mala`` with ``kl_method: "knn"``, the
1-nearest-neighbour KL estimate, on the two Gaussian targets (the only CLI
runs that take a Gaussian target's log-normalizer), then ``mala`` with a
bilinear ``a_matrix`` that is not positive definite (a Langevin run builds
no kernel, and must still reject it), then four ``steinflow analyze`` calls
with the bilinear kernel (the 2-D commuting ``gauss-correlated``, once with
the default sampler and once with ``mala``; a centred 1-D ``gaussian``
target, which sweeps the damping and adds the optimal 1-D kernel scale to the
accelerated spectrum; an off-centre 1-D one, which sweeps the kernel scale
and has no accelerated spectrum), and two two-value ``steinflow sweep
--param tau`` calls: one of the default sampler, and one of ``mala`` on
``double-bananas`` at N = 300, which draws only the first 100 paths of
truncated snapshots and finds nearest neighbours over two distance blocks;
last, one ``asvgd`` run with the bilinear kernel and constant damping on
``gauss-correlated`` at N = 5000, so the Woodbury solve also runs at a size
where BLAS may block its products differently.  Every config has 12 steps,
record_every 3, eps = 0.1 and, unless it sets its own, N = 60 particles, and
every call runs inside a temporary directory.  The
script prints one ``sha256  path`` line per output file and one ``name  error: ...``
line per failed call, with paths relative to that directory.  Run it on two
checkouts and diff the outputs to check that a change leaves every CLI output
byte-identical; ``--src`` names the directory that holds the ``steinflow``
package to import (default: this checkout's ``src``).
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
    for target in TARGETS[:2]:
        yield f"mala-knn-{target}", {"sampler": "mala", "target": target, "kl_method": "knn"}, ["run"]
    yield ("mala-bilinear-not-pd-quartic",
           {"sampler": "mala", "kernel": "bilinear", "a_matrix": [[1, 0], [0, -1]], "target": "quartic"}, ["run"])
    yield "analyze-bilinear-gauss-correlated", {"kernel": "bilinear", "target": "gauss-correlated"}, ["analyze"]
    yield ("analyze-bilinear-gauss-correlated-mala",
           {"sampler": "mala", "kernel": "bilinear", "target": "gauss-correlated"}, ["analyze"])
    for name, mean in (("centred", 0.0), ("offcentre", 0.5)):
        yield (f"analyze-bilinear-gaussian-1d-{name}",
               {"kernel": "bilinear", "target": "gaussian", "target_mean": [mean], "target_q": [[2.0]]},
               ["analyze"])
    yield ("sweep-tau-gauss-correlated", {"target": "gauss-correlated"},
           ["sweep", "--param", "tau", "--values", "0.05,0.1"])
    yield ("sweep-tau-mala-double-bananas-n300",
           {"sampler": "mala", "target": "double-bananas", "n_particles": 300},
           ["sweep", "--param", "tau", "--values", "0.01,0.02"])
    yield ("asvgd-bilinear-gauss-correlated-constant-n5000",
           {"kernel": "bilinear", "target": "gauss-correlated", "damping": "constant", "n_particles": 5000},
           ["run"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the steinflow package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from steinflow import cli

    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
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
        finally:
            os.chdir(cwd)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
