"""Properties of a run that only a fresh interpreter shows: its BLAS thread
count, its page faults, the command line's module entry point and the
README's library quick start, run as written.

Each run is a child process that imports the package from this checkout's
``src``; the child's environment is a copy, so no test changes ``os.environ``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steinflow

SRC = str(Path(steinflow.__file__).resolve().parents[1])


def _python(*args, env_update=()):
    """The finished child ``python args``, its output captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_update)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def _run_child(script, *args, env_update=()):
    proc = _python("-c", script, *args, env_update=env_update)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_module_entry_point_exits_with_the_cli_status(tmp_path):
    out = tmp_path / "out"
    good, old = tmp_path / "good.json", tmp_path / "old.json"
    good.write_text(json.dumps({"target": "quartic", "n_particles": 4, "n_steps": 1, "output_dir": str(out)}))
    old.write_text(json.dumps({"target": "quartic", "use_speed_restart": False}))
    proc = _python("-m", "steinflow.cli", "run", str(good))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("wrote ")
    # restart damping has no switch, so a config that sets one names an unknown key
    proc = _python("-m", "steinflow.cli", "run", str(old))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: unknown config key(s): use_speed_restart")


def test_readme_library_quick_start_runs():
    readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    script = readme[readme.index("## Library quick start"):].split("```python\n")[1].split("```")[0]
    out = _run_child(script, env_update={"OPENBLAS_NUM_THREADS": "1"})
    first_kl, last_kl = map(float, out.split()[-2:])  # it prints the step, the mean, the first and last KL
    assert last_kl < first_kl


# runs the Gaussian-kernel svgd and asvgd configs of argv[1] for 20 steps from
# one fixed start, and saves the final particles to argv[2]
_FINAL_PARTICLES = """
import json, sys
import numpy as np
from steinflow import parse_config, samplers
finals = {}
for sampler in ("svgd", "asvgd"):
    cfg = parse_config(json.dumps({**json.loads(sys.argv[1]), "sampler": sampler}))
    mean, _, chol = cfg.initial_distribution(2)
    x0 = mean + np.random.default_rng(5).standard_normal((cfg.n_particles, 2)) @ chol.T
    finals[sampler] = samplers.run(cfg.build_sampler_config(), x0, cfg.n_steps).x
np.savez(sys.argv[2], **finals)
"""


def test_blas_thread_count_moves_the_particles_by_rounding_only(tmp_path):
    # one BLAS thread against two: the products split their work by thread,
    # so the last bits may differ, but never by more than rounding
    config = json.dumps({"target": "gauss-correlated", "kernel": "gaussian", "n_particles": 600,
                         "n_steps": 20, "init_mean": [1.0, 1.0], "init_cov": [[3.0, 2.0], [2.0, 3.0]]})
    finals = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.npz"
        _run_child(_FINAL_PARTICLES, config, str(path),
                   env_update={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
        finals.append(np.load(path))
    for sampler in ("svgd", "asvgd"):
        one, two = finals[0][sampler], finals[1][sampler]
        assert np.all(np.isfinite(one))
        assert np.linalg.norm(one - two) <= 1e-12 * np.linalg.norm(one), sampler


# runs the bilinear-large benchmark config (N = 50 000, A = I, beta = 0.9) with
# the damping argv[1] for 60 steps and prints the minor page faults per step
# from iteration 10 to 60
_BILINEAR_FAULTS = """
import json, resource, sys
import numpy as np
from steinflow import parse_config, samplers
cfg = parse_config(json.dumps({
    "sampler": "asvgd", "target": "gauss-correlated", "kernel": "bilinear",
    "a_matrix": [[1.0, 0.0], [0.0, 1.0]], "damping": sys.argv[1], "beta": 0.9, "eps": 0.1,
    "n_particles": 50000, "n_steps": 60, "tau": 0.01,
    "init_mean": [1.0, 1.0], "init_cov": [[3.0, 2.0], [2.0, 3.0]]}))
mean, _, chol = cfg.initial_distribution(2)
x0 = mean + np.random.default_rng(0).standard_normal((cfg.n_particles, 2)) @ chol.T
faults = {}

def record(ens):
    if ens.iteration in (10, 60):
        faults[ens.iteration] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

samplers.run(cfg.build_sampler_config(), x0, cfg.n_steps, recorder=record)
print((faults[60] - faults[10]) / 50)
"""


# constant damping on this Gaussian target steps the affine frame in
# coefficients, here forming the ensemble at every iteration, which the
# recorder reads; restart damping takes the particle step
_DAMPINGS = pytest.mark.parametrize("damping", ["constant", "restart"])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's minor page-fault count")
@_DAMPINGS
def test_bilinear_steps_do_not_fault_their_heap(damping):
    # a step that frees and reallocates its N-row arrays faults their pages
    # in again: about 200 faults per step at this size
    per_step = float(_run_child(_BILINEAR_FAULTS, damping, env_update={"OPENBLAS_NUM_THREADS": "1",
                                                                        "OMP_NUM_THREADS": "1"}))
    assert per_step <= 20, per_step


# runs the bilinear-large benchmark config on the target argv[2] with the
# damping argv[3] and the step size argv[4] through experiment.run_experiment, with its metric records
# and .npy snapshots every 10 steps, into argv[1], and prints the minor page
# faults per step from iteration 10 to 60, read where the recorder is called
# at those records, before it runs
_BILINEAR_EXPERIMENT_FAULTS = """
import json, resource, sys
from steinflow import experiment, parse_config, samplers
cfg = parse_config(json.dumps({
    "sampler": "asvgd", "target": sys.argv[2], "kernel": "bilinear",
    "a_matrix": [[1.0, 0.0], [0.0, 1.0]], "damping": sys.argv[3], "beta": 0.9, "eps": 0.1,
    "n_particles": 50000, "n_steps": 60, "tau": float(sys.argv[4]), "record_every": 10,
    "init_mean": [1.0, 1.0], "init_cov": [[3.0, 2.0], [2.0, 3.0]], "output_dir": sys.argv[1]}))
faults = {}
run = samplers.run

def counted_run(cfg, x0, n_steps, recorder=None, rng=None, record_iters=None):
    def counted(ens):
        if ens.iteration in (10, 60):
            faults[ens.iteration] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        recorder(ens)
    return run(cfg, x0, n_steps, recorder=counted, rng=rng, record_iters=record_iters)

samplers.run = counted_run
experiment.run_experiment(cfg)
print((faults[60] - faults[10]) / 50)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's minor page-fault count")
# quartic leaves the floating-point range within 5 steps at tau = 0.01 from this start
@pytest.mark.parametrize("target, damping, tau", [
    pytest.param("gauss-correlated", "constant", 0.01, id="constant"),
    pytest.param("gauss-correlated", "restart", 0.01, id="restart"),
    pytest.param("quartic", "constant", 0.001, id="quartic-constant")])
def test_bilinear_experiment_steps_do_not_fault_their_heap(tmp_path, target, damping, tau):
    # the whole run as the benchmark times it, records included: when a step
    # frees its N-row arrays decides whether glibc trims the top of its heap
    # and faults it in again on the next step.  Constant damping on the
    # Gaussian target steps the affine frame and forms no N-row array between
    # the records (1.28 faults per step in 3 of 3 runs).  Restart damping, and
    # constant damping on quartic, take the particle step (0.0 and 1.96 in 3
    # of 3 runs each), and the quartic case guards its workspace's kept
    # grad_f: a particle step that frees grad_f when the kernel returns read
    # 57.44 there in 2 of 2 runs.  The particle step with its step lengths
    # summed without einsum read 163.5 on the constant Gaussian config when
    # it took that step, but reads 1.96 on the restart config, so this test
    # does not catch that variant
    per_step = float(_run_child(_BILINEAR_EXPERIMENT_FAULTS, str(tmp_path / "out"), target, damping, str(tau),
                                env_update={"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}))
    assert per_step <= 20, per_step
