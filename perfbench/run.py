"""steinflow benchmark: run one workload from a seed, check it, print its metrics.

    python3 perfbench/run.py --workload asvgd-gauss --seed 1 --seconds 30 --trace 0

Run it from the root of a steinflow checkout; it imports the package from
``src``.  Every operation runs in a fresh interpreter (``perfbench/op.py``)
with BLAS pinned to one thread.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of the
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are the machine record and a readable
summary.  See ``perfbench/README.md`` for why each workload was chosen.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads, here and in every child

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

MIN_OPS = 3          # operations per run; the accuracy metrics come from these
SETUP_PROBES = 2     # set-up-only spawns after each operation, after one discarded warm-up
HARD_LIMIT_S = 170   # the whole run, children included, ends before this

_INIT = {"init_mean": [1.0, 1.0], "init_cov": [[3.0, 2.0], [2.0, 3.0]]}

# kl_fraction: iters_to_kl counts the iterations until the KL falls to this
# share of its iteration-0 value; every operation must get there.
WORKLOADS = {
    "asvgd-gauss": {
        "mode": "run",
        "config": {"sampler": "asvgd", "target": "gauss-correlated", "kernel": "gaussian",
                   "sigma2": 0.1, "eps": 0.1, "damping": "constant", "beta": 0.9,
                   "n_particles": 1000, "n_steps": 60, "tau": 0.05, "record_every": 10, **_INIT},
        "kl_fraction": 0.5,
    },
    "bilinear-large": {
        "mode": "run",
        "config": {"sampler": "asvgd", "target": "gauss-correlated", "kernel": "bilinear",
                   "a_matrix": [[1.0, 0.0], [0.0, 1.0]], "damping": "constant", "beta": 0.9,
                   "eps": 0.1, "n_particles": 50000, "n_steps": 200, "tau": 0.01,
                   "record_every": 10, **_INIT},
        "kl_fraction": 1e-3,
        "oracle_checkpoints": (100, 200),
    },
    "sweep-mala-kde": {
        "mode": "sweep",
        "config": {"sampler": "mala", "target": "double-bananas", "n_particles": 500,
                   "n_steps": 60, "tau": 0.01, "record_every": 10, "kl_method": "auto"},
        "param": "tau",
        "values": [0.005, 0.01, 0.02, 0.04],
        "workers": 2,
        "kl_fraction": 0.3,
    },
}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "iters_to_kl": "iterations", "final_kl_ratio": "1"}

GRID_SIZES, GRID_DIMS = (250, 500, 1000, 2000), (2, 10)


def config_seed(seed, k):
    """Seed of the k-th operation's config.

    A sweep gives its job i the seed + i, so operations are 16 apart and their
    jobs never share an initial draw.
    """
    return (seed * 1009 + 16 * k) % (2**31 - 64)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("STEINFLOW_OUT", "STEINFLOW_BACKEND")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(script, spec, deadline):
    """Run one child to completion; returns (parsed last stdout line or None, spawn clock, error)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), json.dumps(spec)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return None, t0, f"{script} timed out"
    if proc.returncode != 0:
        return None, t0, (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return json.loads(proc.stdout.strip().splitlines()[-1]), t0, None


# ---------------------------------------------------------------- checks


def read_metrics(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return [{k: float(v) for k, v in row.items()} for row in rows]


def moments(row, d):
    import numpy as np

    mean = np.array([row[f"mean_{i}"] for i in range(d)])
    cov = np.array([[row[f"cov_{i}_{j}"] for j in range(d)] for i in range(d)])
    return mean, cov


def bananas_moments(target):
    """Exact mean and covariance of the double-bananas target.

    Each mirrored component has x1 ~ N(a, c1/2) and x2 | x1 ~ N(+-x1^2, 1/(2 c2)),
    with equal weights, so the mean is (a, 0), x1 and x2 are uncorrelated and
    Var x2 = E[x1^4] + 1/(2 c2).
    """
    import numpy as np

    a, s = target.a, target.c1 / 2.0
    ex4 = a**4 + 6.0 * a**2 * s + 3.0 * s**2
    return np.array([a, 0.0]), np.diag([s, ex4 + 1.0 / (2.0 * target.c2)])


def iters_to_fraction(iterations, kls, fraction):
    """Iterations until the KL first falls to ``fraction`` of its first value.

    Log-linear interpolation between the first record at or below the goal and
    the record before it; None if the goal is never reached.
    """
    goal = fraction * kls[0]
    for j in range(1, len(kls)):
        if kls[j] <= goal:
            hi, lo = math.log(kls[j - 1]), math.log(max(kls[j], 1e-300))
            return iterations[j - 1] + (iterations[j] - iterations[j - 1]) * (hi - math.log(goal)) / (hi - lo)
    return None


def check_rows(rows, cfg, what):
    """Row count and finiteness of one metrics.csv; grad_restart_stat is NaN by design off asvgd."""
    expected = len(set(range(0, cfg["n_steps"] + 1, cfg["record_every"])) | {cfg["n_steps"]})
    errors = []
    if len(rows) != expected:
        errors.append(f"{what}: {len(rows)} rows, expected {expected}")
    bad = sorted({k for row in rows for k, v in row.items()
                  if k != "grad_restart_stat" and not math.isfinite(v)})
    if bad:
        errors.append(f"{what}: non-finite {', '.join(bad)}")
    return errors


def check_moment_flow(rows, cfg, target, checkpoints):
    """Particle moments against the RK4 moment flow with matched damping (1 - beta)/sqrt(tau).

    Tolerances of acceptance criterion 1: mean within 0.1 |mu0 - b|, relative
    covariance error at most 0.15.  RK4 at dt = 0.05 differs from dt = 0.01 by
    less than 1e-6 here, far inside those tolerances, at a fifth of the cost.
    """
    import numpy as np
    from steinflow import gaussian_flow as gflow

    sqrt_tau = math.sqrt(cfg["tau"])
    a = np.asarray(cfg["a_matrix"])
    mean0, cov0 = moments(rows[0], 2)
    traj = gflow.integrate_rk4(
        lambda s, al: gflow.asvgd_gaussian_rhs(s, a, target.b, target.q, al),
        gflow.AcceleratedGaussianState(mean0, cov0), t_end=max(checkpoints) * sqrt_tau, dt=0.05,
        damping=gflow.constant_damping((1.0 - cfg["beta"]) / sqrt_tau))
    times = np.array([t for t, _ in traj])
    mu_budget = 0.1 * np.linalg.norm(np.asarray(cfg["init_mean"]) - target.b)
    by_iter = {int(row["iteration"]): row for row in rows}
    errors = []
    for it in checkpoints:
        state = traj[int(np.abs(times - it * sqrt_tau).argmin())][1]
        mean, cov = moments(by_iter[it], 2)
        mean_err = float(np.linalg.norm(mean - state.mu))
        cov_err = float(np.linalg.norm(cov - state.sigma) / np.linalg.norm(state.sigma))
        if not (mean_err <= mu_budget and cov_err <= 0.15):
            errors.append(f"iteration {it}: mean error {mean_err:.3g} (budget {mu_budget:.3g}), "
                          f"covariance error {cov_err:.3g} (budget 0.15)")
    return errors


def evaluate(workload, cfg, outdir):
    """Check one operation's outputs; returns (operations, failed, errors, kl curve)."""
    import numpy as np
    from steinflow import targets
    from steinflow.gaussian_flow import kl_gaussians

    target = targets.builtin(cfg["target"])
    if workload["mode"] == "sweep":
        jobs = len(workload["values"])
        failed, errors, curves = 0, [], []
        mean, cov = bananas_moments(target)
        for i in range(jobs):
            try:
                rows = read_metrics(outdir / f"sweep_{i}" / "metrics.csv")
            except (OSError, ValueError) as exc:
                rows, job_errors = [], [f"job {i}: {exc}"]
            else:
                job_errors = check_rows(rows, cfg, f"job {i}")
            errors += job_errors
            failed += bool(job_errors)
            if not job_errors:
                # the KDE column is excluded; KL of the moment fit from the exact moments
                curves.append([kl_gaussians(*moments(row, 2), mean, cov) for row in rows])
        if failed:
            return jobs, failed, errors, None
        iterations = [row["iteration"] for row in rows]
        return jobs, 0, [], (iterations, list(np.mean(curves, axis=0)))

    try:
        rows = read_metrics(outdir / "metrics.csv")
    except (OSError, ValueError) as exc:
        return 1, 1, [str(exc)], None
    errors = check_rows(rows, cfg, "metrics.csv")
    if not errors and "oracle_checkpoints" in workload:
        errors += check_moment_flow(rows, cfg, target, workload["oracle_checkpoints"])
    curve = ([row["iteration"] for row in rows], [row["kl_estimate"] for row in rows])
    if not errors and not curve[1][-1] <= workload["kl_fraction"] * curve[1][0]:
        errors.append(f"final KL {curve[1][-1]:.4g} above {workload['kl_fraction']} "
                      f"of the initial {curve[1][0]:.4g}")
    return 1, int(bool(errors)), errors, curve


def run_operation(workload, seed, k, workdir, deadline, trace=False):
    """One operation in a fresh process, checked; returns a record of what it measured."""
    cfg = dict(workload["config"], seed=config_seed(seed, k), output_dir=str(workdir / f"op{k}-{int(trace)}"))
    spec = {"mode": workload["mode"], "config": cfg, "trace": trace,
            **{key: workload[key] for key in ("param", "values", "workers") if key in workload}}
    out, t0, err = spawn("op.py", spec, deadline)
    outdir = Path(cfg["output_dir"])
    jobs = len(workload.get("values", [None]))
    if out is None:
        return {"ok": False, "operations": jobs, "failed": jobs, "errors": [err]}
    ops, failed, errors, curve = evaluate(workload, cfg, outdir)
    rec = {"operations": ops, "run_s": out["run_s"], "setup_s": out["ready"] - t0,
           "peak_rss_mb": out["peak_rss_mb"], "import_s": out["import_s"], "layers": out.get("layers"),
           "output_bytes": sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())}
    shutil.rmtree(outdir, ignore_errors=True)
    # failures of the whole operation count against every job in it
    whole = []
    if curve is not None:
        rec["iters_to_kl"] = iters_to_fraction(*curve, workload["kl_fraction"])
        rec["final_kl_ratio"] = curve[1][-1] / curve[1][0]
        if rec["iters_to_kl"] is None:
            whole.append(f"KL never fell to {workload['kl_fraction']} of its initial value")
    if out["wrappers"]:
        whole.append(f"tracing wrappers left installed: {', '.join(out['wrappers'])}")
    rec.update(ok=not (errors or whole), failed=ops if whole else failed, errors=errors + whole)
    return rec


def setup_probe(workload, seed, workdir, deadline):
    cfg = dict(workload["config"], seed=config_seed(seed, 0), output_dir=str(workdir / "setup"))
    out, t0, err = spawn("op.py", {"mode": "setup", "config": cfg}, deadline)
    return None if out is None else out["ready"] - t0


# ---------------------------------------------------------------- metrics


def tail(values):
    """(percentile, value) of the highest percentile with ten samples beyond it; None below 11."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def layer_metrics(rec, workers, overhead_s):
    """Per-layer metrics of one traced operation."""
    lay = rec["layers"]
    spans = lay["spans"]

    def get(name, i):
        return float(spans.get(name, [0, 0.0, 0.0])[i])

    return {
        "kernels.gram.calls": get("kernels.gram", 0),
        "kernels.gram.s": get("kernels.gram", 1),
        "kernels.gram.bytes": lay["kernels.gram.bytes"],
        "samplers.solve.calls": get("samplers.solve", 0),
        "samplers.solve.s": get("samplers.solve", 1),
        "samplers.asvgd_step.calls": get("samplers.asvgd_step", 0),
        "samplers.asvgd_step.s": get("samplers.asvgd_step", 1),
        "samplers.asvgd_step.self_s": get("samplers.asvgd_step", 2),
        "samplers.asvgd_step.reset_fraction": lay["samplers.asvgd_step.reset_fraction"],
        "samplers.gradient_restart_stat.calls": get("samplers.gradient_restart_stat", 0),
        "samplers.gradient_restart_stat.s": get("samplers.gradient_restart_stat", 1),
        "kernels.woodbury_inverse_apply.s": get("kernels.woodbury_inverse_apply", 1),
        "targets.grad_all.s": get("targets.grad_all", 1),
        "experiment.run_experiment.self_s": get("experiment.run_experiment", 2),
        "experiment.output_bytes": float(rec["output_bytes"]),
        "diagnostics.kl_estimate.s": get("diagnostics.kl_estimate", 1),
        "diagnostics.kl_estimate.self_s": get("diagnostics.kl_estimate", 2),
        "kernels.median_bandwidth.s": get("kernels.median_bandwidth", 1),
        "targets.potential.calls": get("targets.potential", 0),
        "targets.potential.s": get("targets.potential", 1),
        "samplers.mala_step.self_s": get("samplers.mala_step", 2),
        "experiment.run_sweep.parallel_efficiency":
            lay["job_cpu_s"] / (workers * lay["sweep_s"]) if lay["sweep_s"] else 0.0,
        "svg.render_trajectory_svg.s": get("svg.render_trajectory_svg", 1),
        "config.parse_config.s": get("config.parse_config", 1)
        + float(lay["setup_spans"].get("config.parse_config", [0, 0.0])[1]),
        "setup.import_s": rec["import_s"],
        "trace.overhead_s": overhead_s,
    }


def layer_unit(name):
    if name.startswith("grid."):
        return "ms"
    return {"calls": "count", "bytes": "bytes", "output_bytes": "bytes", "reset_fraction": "1",
            "parallel_efficiency": "1"}.get(name.rsplit(".", 1)[-1], "s")


# ---------------------------------------------------------------- machine


def _blas_threads():
    """Thread count reported by every OpenBLAS library loaded in this process."""
    import ctypes

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    except OSError:
        return found
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_record():
    import numpy
    import scipy

    import steinflow

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "steinflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": BLAS_ENV,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "steinflow_backend": getattr(steinflow, "BACKEND", "none"),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------- main


def measure(workload, args, workdir, start):
    """Run the operations of one benchmark run; returns (records, extra, errors)."""
    deadline = start + HARD_LIMIT_S
    setup_probe(workload, args.seed, workdir, deadline)  # warm-up: bytecode and file cache
    records, errors, extra = [], [], {}
    if args.trace:
        passed, _, err = spawn("selftest.py", {"workdir": str(workdir / "selftest")}, deadline)
        if passed is None:
            errors.append(f"tracer self-test failed: {err}")
        pairs = []
        while len(pairs) < 1 or time.monotonic() - start + pairs[-1][2] <= args.seconds:
            t0 = time.monotonic()
            plain = run_operation(workload, args.seed, len(pairs), workdir, deadline)
            traced = run_operation(workload, args.seed, len(pairs), workdir, deadline, trace=True)
            records += [plain, traced]
            pairs.append((plain, traced, time.monotonic() - t0))
            if not (plain["ok"] and traced["ok"]):
                break
        extra["pairs"] = pairs
        grid, _, err = spawn("op.py", {"mode": "grid", "seed": args.seed, "sizes": GRID_SIZES,
                                       "dims": GRID_DIMS}, deadline)
        if grid is None:
            errors.append(f"layer grid failed: {err}")
        extra["grid"] = grid or {}
        return records, extra, errors

    walls, probes = [], []
    while len(records) < MIN_OPS or time.monotonic() - start + statistics.median(walls) <= args.seconds:
        t0 = time.monotonic()
        records.append(run_operation(workload, args.seed, len(records), workdir, deadline))
        # interleaved, so set-up samples spread over the run like the operations
        probes += [setup_probe(workload, args.seed, workdir, deadline) for _ in range(SETUP_PROBES)]
        walls.append(time.monotonic() - t0)
        if time.monotonic() > deadline - 2 * max(walls):
            break
    extra["setup_probes"] = [s for s in probes if s is not None]
    return records, extra, errors


def summarize(workload, args, records, extra, errors):
    """Metrics dict and readable lines for one run."""
    good = [r for r in records if r["ok"]]
    lines = []
    metrics = {}
    if args.trace:
        pairs = [(p, t) for p, t, _ in extra["pairs"] if p["ok"] and t["ok"]]
        if pairs:
            overhead = statistics.median(t["run_s"] - p["run_s"] for p, t in pairs)
            traced = [t for _, t in pairs]
            per_op = [layer_metrics(t, workload.get("workers", 1), overhead) for t in traced]
            metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
            if workload["mode"] == "run":
                for t in traced:
                    self_sum = sum(v[2] for v in t["layers"]["spans"].values())
                    lines.append(f"  traced run_s {t['run_s']:.4f} s, layer self times sum "
                                 f"{self_sum:.4f} s, trace overhead {overhead:.4f} s")
                    if abs(t["run_s"] - self_sum) > abs(overhead) + 1e-3:
                        errors.append("layer self times do not sum to the traced run_s")
            missing = sorted({m for t in traced for m in t["layers"]["missing"]})
            if missing:
                lines.append(f"  not instrumented (absent in this version): {', '.join(missing)}")
        metrics.update(extra["grid"])
        for key, value in metrics.items():
            lines.append(f"  {key:44s} {value:.6g} {layer_unit(key)}")
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}, lines

    samples = {
        "run_s": [r["run_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good] + extra["setup_probes"],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        # deterministic per seed: only the first MIN_OPS operations count
        "iters_to_kl": [r["iters_to_kl"] for r in good[:MIN_OPS]],
        "final_kl_ratio": [r["final_kl_ratio"] for r in good[:MIN_OPS]],
    }
    lines.append("  run_s of each operation: " + " ".join(f"{r['run_s']:.3f}" for r in good))
    for key, values in samples.items():
        if not values:
            continue
        metrics[key] = {"value": statistics.median(values), "unit": END_TO_END[key]}
        t = tail(values)
        tail_text = f"p{t[0]:.1f} {t[1]:.6g}" if t else "no tail percentile below 11 samples"
        lines.append(f"  {key:16s} median {metrics[key]['value']:.6g} {END_TO_END[key]} "
                     f"(n={len(values)}; {tail_text})")
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "steinflow" / "__init__.py").is_file():
        print(f"error: no steinflow sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.monotonic()
    name, workload = args.workload, WORKLOADS[args.workload]
    workdir = HERE / "out" / f"{name}-{os.getpid()}"
    try:
        print(json.dumps({"machine": machine_record()}))
        records, extra, errors = measure(workload, args, workdir, start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, lines = summarize(workload, args, records, extra, errors)
    attempted = sum(r["operations"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(f"workload {name} seed {args.seed} trace {args.trace}: {len(records)} processes in "
          f"{time.monotonic() - start:.1f} s")
    for line in lines:
        print(line)
    print(f"  {'fail_rate':16s} {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")
    for r in records:
        errors += r["errors"]
    for err in errors:
        print(f"  FAILED: {err}")
    print(json.dumps({"correct": not errors and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
