"""One benchmark operation in a fresh interpreter.

    python3 perfbench/op.py '<json spec>'

The spec names a mode:

* ``setup``: import steinflow, parse the config, build the sampler config;
* ``run`` / ``sweep``: the same set-up, then ``experiment.run_experiment`` or
  ``experiment.run_sweep`` on the config, optionally traced;
* ``grid``: per-call timings of single layers over a grid of sizes.

Prints one JSON object.  ``ready`` is ``time.monotonic()`` right after set-up,
which the parent compares with its own clock reading taken before the spawn.
"""

import json
import resource
import sys
import time


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(spec, trace=False):
    t0 = time.perf_counter()
    import steinflow  # noqa: F401
    from steinflow import config

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    cfg = config.parse_config(json.dumps(spec["config"]))
    cfg.build_sampler_config()
    return cfg, tracer, {"ready": time.monotonic(), "import_s": import_s}


def _layer_metrics(tracer, setup_spans):
    counters = tracer.counters
    step_calls = tracer.calls("samplers.asvgd_step")
    job_cpu_s = counters.get("experiment.run_experiment.cpu_s", 0.0)
    sweep_s = tracer.total("experiment.run_sweep")
    return {
        "spans": tracer.spans,
        "setup_spans": setup_spans,
        "missing": tracer.missing,
        "kernels.gram.bytes": counters.get("kernels.gram.bytes", 0.0),
        "samplers.asvgd_step.reset_fraction":
            counters.get("samplers.asvgd_step.reset_sum", 0.0) / step_calls if step_calls else 0.0,
        "job_cpu_s": job_cpu_s,
        "sweep_s": sweep_s,
    }


def run(spec):
    cfg, tracer, out = _setup(spec, spec["trace"])
    from steinflow import experiment

    if tracer is not None:
        # spans of the run alone, so their self times add up to its run_s
        setup_spans, tracer.spans = tracer.spans, {}
    t0 = time.perf_counter()
    if spec["mode"] == "sweep":
        experiment.run_sweep(cfg, spec["param"], spec["values"], max_workers=spec["workers"])
    else:
        experiment.run_experiment(cfg)
    out["run_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, setup_spans)
        tracer.uninstall()
    from tracer import installed_wrappers

    out["wrappers"] = installed_wrappers()
    return out


def _median_call_ms(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e3 * times[len(times) // 2]


def grid(spec):
    """Per-call ms of kernels.gram, the samplers' Cholesky solve and one asvgd_step."""
    import numpy as np
    import scipy.linalg

    from steinflow import kernels, samplers
    from steinflow.targets import GaussianTarget

    rng = np.random.default_rng(spec["seed"])
    eps = 0.1
    out = {}
    for n in spec["sizes"]:
        for d in spec["dims"]:
            repeats = 3 if n >= 2000 else 5
            x = rng.standard_normal((n, d))
            kernel = kernels.GaussianKernel(float(d))
            cfg = samplers.SamplerConfig(kernel=kernel, target=GaussianTarget(np.zeros(d), np.eye(d)),
                                         tau=0.02, eps=eps)
            ens = samplers.ParticleEnsemble.initialize(x)
            ens.y = 0.1 * rng.standard_normal((n, d))
            k_eps = kernels.gram(kernel, x).k + eps * np.eye(n)

            def solve():
                factor = scipy.linalg.cho_factor(k_eps, check_finite=False)
                return scipy.linalg.cho_solve(factor, ens.y, check_finite=False)

            key = f"N{n}.d{d}"
            out[f"grid.kernels.gram.ms.{key}"] = _median_call_ms(lambda: kernels.gram(kernel, x), repeats)
            out[f"grid.samplers.solve.ms.{key}"] = _median_call_ms(solve, repeats)
            out[f"grid.samplers.asvgd_step.ms.{key}"] = _median_call_ms(
                lambda: samplers.asvgd_step(ens, cfg), repeats)
    return out


def main():
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    if mode == "setup":
        out = _setup(spec)[2]
    elif mode in ("run", "sweep"):
        out = run(spec)
    elif mode == "grid":
        out = grid(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
