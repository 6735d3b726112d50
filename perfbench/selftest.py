"""Self-test of the span tracer; exits non-zero on the first failed check.

    PYTHONPATH=src python3 perfbench/selftest.py '{"workdir": "perfbench/out/selftest"}'

Checks that self time is total minus children on a synthetic nested call,
that spans of concurrent threads never mix, that the spans of a real
``run_sweep`` stay in their worker threads, and that ``uninstall`` leaves no
wrapper on any steinflow function.
"""

import json
import shutil
import sys
import threading

from tracer import Tracer, installed_wrappers, instrument


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def check(cond, message):
    if not cond:
        raise SystemExit(f"tracer self-test: {message}")


def nested_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):
        clock.now += 2.0
        with tracer.span("inner"):
            clock.now += 1.0
        with tracer.span("inner"):
            clock.now += 0.5
        clock.now += 3.0
    check(tracer.spans["outer"] == [1, 6.5, 5.0], f"outer span {tracer.spans['outer']}")
    check(tracer.spans["inner"] == [2, 1.5, 1.5], f"inner spans {tracer.spans['inner']}")


def threads_do_not_mix():
    tracer = Tracer()
    barriers = [threading.Barrier(2, timeout=10) for _ in range(4)]

    def nested():
        with tracer.span("outer"):
            barriers[0].wait()
            with tracer.span("inner"):
                barriers[1].wait()
                barriers[2].wait()
            barriers[3].wait()

    def solo():
        barriers[0].wait()
        with tracer.span("solo"):
            barriers[1].wait()
            barriers[2].wait()
            barriers[3].wait()

    threads = [threading.Thread(target=nested), threading.Thread(target=solo)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
        check(not t.is_alive(), "thread did not finish")
    calls, total, self_s = tracer.spans["solo"]
    check(self_s == total, "a span of another thread was counted as a child of 'solo'")
    outer, inner = tracer.spans["outer"], tracer.spans["inner"]
    check(abs(outer[2] - (outer[1] - inner[1])) < 1e-9, "outer self time is not total minus inner")


def sweep_spans_stay_in_workers(workdir):
    from steinflow import config, experiment, kernels

    cfg = config.parse_config(json.dumps({
        "sampler": "mala", "target": "double-bananas", "n_particles": 20, "n_steps": 4,
        "record_every": 2, "output_dir": workdir}))
    original_gram = kernels.gram
    tracer = Tracer()
    instrument(tracer)
    try:
        experiment.run_sweep(cfg, "tau", [0.01, 0.02], max_workers=2)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    calls, total, self_s = tracer.spans["experiment.run_sweep"]
    parse_s = tracer.total("config.parse_config")
    check(abs(self_s - (total - parse_s)) < 1e-9,
          "run_sweep counted worker-thread spans as its children")
    check(tracer.calls("experiment.run_experiment") == 2, "expected two traced sweep jobs")
    check(all(v[2] >= -1e-9 for v in tracer.spans.values()), "negative self time")
    check(kernels.gram is original_gram, "uninstall did not restore kernels.gram")
    check(not installed_wrappers(), f"wrappers left installed: {installed_wrappers()}")


def main():
    spec = json.loads(sys.argv[1])
    nested_self_time()
    threads_do_not_mix()
    sweep_spans_stay_in_workers(spec["workdir"])
    print(json.dumps({"ok": True}))


if __name__ == "__main__":
    main()
