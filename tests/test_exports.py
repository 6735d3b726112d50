import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import steinflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(steinflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"steinflow.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"duplicate names in steinflow.{name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"steinflow.{name}.__all__ names missing attributes: {missing}"


# Run in a fresh interpreter: this test process has scipy loaded already.
_IMPORT_CHECK = """
import json, sys
from pathlib import Path

def check(where):
    assert "scipy" not in sys.modules, f"scipy is loaded after {where}"
    # np.unique and np.quantile import numpy.ma on their first call
    assert "numpy.ma" not in sys.modules, f"numpy.ma is loaded after {where}"

import steinflow
check("import steinflow")
out = Path(sys.argv[1])
base = {"target": "gauss-correlated", "n_particles": 20, "n_steps": 2, "record_every": 1}
configs = {
    "mala": {"sampler": "mala"},
    "bilinear": {"kernel": "bilinear"},
    "analyze": {"kernel": "bilinear", "sampler": "mala"},
}
parsed = {}
for name, raw in configs.items():
    parsed[name] = steinflow.parse_config(json.dumps({**base, **raw, "output_dir": str(out / name)}))
    check(f"parse_config of the {name} config")
for name in ("mala", "bilinear"):
    steinflow.run_experiment(parsed[name])
    check(f"run_experiment of the {name} config")
steinflow.analyze_spectrum(parsed["analyze"])
check("analyze_spectrum")

def check_wrappers_only(where):
    # a Gaussian kernel loads scipy's LAPACK and BLAS wrapper modules alone:
    # importing scipy.linalg would pull in scipy._lib._array_api, numpy.f2py and numpy.testing
    assert steinflow.kernels._load_lapack_blas.cache_info().currsize == 1, f"no wrappers loaded after {where}"
    for name in ("scipy", "scipy.linalg", "scipy._lib._array_api", "numpy.f2py", "numpy.testing", "numpy.ma"):
        assert name not in sys.modules, f"{name} is loaded after {where}"

gaussian = {**base, "kernel": "gaussian"}
steinflow.parse_config(json.dumps(gaussian))
check_wrappers_only("parse_config of a Gaussian-kernel config")
for sampler in ("asvgd", "svgd"):
    cfg = {**gaussian, "sampler": sampler, "output_dir": str(out / f"gaussian-{sampler}")}
    steinflow.run_experiment(steinflow.parse_config(json.dumps(cfg)))
    check_wrappers_only(f"run_experiment of the Gaussian {sampler} config")

# a later import of scipy.linalg binds both wrapper modules, with the very routines the kernel calls
import scipy.linalg
lapack, blas = steinflow.kernels._lapack_blas()
assert hasattr(scipy.linalg, "_flapack") and hasattr(scipy.linalg, "_fblas")
assert scipy.linalg.lapack.dpotrf is lapack.dpotrf and scipy.linalg.blas.dsymm is blas.dsymm
"""


def test_scipy_loads_only_with_the_gaussian_kernel(tmp_path):
    src = str(Path(steinflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CHECK, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
