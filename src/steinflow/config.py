"""Flat-JSON experiment configuration: parsing, validation, defaults."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import targets as targets_mod
from .gaussian_flow import spd_cholesky
from .kernels import BilinearKernel, GaussianKernel
from .samplers import ALGORITHMS, KERNEL_ALGORITHMS, ConstantDamping, RestartNesterov, SamplerConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_config"]

KERNELS = ("gaussian", "bilinear")
DAMPINGS = ("restart", "constant")

class ConfigError(ValueError):
    """Raised for malformed or out-of-range experiment configurations."""


@dataclass
class ExperimentConfig:
    """Validated, fully-defaulted experiment description; ``target_q`` is a precision (inverse covariance)."""

    sampler: str = "asvgd"
    target: str = ""
    kernel: str = "gaussian"
    sigma2: float = 0.1
    a_matrix: list | None = None
    n_particles: int = 500
    n_steps: int = 1000
    tau: float = 0.1
    eps: float = 0.1
    seed: int = 0
    damping: str = "restart"
    beta: float = 0.9
    init_mean: list | None = None
    init_cov: list | None = None
    record_every: int = 10
    output_dir: str = "steinflow_out"
    target_mean: list | None = None
    target_q: list | None = None
    kl_method: str = "auto"

    def resolved(self) -> dict:
        """Plain-JSON view of every field, suitable for the run manifest."""
        return {key: getattr(self, key) for key in sorted(_FIELD_TYPES)}

    def build_target(self):
        if self.target == "gaussian":
            if self.target_mean is None or self.target_q is None:
                raise ConfigError("target 'gaussian' requires target_mean and target_q")
            b, q = self._array("target_mean"), self._array("target_q", ndmin=2)
            _require(b.ndim == 1, f"target_mean must be a flat list of numbers, got shape {b.shape}")
            _require(q.shape[0] == b.size, f"target_q must be {b.size}x{b.size} to match target_mean, got {q.shape}")
            try:
                spd_cholesky(q, "precision")  # rejects a q that is not square
                cov = np.linalg.inv(q)  # symmetric only to about cond(target_q) eps: take its symmetric part
                return targets_mod.GaussianTarget(b=b, q=0.5 * (cov + cov.T))
            except ValueError as exc:
                raise ConfigError(f"target_q: {exc}") from exc
        return targets_mod.builtin(self.target)

    def build_kernel(self, dim):
        if self.kernel == "gaussian":
            try:
                return GaussianKernel(self.sigma2)
            except ValueError as exc:
                raise ConfigError(f"sigma2: {exc}") from exc
        a = np.eye(dim) if self.a_matrix is None else self._array("a_matrix")
        _require(a.shape == (dim, dim), f"a_matrix must be {dim}x{dim}, got shape {a.shape}")
        try:
            return BilinearKernel(a)
        except ValueError as exc:
            raise ConfigError(f"a_matrix: {exc}") from exc

    def build_damping(self):
        if self.damping == "constant":
            try:
                return ConstantDamping(self.beta)
            except ValueError as exc:
                raise ConfigError(f"beta: {exc}") from exc
        return RestartNesterov()

    def build_sampler_config(self) -> SamplerConfig:
        """The run's ``SamplerConfig``; a Langevin sampler gets no kernel, so it never loads scipy."""
        target = self.build_target()
        return SamplerConfig(
            kernel=self.build_kernel(target.dim) if self.sampler in KERNEL_ALGORITHMS else None,
            target=target,
            tau=self.tau,
            eps=self.eps,
            damping=self.build_damping(),
            seed=self.seed,
            algorithm=self.sampler,
        )

    def initial_distribution(self, dim):
        mean = np.zeros(dim) if self.init_mean is None else self._array("init_mean")
        cov = np.eye(dim) if self.init_cov is None else self._array("init_cov", ndmin=2)
        _require(mean.shape == (dim,), f"init_mean must have {dim} entries, got {mean.shape}")
        _require(cov.shape == (dim, dim), f"init_cov must be {dim}x{dim}, got {cov.shape}")
        try:
            cov, chol = spd_cholesky(cov, "init_cov")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return mean, cov, chol

    def _array(self, key, ndmin=1):
        """The list-valued ``key`` as a float array, or a ConfigError that names the key."""
        value = getattr(self, key)
        if not _is_numeric(value):
            raise ConfigError(f"{key}: every entry must be a number")
        try:
            return np.array(value, dtype=float, ndmin=ndmin)
        except (ValueError, OverflowError) as exc:  # a ragged list, or an int too large for a float
            raise ConfigError(f"{key}: {exc}") from None


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
# what parse_config admits for each ExperimentConfig annotation: a description
# and the JSON value types, matched by type(v), not isinstance, so that a JSON
# true or false, a bool, is never an int
_JSON_TYPES = {
    "str": ("a string", (str,)),
    "int": ("an integer", (int,)),
    "float": ("a number", (int, float)),
    "list | None": ("a list or null", (list, type(None))),
}


def _is_numeric(value):
    """Whether ``value`` is a number or a list, nested to any depth, of numbers."""
    return type(value) in (int, float) or (type(value) is list and all(map(_is_numeric, value)))


def _fits_float(value):
    """Whether ``float(value)`` does not overflow (an int may be too large for a float)."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def decode_float(token):
    """The float of a JSON number or constant token; a ConfigError if it is not finite."""
    if not math.isfinite(value := float(token)):
        raise ConfigError(f"config value {token} is not a finite number")
    return value


def decode_int(token):
    """The int of a JSON integer token; a ConfigError if it has too many digits for Python's int()."""
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"config integer of {len(token.lstrip('-'))} digits is too long "
                          f"(limit {sys.get_int_max_str_digits()})") from None


def load_json(text):
    """The JSON value of ``text``, with every non-finite number and overlong integer a ConfigError."""
    try:
        return json.loads(text, parse_constant=decode_float, parse_float=decode_float, parse_int=decode_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat JSON configuration object.

    Unknown keys are rejected, and so are the tokens Infinity, -Infinity and
    NaN, float literals that overflow and integers too long for ``int()``;
    every key is checked against the type of its ``ExperimentConfig`` field (a
    JSON boolean is never a number, and an integer too large for a float is not
    a valid float key), and every numeric key is range-checked, with a
    key-specific message.  Only ``target`` has no default.
    """
    raw = load_json(text)
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = sorted(raw.keys() - _FIELD_TYPES.keys())
    _require(not unknown, f"unknown config key(s): {', '.join(unknown)}")
    _require("target" in raw, "missing required key 'target'")
    for key, value in raw.items():
        kind, types = _JSON_TYPES[_FIELD_TYPES[key]]
        _require(type(value) in types, f"{key} must be {kind}, got {json.dumps(value)}")
        _require(_FIELD_TYPES[key] != "float" or _fits_float(value),
                 f"{key} must be {kind}, got an integer too large for a float")

    cfg = ExperimentConfig(**raw)

    _require(cfg.sampler in ALGORITHMS,
             f"unknown sampler {cfg.sampler!r} (valid: {', '.join(ALGORITHMS)})")
    valid_targets = targets_mod.builtin_names() + ["gaussian"]
    _require(cfg.target in valid_targets,
             f"unknown target {cfg.target!r} (valid: {', '.join(valid_targets)})")
    _require(cfg.kernel in KERNELS,
             f"unknown kernel {cfg.kernel!r} (valid: {', '.join(KERNELS)})")
    _require(cfg.damping in DAMPINGS,
             f"unknown damping {cfg.damping!r} (valid: {', '.join(DAMPINGS)})")
    _require(cfg.tau > 0, "tau must be > 0")
    _require(cfg.eps >= 0, "eps must be >= 0")
    _require(not (cfg.sampler == "asvgd" and cfg.kernel == "bilinear" and cfg.eps == 0),
             "eps must be > 0 for sampler asvgd with the bilinear kernel: its Gram matrix has "
             "rank at most d + 1, so K + eps I is singular at eps = 0 once N > d + 1")
    _require(cfg.sigma2 > 0, "sigma2 must be > 0")
    _require(cfg.n_particles >= 2, "n_particles must be an integer >= 2: both KL metrics need two particles")
    _require(cfg.n_steps >= 0, "n_steps must be a nonnegative integer")
    _require(cfg.record_every >= 1, "record_every must be a positive integer")
    _require(0.0 <= cfg.beta < 1.0, "beta must lie in [0, 1)")
    _require(cfg.kl_method == "auto", "kl_method must be auto: the KL metric follows the target (the Gaussian-fit "
                                      "KL on a Gaussian target, else the 1-nearest-neighbour estimate)")

    # construction of the derived objects performs matrix-level validation
    sampler_cfg = cfg.build_sampler_config()
    if cfg.kernel == "bilinear" and sampler_cfg.kernel is None:
        cfg.build_kernel(sampler_cfg.target.dim)  # checks a_matrix for a Langevin sampler too
    cfg.initial_distribution(sampler_cfg.target.dim)
    return cfg
