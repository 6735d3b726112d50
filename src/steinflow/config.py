"""Flat-JSON experiment configuration: parsing, validation, defaults."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from . import targets as targets_mod
from .kernels import BilinearKernel, GaussianKernel
from .samplers import ALGORITHMS, ConstantDamping, RestartNesterov, SamplerConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_config"]

KERNELS = ("gaussian", "bilinear")
DAMPINGS = ("restart", "constant")

class ConfigError(ValueError):
    """Raised for malformed or out-of-range experiment configurations."""


@dataclass
class ExperimentConfig:
    """Validated, fully-defaulted experiment description."""

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
    use_speed_restart: bool = True
    use_gradient_restart: bool = True
    restart_offset: float = 3.0
    init_mean: list | None = None
    init_cov: list | None = None
    record_every: int = 10
    output_dir: str = "steinflow_out"
    q_is_precision: bool = True
    target_mean: list | None = None
    target_q: list | None = None
    kl_method: str = "auto"
    alg2_literal: bool = False

    def resolved(self) -> dict:
        """Plain-JSON view of every field, suitable for the run manifest."""
        out = {}
        for key in sorted(_KNOWN_KEYS):
            val = getattr(self, key)
            if isinstance(val, np.ndarray):
                val = val.tolist()
            out[key] = val
        return out

    def build_target(self):
        if self.target == "gaussian":
            if self.target_mean is None or self.target_q is None:
                raise ConfigError("target 'gaussian' requires target_mean and target_q")
            q = np.atleast_2d(np.asarray(self.target_q, dtype=float))
            if self.q_is_precision:
                q = np.linalg.inv(q)
            try:
                return targets_mod.GaussianTarget(b=np.asarray(self.target_mean, float), q=q)
            except ValueError as exc:
                raise ConfigError(f"target_q: {exc}") from exc
        return targets_mod.builtin(self.target, q_is_precision=self.q_is_precision)

    def build_kernel(self, dim):
        if self.kernel == "gaussian":
            try:
                return GaussianKernel(self.sigma2)
            except ValueError as exc:
                raise ConfigError(f"sigma2: {exc}") from exc
        a = np.eye(dim) if self.a_matrix is None else np.asarray(self.a_matrix, dtype=float)
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
        return RestartNesterov(
            use_speed=self.use_speed_restart,
            use_gradient=self.use_gradient_restart,
            r=self.restart_offset,
        )

    def build_sampler_config(self) -> SamplerConfig:
        target = self.build_target()
        return SamplerConfig(
            kernel=self.build_kernel(target.dim),
            target=target,
            tau=self.tau,
            eps=self.eps,
            damping=self.build_damping(),
            seed=self.seed,
            algorithm=self.sampler,
            alg2_literal=self.alg2_literal,
        )

    def initial_distribution(self, dim):
        mean = np.zeros(dim) if self.init_mean is None else np.asarray(self.init_mean, float)
        cov = np.eye(dim) if self.init_cov is None else np.atleast_2d(np.asarray(self.init_cov, float))
        if mean.shape != (dim,):
            raise ConfigError(f"init_mean must have {dim} entries, got {mean.shape}")
        if cov.shape != (dim, dim):
            raise ConfigError(f"init_cov must be {dim}x{dim}, got {cov.shape}")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigError("init_cov must be positive definite") from None
        return mean, cov, chol


_KNOWN_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _reject_constant(token):
    raise ConfigError(f"config value {token} is not a finite number")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat JSON configuration object.

    Unknown keys are rejected, and so are the tokens Infinity, -Infinity and
    NaN; every numeric field is type- and range-checked with a key-specific
    message, and a JSON boolean is not a number.  Only ``target`` has no default.
    """
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    _require(not unknown, f"unknown config key(s): {', '.join(unknown)}")
    _require("target" in raw, "missing required key 'target'")

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
    # type(v), not isinstance: a JSON true or false is a bool, which is an int
    real = (int, float)
    _require(type(cfg.tau) in real and cfg.tau > 0, "tau must be > 0")
    _require(type(cfg.eps) in real and cfg.eps >= 0, "eps must be >= 0")
    _require(not (cfg.sampler == "asvgd" and cfg.kernel == "bilinear" and cfg.eps == 0),
             "eps must be > 0 for sampler asvgd with the bilinear kernel: its Gram matrix has "
             "rank at most d + 1, so K + eps I is singular at eps = 0 once N > d + 1")
    _require(not cfg.alg2_literal or (cfg.sampler == "svgd" and cfg.kernel == "gaussian"),
             "alg2_literal applies only to sampler svgd with the gaussian kernel: it moves the "
             "1/sigma2 factor of the plain Gaussian-kernel update, and every other step ignores it")
    _require(type(cfg.sigma2) in real and cfg.sigma2 > 0, "sigma2 must be > 0")
    _require(type(cfg.n_particles) is int and cfg.n_particles >= 2,
             "n_particles must be an integer >= 2: both KL metrics need two particles")
    _require(type(cfg.n_steps) is int and cfg.n_steps >= 0,
             "n_steps must be a nonnegative integer")
    _require(type(cfg.record_every) is int and cfg.record_every >= 1,
             "record_every must be a positive integer")
    _require(type(cfg.seed) is int, "seed must be an integer")
    _require(type(cfg.beta) in real and 0.0 <= cfg.beta < 1.0, "beta must lie in [0, 1)")
    _require(type(cfg.restart_offset) in real and cfg.restart_offset >= 3.0,
             "restart_offset must be a number >= 3")
    _require(cfg.kl_method in ("auto", "gaussian-fit", "kde"),
             "kl_method must be auto, gaussian-fit or kde")

    # construction of the derived objects performs matrix-level validation
    sampler_cfg = cfg.build_sampler_config()
    _require(cfg.kl_method != "gaussian-fit" or isinstance(sampler_cfg.target, targets_mod.GaussianTarget),
             f"kl_method gaussian-fit needs a Gaussian target, and {cfg.target!r} is not one "
             "(the metric is the closed-form KL between the moment-fitted Gaussian and the "
             "target); use kde or auto")
    cfg.initial_distribution(sampler_cfg.target.dim)
    return cfg
