"""steinflow: momentum-accelerated kernel particle samplers, Langevin baselines,
and the analytic Gaussian-dynamics layer that validates them."""

from .config import ExperimentConfig, parse_config
from .diagnostics import empirical_moments, kl_estimate
from .experiment import analyze_spectrum, run_experiment, run_sweep
from .gaussian_flow import (
    AcceleratedGaussianState,
    GaussianState,
    asvgd_gaussian_rhs,
    closed_form_sigma,
    gamma_rate,
    integrate_rk4,
    kl_gaussians,
    svgd_gaussian_rhs,
)
from .kernels import BilinearKernel, GaussianKernel, GramMatrix, gram
from .samplers import (
    ConstantDamping,
    ParticleEnsemble,
    RestartNesterov,
    SamplerConfig,
    asvgd_step,
    mala_step,
    run,
    step,
    svgd_step,
    ula_step,
    uld_step,
)
from .spectral import (
    asvgd_linearized_spectrum,
    asvgd_rates,
    eigs_1d,
    optimal_a_svgd,
    optimal_damping,
    svgd_linearized_matrix,
)
from .targets import (
    CustomTarget,
    DoubleBananasTarget,
    GaussianTarget,
    QuarticTarget,
    builtin,
    builtin_names,
)

__version__ = "0.1.0"
