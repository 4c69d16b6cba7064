"""Coefficient calculus for signature-driven and polynomial diffusions:
truncated tensor algebra, path signatures, Riccati/transport/linear schemes
and Monte-Carlo cross-checks."""

from .tensor import Partition, TensorCoeffs, word_index, index_word
from .signature import PiecewisePath, path_signature, segment_signature, time_extend, is_grouplike
from .operators import (
    SdeSpec,
    R_op,
    linear_matrix,
    brownian_spec,
    black_scholes_spec,
    expected_signature_matrix,
)
from .powerseries import (
    Model1D,
    R_pow,
    exp_conv,
    linear_matrix_1d,
    to_factorial_basis,
)
from .schemes import (
    SchemeConfig,
    Trajectory,
    ode_integrate,
    scheme1_riccati,
    scheme2_transport,
    scheme3_linear,
    expected_signature,
    matrix_exp,
)
from .montecarlo import (
    SimConfig,
    McEstimate,
    estimate,
    simulate_sigsde,
    gauss_hermite_expectation,
)

__version__ = "0.1.0"
