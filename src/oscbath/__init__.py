"""Relaxation and decoherence of a harmonic oscillator in bosonic baths.

Two cross-validating solvers for the same physics:

* :mod:`oscbath.cumulant` -- Gaussian branch dynamics (first/second
  cumulants of the normally ordered characteristic function), exact for
  coherent states and their superpositions under linear coupling; the
  same module holds the closed-form Markov solution and the exact
  early-time variance the tests and acceptance criteria compare against;
* :mod:`oscbath.fock` -- truncated number-basis density-matrix
  integrator, the independent oracle and the only solver for the
  two-quantum bath.

:mod:`oscbath.bath` holds the bath models and relaxation functions,
:mod:`oscbath.wavepacket` the coordinate densities and interference
diagnostics, :mod:`oscbath.scenarios` the figure presets and CLI runner.
"""

from .bath import (
    BathModel,
    DiscreteModes,
    EarlyTime,
    LinearMarkov,
    Mode,
    QuadraticMarkov,
    RelaxationCoefficients,
    bose_occupation,
    flat_comb,
    gamma_functions,
    relaxation_coefficients,
)
from .cumulant import (
    Branch,
    BranchCumulants,
    SuperpositionState,
    analytic_markov,
    coherent_state,
    evolve_cumulants,
    evolve_superposition,
    make_cat,
)
from .errors import ConfigError, IntegrationError, TruncationError
from .fock import (
    DissipatorKind,
    FockDensityMatrix,
    FockTrajectory,
    LinearNonRWA,
    LinearRWA,
    QuadraticLindblad,
    QuadraticLiteral,
    TimeDependent,
    build_ladder,
    cat_density_matrix,
    coherent_density_matrix,
    integrate,
    number_state_density_matrix,
    observables,
    position_density,
    propagate,
)
from .wavepacket import (
    WavepacketFrame,
    branch_density,
    decoherence_rate,
    density_frame,
    fit_interference_decay,
    interference_term,
    significance_ratio,
)

__version__ = "0.1.0"
