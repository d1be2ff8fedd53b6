"""Numerical construction and verification of separable singular profiles
for a family of quasilinear reaction equations in the plane.

The reduced profile equation is studied as a phase-plane flow: constants and
reductions live in :mod:`seplane.params`, coordinate charts of the vector
field in :mod:`seplane.fields`, time stepping in :mod:`seplane.integrate`,
orbit classification and conserved quantities in :mod:`seplane.orbits`,
period functions in :mod:`seplane.periods`, and the assembled solution sets
in :mod:`seplane.solutions`.
"""

from .errors import (
    DegenerateCriticalError,
    DomainError,
    InconclusiveOrbitError,
    IntegrationError,
    MaxStepsError,
    NoCrossingError,
    OutOfRangeError,
    SeplaneError,
    SingularFieldError,
    SingularOriginError,
    StepUnderflowError,
)
from .fields import (
    check_scaling_conditions,
    field_cartesian,
    field_p1_cartesian,
    field_p1_slope,
    field_polar,
    field_regularized,
    field_slope,
)
from .integrate import EventSpec, IntegratorConfig, TrajEvent, Trajectory, integrate
from .orbits import (
    CLOSED_AROUND_CENTER,
    CLOSED_AROUND_ORIGIN,
    DEGENERATE_CRITICAL,
    HOMOCLINIC,
    HomoclinicOrbit,
    OrbitClass,
    classify_orbit,
    conserved_quantity,
    first_integral,
    first_integral_p1,
    first_integral_u,
    shoot_homoclinic,
)
from .params import (
    Nonlinearity,
    ProblemParams,
    ReducedParams,
    angular_eigenvalue,
    critical_potential,
    damping_coefficient,
    decay_exponent,
    invert_slope_potential,
    lift_profile,
    mode_threshold_zero_c,
    reduce_params,
    reduced_nonlinearity,
    slope_map,
    slope_map_deriv,
    slope_map_inv,
    slope_map_primitive,
    slope_potential,
    slope_potential_min,
    stationary_abscissa,
)
from .periods import (
    ModeBounds,
    PeriodLimits,
    PeriodSample,
    ScanResult,
    find_amplitude_for_period,
    mode_bounds,
    mode_threshold,
    period_infimum_p1,
    period_limits,
    period_positive,
    period_positive_p1,
    period_scan,
    period_sign_changing,
    period_zero_amplitude_closed,
    period_zero_amplitude_limit,
)
from .solutions import (
    AngularProfile,
    ModeEntry,
    ResidualReport,
    SectorReport,
    SolutionSet,
    build_solution_set,
    p1_explicit,
    reduced_residual_report,
    sector_exists,
    verify_profile,
)

__version__ = "0.1.0"
