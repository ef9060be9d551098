"""Computational dynamics of quadratic polynomials z^2 + c: periodic orbits,
external rays, orbit portraits, geometric pressure and orbit-bunch statistics."""

__version__ = "0.1.0"

from .angles import (Angle, ContinuedFractionReport, OrbitPortrait,
                     PortraitClassification, PortraitReport, angle_period,
                     bryuno_sums, bryuno_sums_from_quotients, classify_portrait,
                     cyclic_order_preserved, periodic_angles, unlinked,
                     validate_formal_portrait)
from .bunches import (BunchReport, DiscPattern, DistortionReport,
                      PatternCountReport, count_orbits_in_disc_pattern,
                      count_orbits_near_point, distortion_ratio, orbit_metric,
                      verify_hypothesis_h)
from .dynamics import (DEFAULT_CONFIG, PrecisionConfig, QuadraticMap,
                       green_potential)
from .errors import (AmbiguousOrbitError, BranchPointError, EscapeError,
                     IncompleteEnumerationError, PortraitError, PrecisionError,
                     QuadrayError)
from .orbits import (FixedPoints, IterateRoots, PeriodicOrbit,
                     alpha_beta_fixed_points, fixed_points_of_iterate,
                     group_into_orbits, julia_orbits)
from .pressure import (PressureCurve, PressureEstimate,
                       default_tree_basepoint, periodic_pressure_estimate,
                       pressure_comparison, tree_pressure_estimate)
from .rays import (CircleOrderReport, LandingEstimate, RayTrace, TruncatedRay,
                   circle_exit_cyclic_order, estimate_landing,
                   portrait_at_orbit, ray_point, trace_ray, trace_rays)
