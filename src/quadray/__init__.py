"""Computational dynamics of quadratic polynomials z^2 + c: periodic orbits,
external rays, orbit portraits, geometric pressure and orbit-bunch statistics.
An export imports its module on first use (PEP 562): a command loads only what it runs."""

import importlib

__version__ = "0.1.0"
#: exported name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "angles": "Angle ContinuedFractionReport OrbitPortrait PortraitClassification PortraitReport"
              " angle_period bryuno_sums bryuno_sums_from_quotients classify_portrait"
              " cyclic_order_preserved periodic_angles unlinked validate_formal_portrait",
    "bunches": "BunchReport DiscPattern DistortionReport PatternCountReport orbit_metric"
               " count_orbits_in_disc_pattern count_orbits_near_point distortion_ratio"
               " verify_hypothesis_h",
    "dynamics": "DEFAULT_CONFIG PrecisionConfig QuadraticMap green_potential",
    "errors": "AmbiguousOrbitError BranchPointError EscapeError IncompleteEnumerationError"
              " PortraitError PrecisionError QuadrayError",
    "orbits": "FixedPoints IterateRoots PeriodicOrbit alpha_beta_fixed_points"
              " fixed_points_of_iterate group_into_orbits julia_orbits",
    "pressure": "PressureCurve PressureEstimate default_tree_basepoint periodic_pressure_estimate"
                " pressure_comparison tree_pressure_estimate",
    "rays": "CircleOrderReport LandingEstimate RayTrace TruncatedRay circle_exit_cyclic_order"
            " estimate_landing portrait_at_orbit ray_point trace_ray trace_rays",
}.items() for name in names.split()}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # never stored in globals(), where a bench/tracing.py wrapper would outlive uninstall()
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
