"""Versioned table of every numeric default used across the package.

One flat dict, printed verbatim by ``dblab defaults``.  Every tolerance,
threshold and grid the package uses comes from here or from a constant in
the module that uses it.  A few calls take an argument that some caller
sets (a mean-type radius grid, the quadrature ``rel_tol``, a series term
budget, the Herglotz ``delta``); left out, it falls back to this table.  Bump ``version`` whenever a value changes so
runs are comparable.
"""

from __future__ import annotations

import math

DEFAULTS: dict = {
    "version": 1,
    # expression evaluation
    "pole_exclusion_scale": 1e-9,        # exclusion radius = scale * (1 + |z|)
    "max_series_terms": 4_000_000,       # per canonical-product / partial-fraction node
    # Cauchy-circle derivatives
    "derivative_radius_scale": 1e-3,     # radius = scale * (1 + |z|)
    "derivative_nodes": 64,
    # reproducing kernel
    "kernel_diagonal_switch": 1e-6,      # switch to Taylor form when |wbar - z| < switch*(1+|z|)
    # quadrature over the real line
    "quad_core_halfwidth": 16.0,
    "quad_panel_length": 1.5,
    "quad_rel_tol": 1e-7,
    "quad_abs_tol": 1e-9,
    "quad_max_halfwidth": 2.0**21,
    "quad_fit_octaves": 4,
    "quad_divergence_slope": -0.05,      # octave-sum log-log slope at/above this => integrand tail >= t^-1.05
    # mean type estimation
    "meantype_radii": (1.0, 1.0e4, 48),  # geometric grid (rmin, rmax, count); slope fit uses upper half
    "meantype_tiny": 1e-300,
    # membership
    "membership_tol": 5e-3,
    # sampled domains
    "grid_ratio": 1.05,
    "grid_rmax": 1.0e4,
    # majorization verdicts
    "zero_divisor_exclusion": 1e-3,
    "slope_majorized": 0.02,
    "slope_not_majorized": 0.10,
    "sup_ratio_cap": 1e8,
    # Herglotz extraction
    "herglotz_delta": 1e-4,
    "herglotz_delta_probes": (1e-3, 1e-4, 1e-5),
    "herglotz_mass_stability": 0.01,     # point mass accepted when delta*|q| varies < 1%
    "herglotz_fit_y": (1.0e2, 1.0e6, 25),
    # weak type estimates
    "weak_type_constant": math.pi * math.sqrt(2.0) * (1.0 + math.e),
    "weak_type_bisect_tol": 1e-8,
    # shipped truncation defaults
    "truncation_a38": 1_000_000,
    "truncation_a41": 100_000,
    "truncation_a45": 100_000,
}
