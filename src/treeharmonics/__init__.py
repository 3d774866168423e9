"""Spherical harmonic analysis on homogeneous trees.

Tree geometry and horocyclic census, the spherical transform and its
inversion, the Abel transform, convolutor-norm machinery on the integers,
and a certified two-sided bounds engine for radial convolutors, with a
command-line front end (``treeharm``).

Submodules are imported lazily, so that importing the package (in
particular for the command line's help and argument errors) does not pay
for loading numpy and the numerical modules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # params
    "TreeParams": ".params",
    "tree_params": ".params",
    "DomainError": ".params",
    "ScopeError": ".params",
    "SoundnessError": ".params",
    "check_exponent": ".params",
    "dual_exponent": ".params",
    "strip_halfwidth": ".params",
    "torus_grid": ".params",
    "check_grid": ".params",
    "POLE_GUARD": ".params",
    # spherical
    "RadialKernel": ".spherical",
    "TorusSymbol": ".spherical",
    "radial_kernel": ".spherical",
    "delta_kernel": ".spherical",
    "ball_kernel": ".spherical",
    "sphere_kernel": ".spherical",
    "sphere_sizes": ".spherical",
    "c_function": ".spherical",
    "c_inverse": ".spherical",
    "c_inverse_shifted": ".spherical",
    "spherical_function": ".spherical",
    "spectral_eigenvalue": ".spherical",
    "spherical_transform": ".spherical",
    "spherical_transform_at": ".spherical",
    "inverse_spherical_transform": ".spherical",
    # tree
    "TreeBall": ".tree",
    "ball_geometry": ".tree",
    "census_cells": ".tree",
    "shell_masses": ".tree",
    "haar_residual": ".tree",
    "opnorm_lower": ".tree",
    # abel
    "abel_forward": ".abel",
    "abel_inverse": ".abel",
    "abel_bruteforce": ".abel",
    "horocycle_slice_sum": ".abel",
    # zline
    "ZKernel": ".zline",
    "zkernel": ".zline",
    "fourier_z": ".zline",
    "inverse_fourier_z": ".zline",
    "NormInterval": ".zline",
    "convolutor_upper": ".zline",
    "convolutor_interval": ".zline",
    "hinf_strip_norm": ".zline",
    "truncate": ".zline",
    "truncation_bound": ".zline",
    "hilbert_witness": ".zline",
    "lp_norm": ".zline",
    "DICTIONARY_VERSION": ".zline",
    # engine
    "line_profile": ".engine",
    "negative_height_bound": ".engine",
    "nonnegative_height_bound": ".engine",
    "spectral_sup": ".engine",
    "tree_norm_upper": ".engine",
    "tree_norm_lower": ".engine",
    "symbol_norm_report": ".engine",
    "transference_check": ".engine",
    "BoundsReport": ".engine",
    "bounds_report": ".engine",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
