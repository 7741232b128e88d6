"""Exact local volumes of divisors and singularity invariants.

Everything is computed in exact arithmetic: rational numbers throughout,
with real quadratic irrationals where pseudo-effective thresholds demand
them.  The toric and monomial layers sit on a rational polyhedral kernel
(vertex/facet enumeration by double description, volumes and lattice
counts of bounded differences of nested polyhedra); the surface and cone
layers on exact linear algebra, reading a generated pseudo-effective cone
through its facet normals from the same double description.

Importing the package loads no submodule: each exported name is imported
from its home module on first access (PEP 562), so a caller compiles only
the layers it uses.
"""

import importlib

__version__ = "0.1.0"


class LocvolError(Exception):
    """Base of every computational failure the kernel layers raise."""


# home module of every exported name, in the order of __all__
_EXPORTS = {
    "exactnum": ("QuadraticNumber", "compare_cbrt_sum", "format_decimal"),
    "geometry": ("Halfspace", "Polyhedron", "VRep", "volume_bounded",
                 "volume_of_difference"),
    "toric": ("PointedCone", "ToricDatum", "ToricDivisor", "divisor_polyhedra",
              "effectivity_vanishing_check", "fujita_sequence", "h1_sequence",
              "local_volume_toric"),
    "monomial": ("MonomialIdeal", "asymptotic_multiplicity", "h1_dim",
                 "multiplicity_sequence", "power", "saturation"),
    "surface": ("DualGraph", "SurfaceLattice", "divisor_local_volume",
                "log_canonical_intersections", "projective_volume",
                "singularity_volume", "zariski_decompose"),
    "cone": ("AbelianCover", "Curve", "LatticeModel", "PiecewisePoly", "ProjSpace",
             "bdff_cone_volume", "cone_gamma_volume", "cone_singularity_volume",
             "lambda_sequence", "volume_function"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
