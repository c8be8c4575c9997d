"""Zero counting and location for the harmonic family z^m + c(z^k + conj(z)^k) - 1.

All zeros of a family member lie on the 2m rays at angles j*pi/m; the
package classifies each ray exactly, counts its zeros as a function of the
positive parameter c (including the critical values where pairs appear or
disappear), locates every zero from guaranteed brackets, and cross-checks
the whole construction against a ray-agnostic planar grid oracle.
"""
from .family import *
from .unity import *
from .rays import *
from .predict import *

__version__ = "0.1.0"

# the public names of roots and oracle, which each module binds as its __all__:
# counting needs neither the root finder nor the grid oracle, so __getattr__
# loads each module on first use of one of its names (PEP 562)
_DEFERRED = {
    "roots": [
        "Tolerances", "ZeroRecord", "BracketFailure", "DegenerateTangency", "evaluate", "f_value", "f_derivative",
        "bracket", "solve_ray", "all_zeros",
    ],
    "oracle": ["OracleResult", "ComparisonReport", "ResolutionTooCoarse", "find_zeros_grid", "compare"],
}

# each module's __all__ is its share of the public API
__all__ = family.__all__ + unity.__all__ + rays.__all__ + _DEFERRED["roots"] + predict.__all__ + _DEFERRED["oracle"]
__all__ += ["__version__"]


def __getattr__(name):
    for module, names in _DEFERRED.items():
        if name in names:
            from importlib import import_module

            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
