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
from .roots import *
from .predict import *

__version__ = "0.1.0"

# oracle.__all__: only verify needs the oracle, so __getattr__ loads it on first use (PEP 562)
_ORACLE = ["OracleResult", "ComparisonReport", "ResolutionTooCoarse", "find_zeros_grid", "compare"]

# each module's __all__ is its share of the public API
__all__ = family.__all__ + unity.__all__ + rays.__all__ + roots.__all__ + predict.__all__ + _ORACLE
__all__ += ["__version__"]


def __getattr__(name):
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ORACLE})
