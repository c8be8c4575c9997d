"""The public surface: rayzeros.__all__ is the union of the modules' __all__ lists."""
from __future__ import annotations

import pathlib
import re
import sys
from itertools import combinations

import pytest

import rayzeros
from rayzeros import family, oracle, predict, rays, roots, unity

MODULES = (family, unity, rays, roots, predict, oracle)

# changing the public API means editing this list
PUBLIC = {
    "BracketFailure", "ComparisonReport", "CountPrediction", "CountProfile", "DegenerateTangency",
    "DegreeOrderError", "FamilyParams", "NonCoprimeError", "NonPositiveCError", "OracleResult",
    "ParameterError", "ParityCensus", "PoleAtOriginError", "RayAnalysis", "RayCase", "RayDescriptor",
    "RayIndexError", "ResolutionTooCoarse", "Sign", "Threshold", "Tolerances", "ZeroKError", "ZeroRecord",
    "all_zeros", "analyze_ray", "bracket", "census", "classify_ray", "compare", "count_at",
    "degenerate_at", "evaluate", "extremum_radius", "f_derivative", "f_value", "find_zeros_grid",
    "group_order", "positive_halfplane_count", "predict_at", "predict_census", "predict_table",
    "solve_ray", "thresholds", "validate", "__version__",
}


def test_public_names_are_pinned():
    assert len(PUBLIC) == 45
    assert len(rayzeros.__all__) == 45
    assert set(rayzeros.__all__) == PUBLIC


def test_module_shares_are_disjoint_and_cover_the_package():
    for a, b in combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)
    assert [n for mod in MODULES for n in mod.__all__] + ["__version__"] == rayzeros.__all__


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_each_name_is_its_defining_modules_object(module):
    for name in module.__all__:
        assert getattr(rayzeros, name) is getattr(module, name)
        assert getattr(module, name).__module__ == module.__name__, name


def test_version_matches_pyproject():
    """meta.version in every CLI output is rayzeros.__version__; the package
    metadata in pyproject.toml must say the same."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        version = tomllib.loads(text)["project"]["version"]
    else:
        version = re.search(r'^version = "([^"]+)"', text, re.MULTILINE).group(1)
    assert version == rayzeros.__version__
