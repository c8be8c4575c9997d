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


P = rayzeros.FamilyParams(m=5, k=4, c=1.0)
RAY = rayzeros.RayDescriptor(j=3, angle=1.8849555921538759, parity=1, alpha_sign=rayzeros.Sign.POSITIVE, residue=2)
PROFILE = rayzeros.CountProfile(below=0, at_threshold=1, above=2)
# every record class: keyword values for its fields without a default, then
# its defaults, each in field order
RECORDS = {
    rayzeros.FamilyParams: (dict(m=5, k=4, c=1.0), {}),
    rayzeros.RayDescriptor: (RAY._asdict(), {}),
    rayzeros.ParityCensus: (dict(even_pos=3, even_zero=0, even_neg=2, odd_pos=3, odd_zero=0, odd_neg=2), {}),
    rayzeros.CountProfile: (dict(below=0, at_threshold=1, above=2), {}),
    rayzeros.RayAnalysis: (
        dict(params=P, ray=RAY, alpha=0.3090169943749474, case=rayzeros.RayCase.POS_K_ODD_POS, profile=PROFILE),
        dict(r0=None, log_beta=None, c0=None),
    ),
    rayzeros.Threshold: (dict(c0=0.8246924442330589, rays=(5,), alpha=1.0), {}),
    rayzeros.Tolerances: ({}, dict(residual_rtol=1e-10)),
    rayzeros.ZeroRecord: (dict(j=5, r=1.0, z=-1 + 0j, residual=0.0, degenerate=False), {}),
    rayzeros.CountPrediction: (dict(min_count=5, max_count=11, direction="increasing"), {}),
    rayzeros.OracleResult: (dict(zeros=(-1 + 0j,), grid_resolution=64, annulus=(0.68, 5.5)), dict(params=None)),
    rayzeros.ComparisonReport: (dict(matched=7, max_distance=2.2e-16), dict(unmatched_oracle=(), unmatched_ray=())),
}


def test_every_public_record_is_listed():
    public = {getattr(rayzeros, name) for name in rayzeros.__all__}
    assert {cls for cls in public if isinstance(cls, type) and issubclass(cls, tuple)} == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    given, defaults = RECORDS[cls]
    rec = cls(**given)
    assert rec._fields == (*given, *defaults)
    assert {name: getattr(rec, name) for name in defaults} == defaults
    twin = cls(**given)
    assert rec == twin and not rec != twin and hash(rec) == hash(twin)
    shown = ", ".join(f"{name}={getattr(rec, name)!r}" for name in rec._fields)
    assert repr(rec) == f"{cls.__name__}({shown})"
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], 0)
    with pytest.raises(AttributeError):
        rec.extra = 0
    copy = rec._replace(**{rec._fields[0]: getattr(rec, rec._fields[0])})
    assert type(copy) is cls and copy == rec
    if cls is rayzeros.OracleResult:  # a real scan's result hashes too
        p = rayzeros.validate(5, 4, 1.0)
        assert hash(rayzeros.find_zeros_grid(p, 64)) == hash(rayzeros.find_zeros_grid(p, 64))


@pytest.mark.parametrize("m, k", [(5, 4), (5, -4), (12, 7), (9, -2)])
def test_count_prediction_routes_are_equal(m, k):
    p = rayzeros.validate(m, k, 1.0)
    table, cen = rayzeros.predict_table(p), rayzeros.predict_census(p)
    assert table == cen and not table != cen and hash(table) == hash(cen)
    wider = cen._replace(max_count=cen.max_count + 1)
    assert table != wider and not table == wider


def test_dir_lists_every_public_name():
    assert set(rayzeros.__all__) <= set(dir(rayzeros))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from rayzeros import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rayzeros.__all__)
