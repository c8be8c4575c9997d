"""Full-plane zero finder that knows nothing about the ray structure.

Scans an annulus guaranteed to contain every zero with a polar grid,
flags cells where the real and the imaginary part both change sign, and
refines each candidate with a damped 2-by-2 Newton iteration on
(Re p, Im p).  The whole point of this module is independence: it must not
import the ray classification or the per-ray counting, so agreement with
them is genuine cross-validation.  Ray confinement is something callers may
*check* on its output, never an assumption of the scan.

The annulus comes from growth estimates alone: outside
R = max(1, (2c+2)^{1/(m-|k|)}) + 1 the degree-m term dominates, and near the
origin either |p| >= 1 - ... (k > 0) or the middle term forces
r^|k| >= 2 c sin(pi/(2m)) / 3 at any zero (k < 0).

numpy is imported by the scan functions, not by the module, so importing
rayzeros (and every command but verify) does not load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .family import FamilyParams

__all__ = ["OracleResult", "ComparisonReport", "ResolutionTooCoarse", "find_zeros_grid", "compare"]

REFINE_TOL = 1e-8  # accepted candidates satisfy |p(z)| <= REFINE_TOL
_MAX_SUBDIVISIONS = 4
_MIN_RESOLUTION = 64


class ResolutionTooCoarse(RuntimeError):
    """A sign-ambiguous cell survived the subdivision budget; rescan finer."""


@dataclass(slots=True)
class OracleResult:
    zeros: list[complex]
    grid_resolution: int
    annulus: tuple[float, float]
    params: FamilyParams | None = None


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    matched: int
    max_distance: float
    unmatched_oracle: tuple[complex, ...] = field(default=())
    unmatched_ray: tuple[complex, ...] = field(default=())

    @property
    def clean(self) -> bool:
        return not self.unmatched_oracle and not self.unmatched_ray


def _annulus(m: int, k: int, c: float) -> tuple[float, float]:
    r_out = 1.1 * (max(1.0, (2.0 * c + 2.0) ** (1.0 / (m - abs(k)))) + 1.0)
    if k > 0:
        # at a zero with r <= 1: 1 = |r^m cos + 2 c r^k cos| <= r^k (1 + 2c)
        r_in = (1.0 + 2.0 * c) ** (-1.0 / k)
    else:
        # any zero angle makes |cos(k theta)| either 0 (then r = 1) or at
        # least sin(pi/(2m)); with the value equation that bounds r below
        r_in = min(1.0, (2.0 * c * math.sin(math.pi / (2 * m)) / 3.0) ** (1.0 / abs(k)))
    return 0.9 * r_in, r_out


def _p(m: int, k: int, c: float, z: complex) -> complex:
    zk = z ** k
    return z ** m + c * (zk + zk.conjugate()) - 1.0


def _newton(m: int, k: int, c: float, z: complex, r_lo: float, r_hi: float) -> complex | None:
    """Damped Newton on the (Re, Im) system; None if it leaves the annulus or stalls.

    Runs to step stagnation rather than stopping at the acceptance gate, so
    positions end up machine-accurate, not merely inside the residual gate.
    """
    for _ in range(80):
        pz = _p(m, k, c, z)
        dh = m * z ** (m - 1) + c * k * z ** (k - 1)  # analytic part
        dg = c * k * z ** (k - 1)  # conjugated part
        fx = dh + dg.conjugate()
        fy = 1j * (dh - dg.conjugate())
        a, b = fx.real, fy.real
        cc, d = fx.imag, fy.imag
        det = a * d - b * cc
        if det == 0.0 or not math.isfinite(det):
            break
        u, v = pz.real, pz.imag
        dx = (-u * d + v * b) / det
        dy = (-v * a + u * cc) / det
        step = complex(dx, dy)
        zn = z + step
        r = abs(zn)
        if not (0.5 * r_lo <= r <= 2.0 * r_hi) or not math.isfinite(r):
            step *= 0.25  # keep the iterate inside a padded annulus
            zn = z + step
            if not (0.5 * r_lo <= abs(zn) <= 2.0 * r_hi):
                return None
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            z = zn
            break
        z = zn
    return z if abs(_p(m, k, c, z)) <= REFINE_TOL else None


def _mixed(vals) -> bool:
    return bool(vals.min() < 0.0 < vals.max())


def _scan_cell(m, k, c, lr0, lr1, th0, th1, r_lo, r_hi, depth) -> list[complex]:
    """Subdivide a candidate cell, trying Newton from each mixed subcell center."""
    import numpy as np

    if depth > _MAX_SUBDIVISIONS:
        raise ResolutionTooCoarse(
            f"ambiguous cell near r={math.exp(0.5 * (lr0 + lr1)):.3g}, "
            f"theta={0.5 * (th0 + th1):.3g}"
        )
    lrm = 0.5 * (lr0 + lr1)
    thm = 0.5 * (th0 + th1)
    z = math.exp(lrm) * complex(math.cos(thm), math.sin(thm))
    hit = _newton(m, k, c, z, r_lo, r_hi)
    if hit is not None:
        return [hit]
    found: list[complex] = []
    for a0, a1 in ((lr0, lrm), (lrm, lr1)):
        for b0, b1 in ((th0, thm), (thm, th1)):
            rs = np.exp([a0, a0, a1, a1])
            ts = np.array([b0, b1, b0, b1])
            u = rs ** m * np.cos(m * ts) + 2 * c * rs ** float(k) * np.cos(k * ts) - 1.0
            v = rs ** m * np.sin(m * ts)
            if _mixed(u) and _mixed(v):
                found.extend(_scan_cell(m, k, c, a0, a1, b0, b1, r_lo, r_hi, depth + 1))
    return found


def find_zeros_grid(params: FamilyParams, resolution: int = 256) -> OracleResult:
    """Locate all zeros of p by annulus scan plus local 2D refinement.

    resolution sets the radial grid; the angular grid is at least as fine and
    always finer than pi/m so no cell can straddle two sign sectors of Im p.
    """
    import numpy as np

    if resolution < _MIN_RESOLUTION:
        raise ValueError(f"need resolution >= {_MIN_RESOLUTION}, got {resolution}")
    m, k, c = params.m, params.k, params.c
    r_lo, r_hi = _annulus(m, k, c)

    n_r = resolution
    n_th = max(resolution, 6 * m)
    log_r = np.linspace(math.log(r_lo), math.log(r_hi), n_r + 1)
    # offset keeps grid lines away from the symmetry angles of both sign fields
    theta = (np.arange(n_th + 1) + 0.381966) * (2.0 * math.pi / n_th)

    rg = np.exp(log_r)[:, None]
    tg = theta[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow to inf keeps the sign information; nan corners (inf - inf)
        # can only happen far outside the zero-carrying region and simply
        # disqualify their cells
        u = rg ** m * np.cos(m * tg) + 2.0 * c * rg ** float(k) * np.cos(k * tg) - 1.0
        v = rg ** m * np.sin(m * tg)

    def both_signs(w):
        corners = np.stack([w[:-1, :-1], w[1:, :-1], w[:-1, 1:], w[1:, 1:]])
        return (corners.min(axis=0) < 0.0) & (corners.max(axis=0) > 0.0)

    cand = both_signs(u) & both_signs(v)
    raw: list[complex] = []
    for i, jj in zip(*np.nonzero(cand)):
        raw.extend(
            _scan_cell(
                m, k, c,
                log_r[i], log_r[i + 1], theta[jj], theta[jj + 1],
                r_lo, r_hi, depth=0,
            )
        )

    zeros: list[complex] = []
    for z in sorted(raw, key=lambda w: (abs(w), math.atan2(w.imag, w.real))):
        if all(abs(z - w) > 10.0 * REFINE_TOL for w in zeros):
            zeros.append(z)
    zeros.sort(key=lambda w: (math.atan2(w.imag, w.real), abs(w)))
    return OracleResult(
        zeros=zeros, grid_resolution=resolution, annulus=(r_lo, r_hi), params=params
    )


def compare(params: FamilyParams, oracle_res: OracleResult, ray_zeros) -> ComparisonReport:
    """Greedy nearest bipartite matching between oracle zeros and ray records.

    Pairs farther apart than the pairing cap stay unmatched so genuinely
    missing or spurious zeros surface instead of being absorbed.
    """
    if oracle_res.params is not None and oracle_res.params != params:
        raise ValueError(
            f"oracle result was computed for {oracle_res.params}, not {params}"
        )
    cap = 1e-3
    a = list(oracle_res.zeros)
    b = [rec.z for rec in ray_zeros]
    pairs = sorted(
        ((abs(za - zb), i, jj) for i, za in enumerate(a) for jj, zb in enumerate(b)),
        key=lambda t: t[0],
    )
    used_a: set[int] = set()
    used_b: set[int] = set()
    matched = 0
    max_distance = 0.0
    for dist, i, jj in pairs:
        if dist > cap:
            break
        if i in used_a or jj in used_b:
            continue
        used_a.add(i)
        used_b.add(jj)
        matched += 1
        max_distance = max(max_distance, dist)
    return ComparisonReport(
        matched=matched,
        max_distance=max_distance,
        unmatched_oracle=tuple(z for i, z in enumerate(a) if i not in used_a),
        unmatched_ray=tuple(z for jj, z in enumerate(b) if jj not in used_b),
    )
