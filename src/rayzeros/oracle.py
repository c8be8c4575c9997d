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

The scan is pure Python, like the rest of the library: the cosines and sines
are taken once per grid column and the powers once per row, and each cell's
corner signs are folded from one byte per node, a whole row at a time.
"""
from __future__ import annotations

import bisect
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
    """Damped Newton on the (Re, Im) system; None if it leaves the annulus, stalls or overflows.

    Runs to step stagnation rather than stopping at the acceptance gate, so
    positions end up machine-accurate, not merely inside the residual gate.
    """
    try:
        for _ in range(80):
            pz = _p(m, k, c, z)
            dg = c * k * z ** (k - 1)  # conjugated part
            dh = m * z ** (m - 1) + dg  # analytic part
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
    except OverflowError:  # complex ** raises where a float power gives inf
        return None


def _pow(x: float, e: float) -> float:
    """x ** e for x > 0, overflowing to inf as IEEE arithmetic does."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


def _sign_codes(us, vs) -> bytes:
    """One byte per node: bits 0-1 for u > 0 and u < 0, bits 2-3 the same for v,
    bit 4 for a nan.  A cell is a candidate iff the OR of its corners' bytes is
    _CANDIDATE: both parts change sign and no corner is nan (inf - inf can
    only happen far outside the zero-carrying region)."""
    return bytes(
        [
            (u > 0.0) | (u < 0.0) << 1 | (v > 0.0) << 2 | (v < 0.0) << 3 | (u != u or v != v) << 4
            for u, v in zip(us, vs)
        ]
    )


_CANDIDATE = 0b01111
_IS_CANDIDATE = bytes(b == _CANDIDATE for b in range(256))  # translate table


def _scan_cell(m, k, c, lr0, lr1, th0, th1, r_lo, r_hi, depth) -> list[complex]:
    """Subdivide a candidate cell, trying Newton from each mixed subcell center."""
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
            corners = [(math.exp(a), t) for a in (a0, a1) for t in (b0, b1)]
            us = [
                _pow(r, m) * math.cos(m * t) + 2.0 * c * _pow(r, k) * math.cos(k * t) - 1.0
                for r, t in corners
            ]
            vs = [_pow(r, m) * math.sin(m * t) for r, t in corners]
            a, b, d, e = _sign_codes(us, vs)
            if (a | b | d | e) == _CANDIDATE:
                found.extend(_scan_cell(m, k, c, a0, a1, b0, b1, r_lo, r_hi, depth + 1))
    return found


def find_zeros_grid(params: FamilyParams, resolution: int = 256) -> OracleResult:
    """Locate all zeros of p by annulus scan plus local 2D refinement.

    resolution sets the radial grid; the angular grid is at least as fine and
    always finer than pi/m so no cell can straddle two sign sectors of Im p.
    """
    if resolution < _MIN_RESOLUTION:
        raise ValueError(f"need resolution >= {_MIN_RESOLUTION}, got {resolution}")
    m, k, c = params.m, params.k, params.c
    r_lo, r_hi = _annulus(m, k, c)

    n_r = resolution
    n_th = max(resolution, 6 * m)
    lr_lo, lr_hi = math.log(r_lo), math.log(r_hi)
    step = (lr_hi - lr_lo) / n_r
    log_r = [i * step + lr_lo for i in range(n_r)] + [lr_hi]
    # offset keeps grid lines away from the symmetry angles of both sign fields
    theta = [(j + 0.381966) * (2.0 * math.pi / n_th) for j in range(n_th + 1)]
    cos_m = [math.cos(m * t) for t in theta]
    sin_m = [math.sin(m * t) for t in theta]
    cos_k = [math.cos(k * t) for t in theta]

    # each row's node bytes packed little-endian into an int, so ORing a row
    # with itself shifted one byte and with the next row folds every cell's
    # four corners into the cell's byte
    raw: list[complex] = []
    prev = 0
    for i, lr in enumerate(log_r):
        r = math.exp(lr)
        rm = _pow(r, m)
        rk = 2.0 * c * _pow(r, k)
        us = [rm * a + rk * b - 1.0 for a, b in zip(cos_m, cos_k)]
        vs = [rm * s for s in sin_m]
        row = int.from_bytes(_sign_codes(us, vs), "little")
        if i:
            cells = (prev | prev >> 8 | row | row >> 8).to_bytes(n_th + 1, "little")
            flags = cells.translate(_IS_CANDIDATE)
            jj = flags.find(1, 0, n_th)
            while jj >= 0:
                raw.extend(
                    _scan_cell(
                        m, k, c,
                        log_r[i - 1], lr, theta[jj], theta[jj + 1],
                        r_lo, r_hi, depth=0,
                    )
                )
                jj = flags.find(1, jj + 1, n_th)
        prev = row

    # raw hits come in ascending |z|, and a kept zero w within 10 REFINE_TOL of
    # z has |w| >= |z| - 10 REFINE_TOL, so only the kept zeros past that radius
    # (padded to twice the distance against rounding) are compared
    zeros: list[complex] = []
    radii: list[float] = []
    for z in sorted(raw, key=lambda w: (abs(w), math.atan2(w.imag, w.real))):
        rz = abs(z)
        near = bisect.bisect_left(radii, rz - 2.0 * 10.0 * REFINE_TOL)
        if all(abs(z - w) > 10.0 * REFINE_TOL for w in zeros[near:]):
            zeros.append(z)
            radii.append(rz)
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
    # only pairs within the cap can match: window b by real part (padded to
    # 2 cap against rounding), keep the pairs in (i, jj) order and sort them
    # stably by distance, so ties resolve as in an all-pairs sort
    by_re = sorted(range(len(b)), key=lambda jj: b[jj].real)
    re_b = [b[jj].real for jj in by_re]
    pairs = []
    for i, za in enumerate(a):
        lo = bisect.bisect_left(re_b, za.real - 2.0 * cap)
        hi = bisect.bisect_right(re_b, za.real + 2.0 * cap)
        for jj in sorted(by_re[lo:hi]):
            dist = abs(za - b[jj])
            if dist <= cap:
                pairs.append((dist, i, jj))
    pairs.sort(key=lambda t: t[0])
    used_a: set[int] = set()
    used_b: set[int] = set()
    matched = 0
    max_distance = 0.0
    for dist, i, jj in pairs:
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
