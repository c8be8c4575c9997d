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
corner signs are folded from one byte per node, a whole row at a time.  The
node bytes of a row are read in C wherever that is exact: v = r^m sin(m theta)
takes the sign of sin(m theta) wherever r^m is finite and r^m times the
smallest nonzero |sin| does not underflow, so v's bits are packed once per
scan; u's bits come from each double's sign bit wherever every u is finite and
nonzero.  Rows with a zero, nan or inf u, or an r^m that underflows or
overflows, are coded node by node.  A candidate cell whose center does not
converge is subdivided by the same scan over the cell's 2-by-2 sub-grid, so
one kernel evaluates every node.
"""
import bisect
import math
import operator
import sys
from array import array
from typing import NamedTuple

from .family import FamilyParams, power_term

__all__ = ["OracleResult", "ComparisonReport", "ResolutionTooCoarse", "find_zeros_grid", "compare"]

REFINE_TOL = 1e-8  # accepted candidates satisfy |p(z)| <= REFINE_TOL
_MAX_SUBDIVISIONS = 4
_MIN_RESOLUTION = 64


class ResolutionTooCoarse(RuntimeError, ArithmeticError):
    """The grid cannot resolve the zeros: a sign-ambiguous cell survived the
    subdivision budget (rescan finer), or the annulus leaves the float range.
    An ArithmeticError, as the root finder's BracketFailure is, so callers
    catch both numerical failures alike."""


class OracleResult(NamedTuple):
    zeros: tuple[complex, ...]
    grid_resolution: int
    annulus: tuple[float, float]
    params: FamilyParams | None = None


class ComparisonReport(NamedTuple):
    matched: int
    max_distance: float
    unmatched_oracle: tuple[complex, ...] = ()
    unmatched_ray: tuple[complex, ...] = ()

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
            if not (0.5 * r_lo <= r <= 2.0 * r_hi):  # false for nan and inf too
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
_HIGH_BYTE = 7 if sys.byteorder == "little" else 0  # the byte of a double holding its sign bit
_U_SIGN = bytes(1 if b < 0x80 else 2 for b in range(256))  # high byte -> u's bits 0-1


def _v_signs(sin_m) -> tuple[float, int]:
    """_row_codes's per-scan part: the smallest nonzero |sin m theta| of the
    grid's columns, and v's bits 2-3 wherever r^m > 0, packed as a row."""
    s_min = min([abs(s) for s in sin_m if s], default=1.0)
    return s_min, int.from_bytes(bytes([(s > 0.0) << 2 | (s < 0.0) << 3 for s in sin_m]), "little")


def _row_codes(us, rm, sin_m, s_min, v_row) -> int:
    """_sign_codes(us, [rm * s for s in sin_m]) packed little-endian into an int.

    Where rm is finite and rm * s_min does not underflow, no product rm * s is
    0 unless s is (rounding is monotone), so v's bits are v_row's.  Where
    every u is finite (their sum is) and none is 0, u's bits come from each
    double's sign bit, read in C.  Any other row is coded node by node.
    """
    if 0.0 < rm * s_min and rm < math.inf and math.isfinite(sum(us)) and 0.0 not in us:
        return int.from_bytes(array("d", us).tobytes()[_HIGH_BYTE::8].translate(_U_SIGN), "little") | v_row
    return int.from_bytes(_sign_codes(us, [rm * s for s in sin_m]), "little")


def _cell(m, k, c, lr0, lr1, th0, th1, r_lo, r_hi, depth) -> list[complex]:
    """Newton from a candidate cell's center; if it fails, scan the cell's 2x2 sub-grid."""
    if depth > _MAX_SUBDIVISIONS:
        raise ResolutionTooCoarse(
            f"ambiguous cell near r={math.exp(0.5 * (lr0 + lr1)):.3g}, "
            f"theta={0.5 * (th0 + th1):.3g}"
        )
    lrm = 0.5 * (lr0 + lr1)
    thm = 0.5 * (th0 + th1)
    hit = _newton(m, k, c, math.exp(lrm) * complex(math.cos(thm), math.sin(thm)), r_lo, r_hi)
    if hit is not None:
        return [hit]
    return _scan(m, k, c, [lr0, lrm, lr1], [th0, thm, th1], r_lo, r_hi, depth + 1)


def _scan(m, k, c, log_r, theta, r_lo, r_hi, depth) -> list[complex]:
    """Newton hits from every candidate cell of the polar grid log_r x theta, in row order."""
    n_th = len(theta) - 1
    cos_m = [math.cos(m * t) for t in theta]
    sin_m = [math.sin(m * t) for t in theta]
    cos_k = [math.cos(k * t) for t in theta]
    s_min, v_row = _v_signs(sin_m)
    # each row's node bytes packed little-endian into an int, so ORing a row
    # with itself shifted one byte and with the next row folds every cell's
    # four corners into the cell's byte
    raw: list[complex] = []
    prev = 0
    for i, lr in enumerate(log_r):
        r = math.exp(lr)
        rm = power_term(1.0, r, m)
        rk = power_term(2.0 * c, r, k)
        us = [rm * a + rk * b - 1.0 for a, b in zip(cos_m, cos_k)]
        row = _row_codes(us, rm, sin_m, s_min, v_row)
        if i:
            cells = (prev | prev >> 8 | row | row >> 8).to_bytes(n_th + 1, "little")
            flags = cells.translate(_IS_CANDIDATE)
            jj = flags.find(1, 0, n_th)
            while jj >= 0:
                raw.extend(_cell(m, k, c, log_r[i - 1], lr, theta[jj], theta[jj + 1], r_lo, r_hi, depth))
                jj = flags.find(1, jj + 1, n_th)
        prev = row
    return raw


def find_zeros_grid(params: FamilyParams, resolution: int = 256) -> OracleResult:
    """Locate all zeros of p by annulus scan plus local 2D refinement.

    resolution sets the radial grid; the angular grid is at least as fine and
    always finer than pi/m so no cell can straddle two sign sectors of Im p.
    """
    try:
        resolution = operator.index(resolution)
    except TypeError:
        pass
    if not isinstance(resolution, int) or resolution < _MIN_RESOLUTION:
        raise ValueError(f"need an integer resolution >= {_MIN_RESOLUTION}, got {resolution!r}")
    m, k, c = params.m, params.k, params.c
    r_lo, r_hi = _annulus(m, k, c)
    if not 0.0 < r_lo <= r_hi < math.inf:
        raise ResolutionTooCoarse(f"annulus ({r_lo:.3g}, {r_hi:.3g}) leaves the float range")

    n_th = max(resolution, 6 * m)
    lr_lo, lr_hi = math.log(r_lo), math.log(r_hi)
    step = (lr_hi - lr_lo) / resolution
    log_r = [i * step + lr_lo for i in range(resolution)] + [lr_hi]
    # offset keeps grid lines away from the symmetry angles of both sign fields
    theta = [(j + 0.381966) * (2.0 * math.pi / n_th) for j in range(n_th + 1)]
    raw = _scan(m, k, c, log_r, theta, r_lo, r_hi, 0)

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
    by_angle = tuple(sorted(zeros, key=lambda w: (math.atan2(w.imag, w.real), abs(w))))
    return OracleResult(zeros=by_angle, grid_resolution=resolution, annulus=(r_lo, r_hi), params=params)


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
    a = oracle_res.zeros
    b = [rec.z for rec in ray_zeros]
    # only pairs within the cap can match; the nearest match first, ties in (i, jj) order
    pairs = sorted(
        (dist, i, jj) for i, za in enumerate(a) for jj, zb in enumerate(b) if (dist := abs(za - zb)) <= cap
    )
    used_a: set[int] = set()
    used_b: set[int] = set()
    max_distance = 0.0
    for dist, i, jj in pairs:
        if i in used_a or jj in used_b:
            continue
        used_a.add(i)
        used_b.add(jj)
        max_distance = max(max_distance, dist)
    return ComparisonReport(
        matched=len(used_a),
        max_distance=max_distance,
        unmatched_oracle=tuple(z for i, z in enumerate(a) if i not in used_a),
        unmatched_ray=tuple(z for jj, z in enumerate(b) if jj not in used_b),
    )
