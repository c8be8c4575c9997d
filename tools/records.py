"""Hash what the library answers at and around every threshold of the small pairs.

    python tools/records.py [ROOT] [--m-max M] [--out FILE]

ROOT is a checkout root (default: the one holding this script); its
src/rayzeros is imported.  For every coprime pair with 2 <= m <= M (40 by
default) and 0 < |k| < m, both signs of k, the queries are every threshold
c0, c0 (1 +- 1e-9), one ulp either side of each, and nine fixed c from
5e-324 to max_float.  The c0s are the distinct ones of the rays' analyses,
so no call fills the threshold rows' cache and every predict_at takes its
uncached route.  Each query is one line of the dump: m, k, c as
``float.hex``, predict_at, count_at and the merged-pair flag of every ray 0..2m-1,
then every all_zeros record (ray, r, z and residual by ``float.hex``, and
the degenerate flag) or the exception all_zeros raised.  The script prints
the line count and the sha256 of the dump; --out also writes the dump, so
two checkouts' dumps can be diffed.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import pathlib
import sys

FIXED_C = (5e-324, 1e-300, 1e-10, 0.3, 1.0, 3.0, 1e10, 1e300, sys.float_info.max)
# the band's edges as fixed probe points, not read from the library, so a
# change to the band changes the answers at the same queries
BAND = 1e-9


def queries(c0s) -> list[float]:
    cs = []
    for c0 in c0s:
        for c in (c0, c0 * (1 + BAND), c0 * (1 - BAND)):
            cs += [math.nextafter(c, 0.0), c, math.nextafter(c, math.inf)]
    return list(dict.fromkeys(cs + list(FIXED_C)))


def record(rec) -> str:
    return f"{rec.j}:{rec.r.hex()}:{rec.z.real.hex()}:{rec.z.imag.hex()}:{rec.residual.hex()}:{int(rec.degenerate)}"


def dump(rz, m_max: int):
    for m in range(2, m_max + 1):
        for k in (k for k in range(1 - m, m) if k and math.gcd(m, abs(k)) == 1):
            p = rz.validate(m, k, 1.0)
            analyses = [rz.analyze_ray(p, j) for j in range(2 * m)]
            for c in queries(sorted({a.c0 for a in analyses if a.c0 is not None})):
                counts = "".join(str(rz.count_at(a, c)) for a in analyses)
                # a threshold ray counts 1 only inside its tangency band
                merged = "".join("1" if a.c0 is not None and rz.count_at(a, c) == 1 else "0" for a in analyses)
                try:
                    zeros = " ".join(map(record, rz.all_zeros(rz.validate(m, k, c))))
                except Exception as exc:  # the failure is part of the answer
                    zeros = f"{type(exc).__name__}: {exc}"
                yield f"{m} {k} {c.hex()} {rz.predict_at(p, c)} {counts} {merged} {zeros}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=str(pathlib.Path(__file__).resolve().parents[1]))
    parser.add_argument("--m-max", type=int, default=40)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    sys.path.insert(0, str(pathlib.Path(args.root) / "src"))
    import rayzeros

    lines = list(dump(rayzeros, args.m_max))
    text = "".join(line + "\n" for line in lines).encode()
    if args.out:
        pathlib.Path(args.out).write_bytes(text)
    print(f"{len(lines)} queries, sha256 {hashlib.sha256(text).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
