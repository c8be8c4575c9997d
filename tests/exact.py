"""The tests' one exact reference: mpmath at 60 digits in a private context, so
mpmath.mp stays as it was.  Imports nothing from rayzeros; floats convert exactly."""
import mpmath

_CTX = mpmath.MPContext()
_CTX.dps = 60


def alpha(m: int, t: int):
    """cos(pi t / m)."""
    return _CTX.cospi(_CTX.mpf(t) / m)


def big_c(m: int, k: int):
    """C(m, k) = (m/|k|)^(k/m) (m/(m-k))^((m-k)/m) / 2, so that c0 = C / alpha."""
    mm, kk = _CTX.mpf(m), _CTX.mpf(k)
    return (mm / abs(kk)) ** (kk / mm) * (mm / (mm - kk)) ** ((mm - kk) / mm) / 2


def radial(m: int, k: int, lead, b, r: float):
    """f and f' of f(r) = lead r^m + b r^k - 1 at the float r."""
    x = _CTX.mpf(r)
    return lead * x**m + b * x**k - 1, lead * m * x ** (m - 1) + b * k * x ** (k - 1)


def p(m: int, k: int, c: float, z: complex):
    """p(z) = z^m + c (z^k + conj(z)^k) - 1 at the float z."""
    r, theta = _CTX.polar(_CTX.mpc(z))
    return r**m * _CTX.expj(m * theta) + 2 * _CTX.mpf(c) * r**k * _CTX.cos(k * theta) - 1


def c0(m: int, k: int, s: int):
    """c0 = C(m, k) / alpha(m, s), the threshold of the rows of folded residue s."""
    return big_c(m, k) / alpha(m, s)
