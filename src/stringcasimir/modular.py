"""Dedekind eta and Jacobi theta_3 with certified series truncation.

Conventions used throughout:

    eta(tau)      = e^{pi i tau / 12} prod_{n>=1} (1 - e^{2 pi i n tau})
    theta_3(v|x)  = sum_n e^{i x n^2 + 2 pi i v n},   Im(x) > 0

(theta_3 takes the quadratic-exponent argument directly, not the nome.)
The q-products are truncated once the discarded factors are below 1e-18
with the remainder folded into an explicit error bound; close to the real
axis the plain series loses all precision, so magnitude evaluations go
through a fundamental-domain reduction instead (``log_abs_dedekind_eta``).
There |q| <= e^{-pi sqrt 3}, and prod (1 - q^n) is Euler's pentagonal series
sum_k (-1)^k q^{k(3k-1)/2} = 1 - q - q^2 + q^5 + q^7 - q^12 - ..., cut after q^7.
"""

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModularLiftRequiredError, _real

__all__ = [
    "ModularPoint",
    "dedekind_eta",
    "dedekind_eta_with_bound",
    "jacobi_theta3",
    "jacobi_theta3_with_bound",
    "log_abs_dedekind_eta",
]

_TRUNC = 1e-18
_MIN_IM = 1e-6
_CHUNK = 1 << 14  # factors of the eta product formed at once, which bounds memory
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class ModularPoint:
    """A point tau in the upper half-plane."""

    tau: complex

    def __post_init__(self):
        _as_tau(self.tau)


def _as_tau(p):
    tau = complex(p.tau) if isinstance(p, ModularPoint) else complex(p)
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise DomainError(f"tau must be a finite point of the upper half-plane, got {tau}")
    return tau


def dedekind_eta_with_bound(p):
    """eta(tau) together with an absolute truncation-error bound.

    The product, 2^14 factors at a time until it underflows to 0, is cut at the
    first n with |q|^n < 1e-18 (q = e^{2 pi i tau}); the neglected factors multiply
    the result by at most exp(2 |q|^{n*+1} / (1 - |q|)).  The bound on the absolute
    error adds the rounding, eps |eta| (2 n* + 2 pi |tau| |q| / (1 - |q|)^2): q^n
    carries n times the error of q, about n eps |2 pi tau|.  Below the smallest
    normal float the product has no relative accuracy, and |eta| itself is added.
    Below Im(tau) = 1e-6 the series is refused; use ``log_abs_dedekind_eta``
    (modular lift) instead.
    """
    tau = _as_tau(p)
    if tau.imag < _MIN_IM:
        raise ModularLiftRequiredError(
            f"Im(tau) = {tau.imag:.3e} too small for the q-series; apply modular lift"
        )
    q = cmath.exp(2j * math.pi * tau)
    absq = abs(q)
    n_star = max(1, int(math.ceil(math.log(_TRUNC) / math.log(absq)))) if absq > 0 else 1
    prod = cmath.exp(1j * math.pi * tau / 12.0)
    for lo in range(1, n_star + 1, _CHUNK):
        prod *= complex(np.prod(1.0 - q ** np.arange(lo, min(lo + _CHUNK, n_star + 1))))
        if prod == 0.0:  # no further factor can change it
            break
    rem = 2.0 * absq ** (n_star + 1) / (1.0 - absq)
    size = abs(prod)
    rounding = _EPS * (2 * n_star + 2.0 * math.pi * abs(tau) * absq / (1.0 - absq) ** 2)
    bound = size * (math.exp(rem) - 1.0 + rounding) + (size if size < sys.float_info.min else 0.0)
    return prod, bound


def dedekind_eta(p):
    """eta(tau) by the truncated q-product (real and positive on tau = iy)."""
    return dedekind_eta_with_bound(p)[0]


def jacobi_theta3_with_bound(v, xarg):
    """theta_3(v|x) with an absolute truncation-error bound.

    Symmetric sum over n = -n*..n* with n* chosen so |e^{i x n^2}| < 1e-18, for
    a real v; the discarded tail is bounded by a geometric series in |e^{ix}|^{2n*}.
    The bound adds the rounding, eps sum |t_n| (4 + |x| n^2 + 2 pi |v| |n|): each
    term's phase x n^2 + 2 pi v n is rounded to eps of its own size.
    Below Im(x) = 1e-6, where n* passes 6000, the series is refused.
    """
    _real("v", v)
    x = complex(xarg)
    if not (cmath.isfinite(x) and x.imag > 0):
        raise DomainError(f"theta_3 needs a finite x with Im(x) > 0, got x={x}")
    if x.imag < _MIN_IM:
        raise ModularLiftRequiredError(
            f"Im(x) = {x.imag:.3e} too small for the theta_3 series; apply modular lift"
        )
    decay = x.imag  # |e^{i x n^2}| = e^{-Im(x) n^2}
    n_star = max(1, int(math.ceil(math.sqrt(-math.log(_TRUNC) / decay))))
    ns = np.arange(-n_star, n_star + 1)
    terms = np.exp(1j * x * ns**2 + 2j * math.pi * v * ns)
    total = complex(np.sum(terms))
    t_next = math.exp(-decay * (n_star + 1) ** 2)
    ratio = math.exp(-decay * (2 * n_star + 3))
    phase = 4.0 + abs(x) * ns**2 + 2.0 * math.pi * abs(v) * np.abs(ns)  # its size, and exp's
    bound = 2.0 * t_next / (1.0 - ratio) + _EPS * float(np.sum(np.abs(terms) * phase))
    return total, bound


def jacobi_theta3(v, xarg):
    """theta_3(v|x) = sum_n e^{i x n^2 + 2 pi i v n}; even and 1-periodic in v."""
    return jacobi_theta3_with_bound(v, xarg)[0]


def log_abs_dedekind_eta(z):
    """ln|eta(z)| for upper-half-plane z of any imaginary part.

    Reduces z to the fundamental domain with shifts z -> z + k (which leave
    |eta| unchanged up to the unit multiplier) and inversions z -> -1/z
    (|eta(z)| = |eta(-1/z)| / |z|^{1/2}), then sums the rapidly convergent
    q-series.  Inversion stops at |z| >= 1 - 1e-12: on the arc |z| = 1 with
    Re z = +-1/2 rounding would otherwise flip z and -conj(z) forever, and
    those points lie in the closure of the fundamental domain, where the
    series is just as accurate.  Accepts scalars or arrays; this is the precision lift used
    by the one-loop free energy, where eta is needed arbitrarily close to
    the real axis.  The q-series is the pentagonal 1 - q - q^2 + q^5 + q^7: with
    |q| <= e^{-pi sqrt 3} ~ 4.3e-3 the terms left out, -q^12 - q^15 + q^22 + ...,
    are below 2 |q|^12 ~ 1e-28, so what remains is rounding.
    """
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z = z.flatten()
    if not np.all(np.isfinite(z) & (z.imag > 0)):
        raise DomainError("log_abs_dedekind_eta needs finite z with Im(z) > 0")
    acc = np.zeros(z.shape, dtype=float)
    z.real -= np.round(z.real)
    live = np.flatnonzero(np.abs(z) < 1.0 - 1e-12)  # outside the domain: only these move on
    for _ in range(256):
        if not live.size:
            break
        w = z[live]
        acc[live] += -0.5 * np.log(np.abs(w))
        w = -1.0 / w
        w.real -= np.round(w.real)
        z[live] = w
        live = live[np.abs(w) < 1.0 - 1e-12]
    else:
        raise DomainError("fundamental-domain reduction did not terminate")
    q = np.exp(2j * math.pi * z)
    q2 = q * q
    euler = 1.0 - q - q2 + q2 * q2 * q * (1.0 + q2)  # 1 - q - q^2 + q^5 + q^7
    out = acc - math.pi * z.imag / 12.0 + np.log(np.abs(euler))
    return out.reshape(shape) if shape else float(out[0])
