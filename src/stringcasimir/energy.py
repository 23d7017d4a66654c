"""Zero-temperature Casimir energies by contour integration.

The regularized energy is the deviation of the composite string's
zero-point energy from the uniform string of the same total length,
expressed as an integral of the log dispersion ratio along the imaginary
frequency axis:

    two-piece:  E = (1/2 pi) Int_0^inf ln|ratio(xi)| d xi
    2N-piece:   E_N(x) = (N / 2 pi L) Int_0^inf ln|ratio_N(q)| dq

The integrands come from :mod:`.core`.  They vanish identically in the
degenerate cases (s = 1, x = 1, N = 1), are negative otherwise, and decay
exponentially, so the integrals are truncated where the rest falls below
e^{-40} of the whole.  Each is a trapezoid sum after the double-exponential
map q = scale exp(t - e^{-t}), which resolves the piece scales and the
q -> 0 end.  The same kernel takes the Matsubara sums of :mod:`.thermal`
and, through the same map, the modulus integral of :mod:`.quantum`.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import NPieceConfig, StringConfig, dispersion_2n
from .core import imag_axis_log_ratio, imag_axis_log_ratio_2n
from .errors import DomainError, QuadratureError, _count, _real

__all__ = ["EnergyResult", "casimir_two_piece", "casimir_two_piece_x0", "casimir_2n",
           "casimir_2n_x0", "scaling_function", "scaling_fit"]

# Relative evaluation error allowed per node.  It also covers what the
# truncation points drop, which is below e^{-40} of the sum.
_NOISE = 64.0 * sys.float_info.epsilon
_BLOCK = 1 << 14  # nodes per call of the integrand, which bounds memory
_MAX_NODES = 1 << 23


@dataclass(frozen=True)
class EnergyResult:
    """A regularized energy with its provenance and error estimate."""

    value: float
    method: str  # contour | analytic-limit | cutoff-oracle | matsubara
    abs_error_estimate: float = 0.0

    def __post_init__(self):
        _real("abs_error_estimate", self.abs_error_estimate, lambda v: v >= 0, ">= 0")
        if self.method not in ("contour", "analytic-limit", "cutoff-oracle", "matsubara"):
            raise DomainError(f"unknown method tag {self.method!r}")


def _trapezoid(g, a, b, step, halvings=None, floor=0.0):
    """Trapezoid sums S(h) = h [g(a)/2 + sum_{m>=1} g(a + m h)], a + m h <= b,
    with h = step, step/2, ..., each level evaluating only its new nodes.

    The noise bound is _NOISE h sum|g| + ``floor``, the caller's bound on other
    evaluation error.  A level is accepted when |S(h) - S(2h)| is within it
    and shrank eightfold, as only faster than geometric convergence does.
    With ``halvings`` = K the level step/2^K is itself the answer (a Matsubara
    lattice), returned with the noise bound if no earlier level is accepted;
    without, two differences within noise in a row also end the sums.
    Returns (value, error bound, evaluations); raises past _MAX_NODES.
    """
    parts, mass, evals = [], 0.0, 0
    value = diff = bound = math.nan
    for k in itertools.count():
        h = step / 2**k
        top = int((b - a) / h)
        first, stride = (0, 1) if k == 0 else (1, 2)
        evals += (top - first) // stride + 1
        if evals > _MAX_NODES:
            raise QuadratureError(f"sum needs over {_MAX_NODES} nodes", value, abs_error=diff)
        for lo in range(first, top + 1, stride * _BLOCK):
            v = g(a + h * np.arange(lo, min(lo + stride * _BLOCK, top + 1), stride))
            if lo == 0:
                v[0] *= 0.5
            parts.append(math.fsum(v))
            mass += float(np.sum(np.abs(v)))
        value, prev = h * math.fsum(parts), value
        last, last_bound, diff, bound = diff, bound, abs(value - prev), _NOISE * h * mass + floor
        if k == halvings:
            return value, bound, evals
        if diff <= bound and (8.0 * diff <= last or halvings is None and last <= last_bound):
            return value, diff + bound, evals


def _contour(f, scale, q_max, floor=0.0):
    """Int_0^q_max f(q) dq as an EnergyResult, through q = scale exp(t - e^{-t})
    from t = -4.5 (q = scale e^{-94.5}, below which nothing counts) to q_max."""

    def g(t):
        e = np.exp(-t)
        q = scale * np.exp(t - e)
        return f(q) * q * (1.0 + e)

    y = math.log(q_max / scale)  # q(y + e^{-y}) is just above q_max
    value, err, _ = _trapezoid(g, -4.5, y + math.exp(-y), 0.5, floor=floor)
    return EnergyResult(value, "contour", err)


def _two_piece_integrand(cfg):
    """(1/2 pi) ln|ratio(xi)| and its truncation point; it decays like e^{-2 m xi}."""
    m = min(cfg.piece_length_i, cfg.piece_length_ii)
    return (lambda xi: imag_axis_log_ratio(xi, cfg) / (2.0 * math.pi)), 21.0 / m


def _two_n_integrand(cfg):
    """(N / 2 pi L) ln|ratio_N(q)| and its truncation point: it decays like
    2N exp(-q).  At x = 0 the q = 0 value is the dropped zero mode, 0."""
    n = cfg.piece_pairs
    prefactor = n / (2.0 * math.pi * cfg.total_length)
    n0 = 0.0 if cfg.tension_ratio == 0.0 else imag_axis_log_ratio_2n(0.0, cfg)
    f = lambda q: prefactor * np.where(q > 0.0, imag_axis_log_ratio_2n(q, cfg), n0)
    return f, 48.0 + math.log(1.0 + n)


def casimir_two_piece(cfg):
    """Zero-temperature Casimir energy of the two-piece string.

    Always <= 0, vanishing exactly for s = 1 (equal pieces) and x = 1
    (uniform string, short-circuited analytically).
    """
    if not isinstance(cfg, StringConfig):
        raise DomainError("casimir_two_piece expects a StringConfig")
    if cfg.tension_ratio == 1.0:
        return EnergyResult(0.0, "analytic-limit", 0.0)
    f, xi_max = _two_piece_integrand(cfg)
    return _contour(f, 1.0 / cfg.total_length, xi_max)


def casimir_two_piece_x0(s, total_length):
    """Decoupled-limit (x -> 0) closed form  -(pi / 24 L)(s + 1/s - 2)."""
    StringConfig(s, 0.0, total_length)  # checks s and L
    value = -(math.pi / (24.0 * total_length)) * (s + 1.0 / s - 2.0)
    return EnergyResult(value, "analytic-limit", 0.0)


def casimir_2n(cfg, slow_exact=False):
    """Zero-temperature Casimir energy of the 2N-piece string.

    E_1 = 0 for every x; |E_N| grows with N at fixed x < 1.  At x = 0 the
    integrand has an integrable logarithmic singularity at q = 0, which
    the double-exponential map resolves.  ``slow_exact`` recomputes the
    integrand through explicit system-matrix powers (x > 0 only) as a
    cross-check of the eigenvalue-power route.
    """
    if not isinstance(cfg, NPieceConfig):
        raise DomainError("casimir_2n expects an NPieceConfig")
    n = cfg.piece_pairs
    if cfg.tension_ratio == 1.0:
        return EnergyResult(0.0, "analytic-limit", 0.0)
    f, q_max = _two_n_integrand(cfg)
    if not slow_exact:
        return _contour(f, 1.0 / n, q_max)
    # Matrix powers overflow past e^700; for N > 13 the truncation then drops
    # up to the tail below.  Under q = 1e-4/N, 2 - tr(M^N) keeps too few digits
    # and the q -> 0 value stands in; the floor adds the rounding (16 N eps).
    q_max = min(q_max, 650.0 / n)
    prefactor = n / (2.0 * math.pi * cfg.total_length)

    def slow(q):
        if q < 1e-4 / n:
            return prefactor * imag_axis_log_ratio_2n(0.0, cfg)
        d = dispersion_2n(q, cfg, slow_exact=True)
        return prefactor * math.log(abs(d) / (4.0 * math.sinh(n * q / 2.0) ** 2))

    tail = 2.0 * (n + 1) * math.exp(-q_max) * (q_max + 1.0)
    floor = (1e3 * sys.float_info.epsilon * n * q_max + tail) * prefactor
    return _contour(np.vectorize(slow), 1.0 / n, q_max, floor)


def casimir_2n_x0(piece_pairs, total_length):
    """Decoupled-limit closed form  -(pi / 6 L)(N^2 - 1)."""
    NPieceConfig(piece_pairs, 0.0, total_length)  # checks N and L
    value = -(math.pi / (6.0 * total_length)) * (piece_pairs**2 - 1.0)
    return EnergyResult(value, "analytic-limit", 0.0)


def scaling_function(piece_pairs, x):
    """Energy ratio f_N(x) = E_N(x) / E_N(0), in (0, 1) for 0 < x < 1.

    Strictly decreasing in x; nearly independent of N for N >= 2, which is
    the scaling collapse that ``scaling_fit`` parameterizes.
    """
    _count("piece_pairs", piece_pairs, least=2)  # f_1 is 0/0
    _real("x", x, lambda v: 0 < v < 1, "in (0, 1)")
    num = casimir_2n(NPieceConfig(piece_pairs, x))
    den = casimir_2n_x0(piece_pairs, math.pi)
    return num.value / den.value


def scaling_fit(x):
    """Empirical collapse curve f(x) = (1 - sqrt(x))^{5/2} on [0, 1]."""
    _real("x", x, lambda v: 0 <= v <= 1, "in [0, 1]")
    return (1.0 - math.sqrt(x)) ** 2.5
