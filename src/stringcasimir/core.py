"""Geometry, material parameters, and dispersion machinery for piecewise
uniform relativistic closed strings.

A closed string of total length L is assembled from segments of two
materials whose tension ratio is x = T_I/T_II, with the transverse sound
speed equal to the speed of light on every segment (c = 1 units, k_B = 1,
lengths dimensionless).  Two geometries are covered:

* the two-piece string with length ratio s = L_II/L_I, whose
  eigenfrequencies solve

      F(x) sin^2(omega L / 2) + sin(omega L_I) sin(omega L_II) = 0,

  with the tension contrast F(x) = 4x/(1-x)^2;

* the 2N-piece string of alternating material and equal segment lengths,
  whose junction conditions are encoded by powers of a 2x2 transfer
  matrix Lambda(alpha, p) with alpha = (1-x)/(1+x) and p = omega L / N.

Everything here is a pure function of frozen configuration dataclasses.
Root finding lives in :mod:`.spectrum`, regularized energies in
:mod:`.energy` and :mod:`.thermal`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _count, _instance, _nonnegative_array, _positive, _real

__all__ = [
    "StringConfig",
    "NPieceConfig",
    "TransferMatrix",
    "EigenPair",
    "tension_contrast",
    "alpha_param",
    "dispersion_two_piece",
    "transfer_matrix",
    "system_matrix",
    "lambda_pair",
    "dispersion_2n",
    "imag_axis_log_ratio",
    "imag_axis_log_ratio_2n",
    "log_sinh",
]


@dataclass(frozen=True)
class StringConfig:
    """Two-piece closed string: total length, length ratio, tension ratio.

    The piece lengths are L_I = L/(1+s) and L_II = s L/(1+s).  The
    dispersion relation is invariant under x -> 1/x, so a tension ratio
    above 1 is mapped to its reciprocal on construction; x = 0 is accepted
    as an exact input (fully decoupled pieces) and x = 1 is the uniform
    string.
    """

    length_ratio: float
    tension_ratio: float
    total_length: float = math.pi

    def __post_init__(self):
        _positive("length_ratio", self.length_ratio)
        _real("tension_ratio", self.tension_ratio, lambda v: v >= 0, ">= 0")
        _positive("total_length", self.total_length)
        if self.tension_ratio > 1.0:
            object.__setattr__(self, "tension_ratio", 1.0 / self.tension_ratio)

    # The shorter piece is computed directly and the longer one as the
    # remainder, so both keep their relative accuracy at any s.
    @property
    def piece_length_i(self):
        if self.length_ratio < 1.0:
            return self.total_length - self.piece_length_ii
        return self.total_length / (1.0 + self.length_ratio)

    @property
    def piece_length_ii(self):
        if self.length_ratio < 1.0:
            return self.length_ratio * self.total_length / (1.0 + self.length_ratio)
        return self.total_length - self.piece_length_i


@dataclass(frozen=True)
class NPieceConfig:
    """String of 2N equal pieces of alternating material."""

    piece_pairs: int
    tension_ratio: float
    total_length: float = math.pi

    def __post_init__(self):
        _count("piece_pairs", self.piece_pairs)
        _real("tension_ratio", self.tension_ratio, lambda v: v >= 0, ">= 0")
        _positive("total_length", self.total_length)
        if self.tension_ratio > 1.0:
            object.__setattr__(self, "tension_ratio", 1.0 / self.tension_ratio)


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 junction matrix [[a, b], [b*, a*]] for one material period.

    For real phase p the determinant is |a|^2 - |b|^2 = (1 - alpha^2)^2.
    """

    a: complex
    b: complex

    def as_matrix(self):
        return np.array(
            [[self.a, self.b], [np.conjugate(self.b), np.conjugate(self.a)]]
        )

    @property
    def determinant(self):
        return abs(self.a) ** 2 - abs(self.b) ** 2


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues of the transfer matrix at imaginary phase argument iq.

    Satisfies lambda_plus + lambda_minus = 2(cosh q - alpha^2) and
    lambda_plus * lambda_minus = (1 - alpha^2)^2.
    """

    lambda_plus: float
    lambda_minus: float


def tension_contrast(x):
    """Tension contrast F(x) = 4x/(1-x)^2.

    Strictly increasing on (0, 1), symmetric under x -> 1/x, with a pole
    at the uniform point x = 1 (callers must branch to the analytic
    uniform-string limit there).
    """
    _real("tension ratio", x, lambda v: v > 0 and v != 1, "> 0 and not 1 (the pole)")
    return _contrast_or_zero(x)


def alpha_param(x):
    """Junction reflection parameter alpha = (1-x)/(1+x) for x in [0, 1]."""
    _real("tension ratio", x, lambda v: 0 <= v <= 1, "in [0, 1]")
    return (1.0 - x) / (1.0 + x)


def _contrast_or_zero(x):
    # F(x) for x in [0, 1), unchecked: F(0) = 0 is regular even though
    # tension_contrast rejects x <= 0.
    return 0.0 if x == 0.0 else 4.0 * x / (1.0 - x) ** 2


def dispersion_two_piece(omega, cfg):
    """Normalized two-piece dispersion function g(omega).

    g(omega) = [F sin^2(omega L / 2) + sin(omega L_I) sin(omega L_II)] / (F + 1)

    Entire and even in omega; its positive real zeros are the string
    eigenfrequencies.  The normalization keeps |g| <= 1 on the real axis
    and gives the uniform-string limit g = sin^2(omega L / 2) as x -> 1.
    Accepts scalar or array omega, real or complex.
    """
    omega = np.asarray(omega)
    l_i = cfg.piece_length_i
    half = 0.5 * cfg.total_length
    if cfg.tension_ratio == 1.0:
        return np.sin(omega * half) ** 2
    f = _contrast_or_zero(cfg.tension_ratio)
    s = cfg.length_ratio
    val = f * np.sin(omega * half) ** 2 + np.sin(omega * l_i) * np.sin(omega * s * l_i)
    return val / (f + 1.0)


def transfer_matrix(alpha, p):
    """Transfer matrix entries a = e^{-ip} - alpha^2, b = alpha (e^{-ip} - 1)."""
    _real("alpha", alpha, lambda v: 0 <= v < 1, "in [0, 1)")
    _real("p", p)
    phase = np.exp(-1j * p)
    return TransferMatrix(a=phase - alpha * alpha, b=alpha * (phase - 1.0))


def system_matrix(cfg, p):
    """Full 2N-piece system matrix M_2N = [(1+x)^2/(4x)]^N Lambda^N(alpha, p).

    Unimodular for every real p because (1+x)^2/(4x) * (1 - alpha^2) = 1.
    Requires x > 0 (the prefactor diverges in the decoupled limit).
    """
    x = _instance("system_matrix", cfg, NPieceConfig).tension_ratio
    if x == 0.0:
        raise DomainError("system_matrix requires x > 0")
    alpha = alpha_param(x)
    scale = (1.0 + x) ** 2 / (4.0 * x)
    lam = transfer_matrix(alpha, p).as_matrix()
    return np.linalg.matrix_power(scale * lam, cfg.piece_pairs)


def lambda_pair(alpha, q):
    """Transfer-matrix eigenvalues at imaginary argument iq, q >= 0.

    lambda_pm = cosh q - alpha^2 +- sqrt((cosh q - alpha^2)^2 - (1-alpha^2)^2),
    both positive, degenerate at q = 0.
    """
    _real("alpha", alpha, lambda v: 0 <= v < 1, "in [0, 1)")
    _real("q", q, lambda v: v >= 0, ">= 0")
    u = math.cosh(q) - alpha * alpha
    w = 1.0 - alpha * alpha
    # discriminant u^2 - w^2 = 2 sinh^2(q/2) (u + w): exact at q -> 0;
    # the smaller eigenvalue comes from the product identity, not subtraction
    root = math.sinh(q / 2.0) * math.sqrt(2.0 * (u + w))
    plus = u + root
    return EigenPair(lambda_plus=plus, lambda_minus=w * w / plus)


def log_sinh(z):
    """log(sinh(z)) for z > 0, stable for both tiny and huge arguments."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore"):
        return z - math.log(2.0) + np.log(-np.expm1(-2.0 * z))


def _log1mexp(x):
    # log(1 - e^{-x}) for a float array x >= 0; log1p(-1) is never evaluated
    out = np.log(-np.expm1(-np.maximum(x, 5e-324)))
    np.log1p(-np.exp(-x), out=out, where=x >= 0.693)
    return out


def _log_growth(q, w, a2):
    # ln G, where theta - q = 2 ln G - ln w and G = h + sqrt(h^2 + w e^{-q}),
    # h = (1 - e^{-q})/2.  With c = (1 + e^{-q})/2, w = 1 - alpha^2 and
    # a2 = alpha^2, G - 1 = -a2 e^{-q} / (c + sqrt(h^2 + w e^{-q})): a quotient
    # of positive terms.  ln G is its log1p near G = 1 and the log of G itself
    # where G is small (x -> 0 and q -> 0), where the log1p may reach log1p(-1).
    em = np.exp(-q)
    h = -0.5 * np.expm1(-q)
    root = np.sqrt(h * h + w * em)
    gap = -a2 * em / (0.5 * (1.0 + em) + root)
    out = np.log(h + root)
    np.log1p(gap, out=out, where=gap >= -0.5)
    return out


def _theta_minus_q(q, w, a2):
    # delta = theta - q >= 0, where sinh(theta/2) = sinh(q/2) / sqrt(w).
    # sinh(theta/2) - sinh(q/2) = 2 cosh((theta+q)/4) sinh(delta/4) equals
    # sinh(q/2) alpha^2 / (sqrt(w) (1 + sqrt(w))), so delta is a product of
    # positive terms, accurate as q -> 0 and as w -> 1.  Past q = 700 it no
    # longer changes in double precision, which keeps sinh finite.
    u = np.minimum(q, 700.0) / 2.0
    sinh_u = np.sinh(u)
    v = np.arcsinh(sinh_u / math.sqrt(w))
    ratio = sinh_u / np.cosh((u + v) / 2.0)
    root = math.sqrt(w)
    return 4.0 * np.arcsinh(ratio * a2 / (2.0 * root * (1.0 + root)))


def _bloch_angles(cfg, m=None):
    """The 2N string's distinct Bloch angles theta_m in [0, pi], sin(theta_m/2) = sqrt(w) sin(pi m/N)
    for the ascending integers ``m`` in [0, N/2], all of them by default (modes N(2 pi j + theta_m)/L
    and N(2 pi (j+1) - theta_m)/L, j >= 0), as the arrays (theta, pi - theta, phi - theta, pi - phi),
    phi = 2 pi m/N the uniform angle, and the multiplicities, 1 at m = 0 and m = N/2, else 2.
    Each angle is an atan2 of sines and cosines built from positive terms, so it keeps its
    relative accuracy as x -> 1 and theta -> pi."""
    n, x = cfg.piece_pairs, cfg.tension_ratio
    m = np.arange(n // 2 + 1) if m is None else m
    half = (0.5 * n - m) * (math.pi / n)  # (pi - phi)/2
    sin_phi, cos_phi = np.sin(m * (math.pi / n)), np.sin(half)  # of phi/2
    root, alpha = 2.0 * math.sqrt(x) / (1.0 + x), (1.0 - x) / (1.0 + x)
    sin_t, cos_t = root * sin_phi, np.hypot(cos_phi, alpha * sin_phi)  # of theta/2
    # sin((phi - theta)/2) = alpha^2 sin(phi/2) / (sqrt(w) cos(phi/2) + cos(theta/2))
    gap = np.arctan2(alpha * alpha * sin_phi / (root * cos_phi + cos_t),
                     cos_phi * cos_t + sin_t * sin_phi)
    mult = np.full(m.size, 2)
    if m.size:  # m = 0, the first, and m = N/2 of an even N, the last, are single
        mult[0] -= m[0] == 0
        mult[-1] -= 2 * m[-1] == n
    angles = 2.0 * np.arctan2(sin_t, cos_t), 2.0 * np.arctan2(cos_t, sin_t), 2.0 * gap, 2.0 * half
    return angles, mult


def dispersion_2n(q, cfg, slow_exact=False):
    """Imaginary-axis 2N dispersion numerator.

    D_N(q) = 2 (1-alpha^2)^N - [lambda_plus^N(iq) + lambda_minus^N(iq)]
           = -4 (1-alpha^2)^N sinh^2(N theta(q) / 2),

    with sinh(theta/2) = sinh(q/2) / sqrt(1-alpha^2).  The second form is
    exact and free of the q -> 0 cancellation of the eigenvalue-power form.
    Strictly negative for q > 0; identically 2 - 2 cosh(Nq) at x = 1.
    Evaluated as -exp(ln 4 + 2 ln sinh(Nq/2) + ``imag_axis_log_ratio_2n``),
    which keeps its relative accuracy at every x and q; ``slow_exact`` takes the
    first form from ``lambda_pair`` (x > 0), a cross-check whose relative error
    grows like eps/(Nq)^2 as q -> 0.  Past N q of about 709 both are -inf.
    """
    _real("q", q, lambda v: v >= 0, ">= 0")
    n = _instance("dispersion_2n", cfg, NPieceConfig).piece_pairs
    if slow_exact:  # D = -lambda_+^N [1 + (lambda_-/lambda_+)^N - 2 (w/lambda_+)^N]
        alpha = alpha_param(cfg.tension_ratio)
        pair = lambda_pair(alpha, min(q, 710.0))  # math.cosh overflows past 710.5, D is -inf
        w, plus = 1.0 - alpha * alpha, pair.lambda_plus
        bracket = 1.0 + (pair.lambda_minus / plus) ** n - 2.0 * (w / plus) ** n
        if q == 0.0 or bracket <= 0.0:  # 0 at q = 0, and where the bracket rounds away
            return 0.0
        exponent = n * math.log(plus) + math.log(bracket)
    else:
        ratio = imag_axis_log_ratio_2n(q, cfg)
        if q == 0.0:
            return 0.0
        exponent = math.log(4.0) + 2.0 * float(log_sinh(n * q / 2.0)) + ratio
    return -math.exp(exponent) if exponent < 709.7827 else -math.inf  # ln of the largest float


def imag_axis_log_ratio(xi, cfg):
    """Log of the two-piece dispersion ratio on the imaginary frequency axis.

    ln[(F + sinh(xi L_I) sinh(s xi L_I) / sinh^2(xi L / 2)) / (F + 1)]
      = log1p(-r^2 / (F + 1)),   r = sinh(d xi / 2) / sinh(L xi / 2),

    where d = L |s-1|/(s+1) is the piece-length difference.  This is the
    zero-temperature contour integrand and the Matsubara summand; it is
    <= 0 everywhere, equals log1p(-((s-1)/(s+1))^2 / (F+1)) at xi = 0, and
    decays like exp(-2 xi min(L_I, L_II)).  r is formed as
    e^{-m xi} expm1(-d xi) / expm1(-L xi) with m = min(L_I, L_II), three
    transcendental calls in which the parts linear in xi cancel
    algebraically, not in rounding; it is d/L at xi = 0.  Where
    r^2/(F+1) > 1/2, which needs F < 1 and s outside [3-2 sqrt 2, 3+2 sqrt 2],
    1 - r^2 would cancel, so there the log is ln[(F + (1-r)(1+r)) / (F+1)] with
    ln(1-r) = ln(1 + e^{-(L-m) xi}) + ln(1 - e^{-m xi}) - ln(1 - e^{-L xi}),
    2m/L at xi = 0: the relative accuracy holds for every s.  Identically
    zero for s = 1 or x = 1.  Takes scalar or array xi >= 0, finite, and xi L <= 1e-290 as 0; else,
    or where a piece length rounds to 0, DomainError: the checks around the unchecked body
    ``_log_ratio``, which the kernel passes call directly.
    """
    xi, scalar = _nonnegative_array("xi", xi)
    pieces = _instance("imag_axis_log_ratio", cfg, StringConfig).piece_length_i, cfg.piece_length_ii
    if not min(pieces) > 0.0:
        raise DomainError(f"piece lengths {pieces[0]:g} and {pieces[1]:g} must both be > 0")
    with np.errstate(over="ignore"):  # m xi past the float range, where the ratio is 0
        out = _log_ratio(xi.ravel(), cfg).reshape(xi.shape)
    return float(out[0]) if scalar else out


def _log_ratio(xi, cfg):
    # imag_axis_log_ratio, unchecked, of a finite 1-d float array xi >= 0 in any order, m > 0
    s, length = cfg.length_ratio, cfg.total_length
    if cfg.tension_ratio == 1.0 or s == 1.0:
        return np.zeros_like(xi)
    d, m = length * abs(s - 1.0) / (s + 1.0), min(cfg.piece_length_i, cfg.piece_length_ii)
    d = d if d < math.inf else length * (abs(s - 1.0) / (s + 1.0))  # L |s - 1| past the float range
    zero = xi <= 1e-290 / length  # there the xi -> 0 limit holds far below rounding
    r = np.divide(np.exp(-m * xi) * np.expm1(-d * xi), np.expm1(-length * xi),
                  out=np.full_like(xi, d / length), where=~zero)
    f = _contrast_or_zero(cfg.tension_ratio)
    part = r * r / (f + 1.0)
    if (d / length) ** 2 <= 0.5 * (f + 1.0):  # r <= d/L keeps every r^2/(F+1) <= 1/2
        return np.log1p(-part)
    lead = _log1mexp(m * xi)  # ln(1 - e^{-m xi}), as ln m + ln xi where m xi is subnormal
    sub = (m * xi < np.finfo(float).tiny) & (xi > 0.0)
    lead[sub] = math.log(m) + np.log(xi[sub])
    gap = np.exp(np.log1p(np.exp(-(length - m) * xi)) + lead - _log1mexp(length * xi))
    gap[zero] = 2.0 * m / length
    return np.where(part > 0.5, np.log((f + gap * (1.0 + r)) / (f + 1.0)),
                    np.log1p(-np.minimum(part, 0.5)))


def imag_axis_log_ratio_2n(q, cfg):
    """Log of the 2N dispersion ratio on the imaginary axis.

    ln|D_N(q) / (4 sinh^2(Nq/2))|
      = N ln w + 2 [ln sinh(N theta(q)/2) - ln sinh(Nq/2)],  w = 1-alpha^2.

    Finite limit (N-1) ln w at q = 0 for x > 0.  At x = 0 the expression
    degenerates to 2 ln[2^{N-1} sinh^N(q/2) / sinh(Nq/2)] with an
    integrable log singularity at q = 0.  Identically zero for N = 1 or
    x = 1.  Evaluated as N(ln w + delta) + 2 ln[1 + (1 - e^{-N delta}) /
    (e^{Nq} - 1)] with delta = theta - q, each factor formed without a
    difference of nearly equal terms, so the relative accuracy holds as
    q -> 0 and as x -> 1.  Scalar or array q >= 0, finite, else DomainError: the check
    around the unchecked body ``_log_ratio_2n``, which the kernel passes call directly.
    """
    q, scalar = _nonnegative_array("q", q)
    with np.errstate(over="ignore"):  # N q past the float range, where the ratio is 0
        out = _log_ratio_2n(q, _instance("imag_axis_log_ratio_2n", cfg, NPieceConfig))
    return float(out[0]) if scalar else out


def _log_ratio_2n(q, cfg):
    # imag_axis_log_ratio_2n, unchecked, of a finite float array q >= 0
    n, x = cfg.piece_pairs, cfg.tension_ratio
    if x == 1.0 or n == 1:
        return np.zeros_like(q)
    if x == 0.0:  # the linear-in-q parts cancel exactly: ratio = (1 - e^{-q})^N / (1 - e^{-Nq})
        return np.where(q == 0.0, -np.inf, 2.0 * (n * _log1mexp(q) - _log1mexp(n * q)))
    w, a2 = 4.0 * x / (1.0 + x) ** 2, ((1.0 - x) / (1.0 + x)) ** 2  # w = 1 - a2
    log_growth = _log_growth(q, w, a2)  # ln sqrt(w) at q = 0, where the ratio is (N-1) ln w
    with np.errstate(over="ignore", invalid="ignore"):  # e^{Nq} past 709; 0/0 at q = 0
        growth = -np.expm1(-n * _theta_minus_q(q, w, a2)) / np.expm1(n * q)
    return np.where(q == 0.0, 2.0 * (n - 1) * log_growth, 2.0 * n * log_growth + 2.0 * np.log1p(growth))
