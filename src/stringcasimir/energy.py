"""Zero-temperature Casimir energies by contour integration.

The regularized energy is the deviation of the composite string's
zero-point energy from the uniform string of the same total length,
expressed as an integral of the log dispersion ratio along the imaginary
frequency axis:

    two-piece:  E = (1/2 pi) Int_0^inf ln|ratio(xi)| d xi
    2N-piece:   E_N(x) = (1/2 pi) Int_0^inf ln|ratio_N(xi L / N)| d xi

The log ratios come from :mod:`.core`, the 2N one in q = xi L/N, and
``_integrand`` is the one integrand in xi of both.  They vanish identically in the
degenerate cases (s = 1, x = 1, N = 1), are negative otherwise, and decay
exponentially, so the integrals are truncated where the rest falls below
e^{-40} of the whole.  Each is a trapezoid sum after the double-exponential
map xi = exp(t - e^{-t}) / L, which resolves the piece scales and the
xi -> 0 end.  The same kernel takes the Matsubara sums of :mod:`.thermal`
and, through the same map, the modulus integral of :mod:`.quantum`, whose
rows (value, rounding, beta slope) it sums in one pass; an integrand with
more than a few eps of evaluation error returns it as such a second row.
Each call of an integrand costs mostly a fixed overhead, so the kernel's
first call evaluates all the levels that fit in 320 nodes at once; its
evaluation count is every node evaluated, used or not.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import NPieceConfig, StringConfig, _bloch_angles, _log_ratio, _log_ratio_2n
from .errors import DomainError, QuadratureError, _count, _instance, _real

__all__ = ["EnergyResult", "casimir_two_piece", "casimir_two_piece_x0", "casimir_2n",
           "casimir_2n_x0", "scaling_function", "scaling_fit"]

# Relative evaluation error allowed per node.  It also covers what the
# truncation points drop, which is below e^{-40} of the sum.
_NOISE = 64.0 * sys.float_info.epsilon
_BLOCK = 1 << 14  # nodes per call of the integrand, which bounds memory
# Most nodes of the first call.  A modulus integral's levels 0-4, 258 nodes, take one call of
# 0.36 ms where two calls of 129 took 0.28 + 0.27 ms.  A Matsubara lattice's first call takes
# levels 0-2, the three its accept rule needs, and level 3 where its coarsest holds under 40
# intervals (512 nodes made the two-piece sums of a benchmark pass 2-5% slower, measured when
# the lattice started at 8 to 15 nodes).
_BATCH = 320
_MAX_NODES = 1 << 23


@dataclass(frozen=True)
class EnergyResult:
    """A regularized energy with its provenance and error estimate."""

    value: float
    method: str  # contour | analytic-limit | cutoff-oracle | matsubara | mode-sum
    abs_error_estimate: float = 0.0

    def __post_init__(self):
        _real("abs_error_estimate", self.abs_error_estimate, lambda v: v >= 0, ">= 0")
        if self.method not in ("contour", "analytic-limit", "cutoff-oracle", "matsubara", "mode-sum"):
            raise DomainError(f"unknown method tag {self.method!r}")


def _trapezoid(g, a, b, step, halvings=None):
    """Trapezoid sums S(h) = h [g(a)/2 + sum_{m>=1} g(a + m h)], a + m h <= b,
    with h = step, step/2, ...  The first call of g evaluates every level
    whose nodes together fit in _BATCH (up to ``halvings``), and each of these
    levels sums its new nodes as a strided slice of that one array.  The nodes
    are the same floats as level by level (h m = (h / 2^j)(m 2^j) exactly), so
    are the sums.  Each later level evaluates its new nodes, _BLOCK per call.
    g may return rows: the values, their evaluation errors (>= 0), then any
    others, each summed by the same per-level fsums; row 0 alone is tested.
    The values must be one-signed, as every integrand here is: the log ratios
    are <= 0 (times the contour map's q(1 + e^{-t}) > 0), and the modulus
    integral's row 0 is e^{excess} >= 0.

    The noise bound is _NOISE h sum|g| + h sum(error), sum|g| taken as the
    sum of each block's |sum g|, equal for one-signed values.  A level is accepted
    when |S(h) - S(2h)| is within it and shrank eightfold, as only
    super-geometric convergence does.
    With ``halvings`` = K the level step/2^K is itself the answer (a Matsubara
    lattice), returned with the noise bound if no earlier level is accepted;
    without, two differences within noise in a row also end the sums.
    Returns (value, error bound, evaluations), the value the list of row sums
    for rows, where the evaluations count every node g was called at,
    including batched levels past the accepted one; raises past _MAX_NODES.
    """
    depth = 0  # the deepest level of the first call
    while depth != halvings and 0 < (b - a) / (step / 2 ** (depth + 1)) < _BATCH:
        depth += 1
    parts, extra, mass, evals = [], [], 0.0, 0
    value = diff = bound = math.nan
    for k in itertools.count():
        h = step / 2**k
        if k == 0 or k > depth:  # a call of g: the levels 0..depth, or level k
            fine = step / 2 ** max(k, depth)
            top = int((b - a) / fine)
            first, stride = (0, 1) if k == 0 else (1, 2)
            evals += (top - first) // stride + 1
            if evals > _MAX_NODES:
                raise QuadratureError(f"sum needs over {_MAX_NODES} nodes", value, abs_error=diff)
            blocks = [g(a + fine * np.arange(lo, min(lo + stride * _BLOCK, top + 1), stride))
                      for lo in range(first, top + 1, stride * _BLOCK)]
            if k == 0:
                blocks[0][..., 0] *= 0.5
                batch = blocks[0]  # all of the first call when depth > 0
        if 0 < depth and k <= depth:
            r = 2 ** (depth - k)  # level k's new nodes in the first call
            blocks = [batch[..., ::r] if k == 0 else batch[..., r :: 2 * r]]
        for v in blocks:
            if v.ndim > 1:  # rows: the values, then their errors and others
                v, *others = v
                extra.append([math.fsum(row.tolist()) for row in others])
            parts.append(math.fsum(v.tolist()))
            mass += abs(parts[-1])  # sum|g|, as row 0 is one-signed
        sums = [h * math.fsum(row) for row in zip(*extra)]  # none for one array
        value, prev, noise = h * math.fsum(parts), value, sum(sums[:1])
        last, last_bound, diff, bound = diff, bound, abs(value - prev), _NOISE * h * mass + noise
        out = [value, *sums] if sums else value
        if k == halvings:
            return out, bound, evals
        if diff <= bound and (8.0 * diff <= last or halvings is None and last <= last_bound):
            return out, diff + bound, evals


def _contour(f, scale, q_max):
    """(Int_0^q_max f(q) dq, error bound) through q = scale exp(t - e^{-t}) from
    t = -4.5 (q = scale e^{-94.5}, below which nothing counts) to q_max; f may return rows.
    QuadratureError where a node or a sum overflows."""

    def g(t):
        e = np.exp(-t)
        q = scale * np.exp(t - e)
        return f(q) * q * (1.0 + e)

    y = math.log(q_max / scale)  # q(y + e^{-y}) is just above q_max
    try:
        with np.errstate(over="raise"):
            return _trapezoid(g, -4.5, y + math.exp(-y), 0.5)[:2]
    except (FloatingPointError, OverflowError):
        raise QuadratureError(f"integral to {q_max:g} not representable in double precision") from None


def _representable(value):
    """``value`` if it is a float, else QuadratureError: an energy past the float range."""
    if not math.isfinite(value):
        raise QuadratureError(f"energy not representable in double precision: {value}")
    return value


def _integrand(cfg):
    """(1/2 pi) ln|ratio(xi)| of a StringConfig or an NPieceConfig and its truncation
    point: the unchecked bodies ``core._log_ratio``, decaying like e^{-2 m xi}, and ``_log_ratio_2n``
    at q = xi L/N, like 2N e^{-q}, 0 at xi = 0 at x = 0 (the dropped zero mode), on finite nodes
    >= 0.  This is the energies' one check: DomainError where the truncation point, alone or
    times L, is not a float (a piece length that rounds to 0 among them)."""
    if isinstance(cfg, StringConfig):
        reach, piece = 21.0, min(cfg.piece_length_i, cfg.piece_length_ii)
        f = lambda xi: _log_ratio(xi, cfg) / (2.0 * math.pi)
    else:
        reach, piece = 48.0 + math.log(1.0 + cfg.piece_pairs), cfg.total_length / cfg.piece_pairs

        def f(xi):  # piece is q per unit xi; the contour's first xi underflows to 0 past L = 1e282
            value = _log_ratio_2n(xi * piece, cfg) / (2.0 * math.pi)
            return np.where(xi > 0.0, value, 0.0) if cfg.tension_ratio == 0.0 else value

    if not (piece > 0.0 and math.isfinite(reach / piece * cfg.total_length)):
        raise DomainError(f"length scales {piece:g} and L = {cfg.total_length:g} put the "
                          "truncation point past the float range")
    return f, reach / piece


def _vanishes(cfg):
    """Whether the integrand of ``cfg`` is identically 0: at x = 1, s = 1 or N = 1."""
    other = cfg.length_ratio if isinstance(cfg, StringConfig) else cfg.piece_pairs
    return cfg.tension_ratio == 1.0 or other == 1


def casimir_two_piece(cfg):
    """Zero-temperature Casimir energy of the two-piece string.

    Always <= 0, vanishing exactly for s = 1 (equal pieces) and x = 1
    (uniform string); both are short-circuited analytically.
    """
    _instance("casimir_two_piece", cfg, StringConfig)
    if _vanishes(cfg):
        return EnergyResult(0.0, "analytic-limit", 0.0)
    f, xi_max = _integrand(cfg)
    value, err = _contour(f, 1.0 / cfg.total_length, xi_max)
    return EnergyResult(value, "contour", err)


def casimir_two_piece_x0(s, total_length):
    """Decoupled-limit (x -> 0) closed form  -(pi / 24 L)(s + 1/s - 2)."""
    StringConfig(s, 0.0, total_length)  # checks s and L
    value = -(math.pi / (24.0 * total_length)) * (s + 1.0 / s - 2.0)
    return EnergyResult(_representable(value), "analytic-limit", 0.0)


def casimir_2n(cfg, slow_exact=False):
    """Zero-temperature Casimir energy of the 2N-piece string.

    E_1 = 0 for every x; |E_N| grows with N at fixed x < 1.  At x = 0 the
    integrand has an integrable logarithmic singularity at xi = 0, which
    the double-exponential map resolves.  ``slow_exact`` takes the exact
    Bloch sum ``_bloch_energy`` instead (``mode-sum``, x = 0 included, N up
    to 2^20), a cross-check that shares nothing with the contour.
    """
    _instance("casimir_2n", cfg, NPieceConfig)
    if _vanishes(cfg):
        return EnergyResult(0.0, "analytic-limit", 0.0)
    if slow_exact:
        if cfg.piece_pairs > 1 << 20:
            raise DomainError("slow_exact sums N/2 + 1 Bloch angles: N must be at most 2^20")
        value, err = _bloch_energy(cfg)
        return EnergyResult(_representable(value), "mode-sum", err)
    f, xi_max = _integrand(cfg)
    value, err = _contour(f, 1.0 / cfg.total_length, xi_max)
    return EnergyResult(value, "contour", err)


def _bloch_energy(cfg, angles=None):
    """E_N = pi/(6L) - (pi N/L) sum_{m<N} B_2(theta_m / 2 pi), B_2(a) = a^2 - a + 1/6 (the Hurwitz
    zeta value of the Bloch spectrum, from ``angles`` = ``_bloch_angles(cfg)``), and its rounding bar.
    The uniform angles phi_m give pi/(6L) and B_2(a) - B_2(b) = (a - b)(a + b - 1), so
    E_N = -(N/4 pi L) sum_m (phi_m - theta_m)(2 pi - theta_m - phi_m), a sum of terms >= 0."""
    (_, rest, gap, rest_phi), mult = _bloch_angles(cfg) if angles is None else angles
    total = math.fsum((mult * gap * (rest + rest_phi)).tolist())
    value = -cfg.piece_pairs / (4.0 * math.pi * cfg.total_length) * total
    return value, _NOISE * abs(value)


def casimir_2n_x0(piece_pairs, total_length):
    """Decoupled-limit closed form  -(pi / 6 L)(N^2 - 1), with N^2 a float (inf past their range)."""
    NPieceConfig(piece_pairs, 0.0, total_length)  # checks N and L
    lead = math.pi / (6.0 * total_length) or math.pi / 6.0 / total_length  # 0 where 6 L overflows
    value = -lead * (float(piece_pairs) * piece_pairs - 1.0)
    return EnergyResult(_representable(value), "analytic-limit", 0.0)


def scaling_function(piece_pairs, x):
    """Energy ratio f_N(x) = E_N(x) / E_N(0), in (0, 1) for 0 < x < 1.

    Strictly decreasing in x.  The Bloch sum gives the scaling collapse
    f_N = f_inf - (1 - sqrt(w) - f_inf)/(N^2 - 1) + O(N^-4), w = 4x/(1+x)^2,
    f_inf = 6 Int_0^1 B_2(theta(t)/2 pi) dt, sin(theta/2) = sqrt(w)|sin pi t|;
    1 - sqrt(w) - f_inf is at most 0.0455, so f_N hardly depends on N >= 2.
    """
    _count("piece_pairs", piece_pairs, least=2)  # f_1 is 0/0
    _real("x", x, lambda v: 0 < v < 1, "in (0, 1)")
    num = casimir_2n(NPieceConfig(piece_pairs, x))
    den = casimir_2n_x0(piece_pairs, math.pi)
    return num.value / den.value


def scaling_fit(x):
    """Empirical fit (1 - sqrt(x))^{5/2} to the collapse limit f_inf on [0, 1]; it fails near
    x = 1, where f_inf ~ 0.11 (1-x)^2; fit/f_inf is 0.956 at x = 0.5, 0.511 at 0.9, 0.167 at 0.99."""
    _real("x", x, lambda v: 0 <= v <= 1, "in [0, 1]")
    return (1.0 - math.sqrt(x)) ** 2.5
