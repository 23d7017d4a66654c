"""Eigenfrequency spectra of the two-piece string.

Up to the positive factor 2(F+1), the dispersion function is
g(omega) = F + cos(omega D) - (F+1) cos(omega L), with D = L_II - L_I and
|D| < L.  At the odd points (2k+1) pi/L it equals 2F + 1 + cos(omega D),
which is positive for x > 0; at the even points 2 pi k/L it equals
-2 sin^2(pi frac(2k/(1+s))) <= 0.  On each vertical line through an odd
point Re g >= F (1 + cosh(L Im omega)) > 0, and far from the real axis the
cos(omega L) term dominates, so the argument principle finds exactly as
many complex zeros in the strip between neighbouring odd points as
1 - cos(omega L) has: two (Polya's theorem on exponential sums; B. Ya.
Levin, Distribution of Zeros of Entire Functions, AMS 1964).  The signs
make both real, one in each half-period, and leave none in (0, pi/L],
whose strip holds the double zero at omega = 0.  The exception is an even point where
2k/(1+s) is an integer: g and g' both vanish there, and it is a double
root with both neighbouring half-periods empty.

So the spectrum needs no scan and no per-root winding.  The sign at each
even point is taken from the closed form, never from g, whose rounding
can flip it next to a double root.  Every other half-period is bisected
in one vectorised pass down to adjacent floats, and a pair of roots either
side of an even point that the bisection cannot tell apart becomes one
double root there.  At x = 0, where F = 0 and g can also vanish at the
odd points, the spectrum is the union of the decoupled branches n pi/L_I
and m pi/L_II, coincident roots merged; at x = 1 it is the same closed
form for two halves of length L/2, the uniform string's 2 pi n/L, each
double.  Only ``count_modes`` still winds: once, around a whole window, as
a count independent of the interlacing.  The module needs numpy only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import StringConfig, dispersion_two_piece
from .errors import DomainError, MultiplicityUndecidedError, _count, _instance, _positive

__all__ = [
    "Spectrum",
    "ContourCount",
    "find_spectrum",
    "count_modes",
    "branch_spectrum_x0",
    "uniform_spectrum",
]

# A conservative bound on a polished root's relative error; two roots split
# by less are one double root.
_BISECT_RTOL = 1e-13
# Most half-periods pi/L up to omega_max that a spectrum spans: the bisection
# holds about 100 B per half-period (26 MB at the limit), and count_modes
# winds about 2.4 kB per root.
_MAX_HALF_PERIODS = 1 << 18
_MAX_WOUND_ROOTS = 1 << 13


@dataclass(frozen=True)
class Spectrum:
    """Sorted positive eigenfrequencies with integer multiplicities."""

    entries: tuple
    omega_max: float

    def __post_init__(self):
        omegas = [w for w, _ in self.entries]
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise DomainError("spectrum entries must be strictly increasing")
        for _, m in self.entries:
            _count("multiplicity", m)
        _positive("omega_max", self.omega_max)

    def omegas(self):
        return np.array([w for w, _ in self.entries])

    def multiplicities(self):
        return np.array([m for _, m in self.entries], dtype=int)

    def total_count(self):
        """Number of modes counted with multiplicity."""
        return int(sum(m for _, m in self.entries))


@dataclass(frozen=True)
class ContourCount:
    """Zeros-minus-poles count inside a rectangle in the frequency plane."""

    zeros_minus_poles: int
    contour: tuple  # (re_min, re_max, im_extent)


def _winding_number(func, re_lo, re_hi, height, n_start=64, n_max=8192):
    """Accumulated-phase winding of func around the rectangle
    (re_lo, re_hi) x (-height, height).

    The sampling doubles from n_start until two consecutive levels round to
    the same integer and land within 0.01 of it; a level with a zero or a
    non-finite value is passed over and leaves the previous level's integer
    standing.
    """
    prev = None
    n = n_start
    while n <= n_max:
        edge = lambda a, b: np.linspace(a, b, max(n // 4, 8), endpoint=False)
        vals = func(np.concatenate([edge(re_lo, re_hi) - 1j * height,
                                    re_hi + 1j * edge(-height, height),
                                    edge(re_hi, re_lo) + 1j * height,
                                    re_lo + 1j * edge(height, -height)]))
        if np.all(np.isfinite(vals) & (vals != 0)):
            wind = np.sum(np.angle(np.roll(vals, -1) / vals)) / (2.0 * math.pi)
            near = round(wind)
            if abs(wind - near) >= 0.01:
                near = None
            elif near == prev:
                return int(near)
            prev = near
        n *= 2
    raise MultiplicityUndecidedError(
        f"multiplicity-undecided: winding failed to stabilize on ({re_lo:.6g}, {re_hi:.6g})"
    )


def _bisect(f, lo, hi, side):
    """Roots of the vectorised f in the brackets [lo, hi], across each of which
    f changes sign from ``side`` at lo: every bracket is halved at once until
    its ends are adjacent floats, and the end with the smaller |f| is
    returned.  The sign at lo is given, so rounding of f there cannot flip
    it."""
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (lo < mid) & (mid < hi)
        if not open_.any():
            return np.where(np.abs(f(lo)) <= np.abs(f(hi)), lo, hi)
        same = np.sign(f(mid)) == side
        lo = np.where(open_ & same, mid, lo)
        hi = np.where(open_ & ~same, mid, hi)


def _merged(roots):
    """Distinct roots and their multiplicities: neighbours closer than the
    bisection's resolution are one root."""
    roots = np.sort(roots)
    first = np.flatnonzero(np.diff(roots, prepend=-math.inf) > _BISECT_RTOL * roots)
    return roots[first], np.diff(first, append=roots.size)


def _omega_limit(length, limit=_MAX_HALF_PERIODS):  # the most omega_max within limit half-periods pi/L
    return limit * math.pi / length


def _roots(cfg, omega_max, limit=_MAX_HALF_PERIODS):
    """Distinct positive roots of the dispersion function, sorted, with their
    multiplicities: every root up to omega_max and perhaps a few above.  Over
    ``limit`` half-periods pi/L it raises before anything is allocated."""
    length = cfg.total_length
    if omega_max > _omega_limit(length, limit):
        raise DomainError(f"omega_max={omega_max:g} spans over the limit of {limit} half-periods pi/L "
                          f"(L={length:g}): lower it")
    x, s = cfg.tension_ratio, cfg.length_ratio
    if x in (0.0, 1.0):  # decoupled pieces; at x = 1 two equal halves have the same modes
        pieces = (cfg.piece_length_i, cfg.piece_length_ii) if x == 0.0 else (0.5 * length,) * 2
        if not min(pieces) > 0.0:
            raise DomainError(f"piece lengths {pieces[0]:g} and {pieces[1]:g} must both be > 0")
        return _merged(np.concatenate([np.arange(1, omega_max * piece / math.pi + 2) * (math.pi / piece)
                                       for piece in pieces]))
    step = math.pi / length
    two_k = 2.0 * np.arange(1, omega_max / (2.0 * step) + 2)
    depth = np.sin(math.pi * np.modf(two_k / (1.0 + s))[0]) ** 2
    split, double = two_k[depth > 0], two_k[depth == 0] * step
    g = lambda w: dispersion_two_piece(w, cfg)
    lo = np.concatenate([(split - 1.0) * step, split * step])
    hi = np.concatenate([split * step, (split + 1.0) * step])
    left, right = np.split(_bisect(g, lo, hi, np.repeat([1.0, -1.0], split.size)), 2)
    close = right - left <= _BISECT_RTOL * right
    left[close] = right[close] = split[close] * step
    return _merged(np.concatenate([left, right, double, double]))


def find_spectrum(cfg, omega_max):
    """All eigenfrequencies in (0, omega_max] with their multiplicities.

    One root per half-period between the points k pi/L, bisected to
    adjacent floats, except for the double roots at even points where
    2k/(1+s) is an integer (see the module docstring); x = 0 and x = 1
    take their closed forms.  Past 2^18 half-periods (omega_max L / pi)
    raises DomainError before anything is allocated.
    """
    _instance("find_spectrum", cfg, StringConfig)
    _positive("omega_max", omega_max)
    roots, mults = _roots(cfg, omega_max)
    keep = roots <= omega_max * (1.0 + 1e-12)
    entries = tuple(zip(roots[keep].tolist(), mults[keep].tolist()))
    return Spectrum(entries=entries, omega_max=omega_max)


def count_modes(cfg, omega_max, im_extent=0.5):
    """Total zero count of the dispersion function in (0, omega_max) by the
    argument principle.

    The contour is the rectangle (re_min, re_max) x (-h, +h).  Its left
    edge sits below the first root (the trivial zero at omega = 0 is
    excluded) and its right edge halfway between the last root up to
    omega_max (a root within 1e-12 of omega_max, relative, counts as on it)
    and the next, so no root lies near either edge.  The contour actually
    used is returned so callers can compare against the same interval.
    Past 2^13 half-periods, or an im_extent L over 700, raises DomainError.
    """
    _instance("count_modes", cfg, StringConfig)
    _positive("omega_max", omega_max)
    _positive("im_extent", im_extent)
    if im_extent * cfg.total_length > 700.0:  # where sin^2(omega L / 2) overflows
        raise DomainError(f"im_extent * L must not exceed 700, got {im_extent * cfg.total_length:g}")
    # consecutive roots are at most 2 pi/L apart, so the next root above omega_max is in
    roots = _roots(cfg, omega_max + 4.0 * math.pi / cfg.total_length, _MAX_WOUND_ROOTS)[0]
    below = np.count_nonzero(roots <= omega_max * (1.0 + 1e-12))
    if below == 0:
        return ContourCount(0, (0.5 * omega_max, omega_max, im_extent))

    re_min = 0.5 * roots[0]
    re_max = 0.5 * (roots[below - 1] + roots[below])
    func = lambda z: dispersion_two_piece(z, cfg)
    count = _winding_number(
        func,
        re_min,
        re_max,
        im_extent,
        n_start=max(256, 16 * below),
        n_max=max(16384, 256 * below),
    )
    return ContourCount(count, (re_min, re_max, im_extent))


def branch_spectrum_x0(s, branch, n_max):
    """Decoupled-limit (x = 0) eigenfrequency branches for integer s.

    First branch: omega_n = (1+s) n; second branch: omega_n = (1+1/s) n,
    n = 1..n_max.  Positive frequencies only, one entry per n; coincident
    frequencies between the two branches are the caller's bookkeeping.
    """
    _count("s", s)
    if _count("n_max", n_max) > _MAX_HALF_PERIODS:  # about 100 B per entry
        raise DomainError(f"n_max={n_max} is over the limit of {_MAX_HALF_PERIODS} entries")
    if branch == "first":
        rate = 1.0 + s
    elif branch == "second":
        rate = 1.0 + 1.0 / s
    else:
        raise DomainError(f"branch must be 'first' or 'second', got {branch!r}")
    entries = tuple((rate * n, 1) for n in range(1, n_max + 1))
    return Spectrum(entries=entries, omega_max=rate * n_max)


def uniform_spectrum(total_length, omega_max):
    """Uniform closed string: omega_n = 2 pi n / L, each doubly degenerate, up to
    omega_max; ``find_spectrum`` at x = 1, so a mode within 1e-12 of omega_max,
    relative, counts."""
    return find_spectrum(StringConfig(1.0, 1.0, total_length), omega_max)
