"""Eigenfrequency spectra of the two-piece string.

Real roots of the dispersion function are located by a fine bracketing
scan, and every multiplicity is confirmed by an argument-principle winding
integral on a small rectangle around the root.  The windings of all roots
are computed together: each sampling level evaluates the perimeters of
every rectangle not yet settled as one array, in blocks of at most
_BLOCK_NODES nodes, so memory stays bounded.  Tangential zeros (where the
dispersion function touches zero without a sign change, e.g. the doubly
degenerate modes of the uniform string) are caught by refining local
extrema to critical points and testing the winding there; naive
sign-change counting alone would miss them.  Roots and critical points are
polished by one vectorised bisection that halves all brackets at once down
to adjacent floats, so the module needs numpy only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import StringConfig, dispersion_two_piece, dispersion_two_piece_deriv
from .errors import DomainError, MultiplicityUndecidedError, _count, _positive

__all__ = [
    "Spectrum",
    "ContourCount",
    "find_spectrum",
    "count_modes",
    "branch_spectrum_x0",
    "uniform_spectrum",
]

_BISECT_RTOL = 1e-13  # a conservative bound on a polished root's relative error
_MERGE_TOL = 1e-9
_BLOCK_NODES = 2**13  # perimeter nodes evaluated at once by _winding_number


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


def _perimeters(lo, hi, height, per_edge):
    """Counter-clockwise perimeter nodes of the rectangles
    (lo, hi) x (-height, height), one row of 4 per_edge nodes each."""
    edge = lambda a, b: np.linspace(a, b, per_edge, endpoint=False, axis=1)
    col = lambda a: a[:, None]
    return np.concatenate([edge(lo, hi) - 1j * col(height),
                           col(hi) + 1j * edge(-height, height),
                           edge(hi, lo) + 1j * col(height),
                           col(lo) + 1j * edge(height, -height)], axis=1)


def _winding_number(func, re_lo, re_hi, height, n_start=64, n_max=8192, roots=None):
    """Accumulated-phase winding of func around each rectangle
    (re_lo, re_hi) x (-height, height): an int array, or a plain int for
    scalar bounds.

    Each rectangle doubles its sampling from n_start until two consecutive
    levels round to the same integer and land within 0.01 of it; a level
    with a zero or a non-finite value is passed over and leaves the
    previous level's integer standing.  Settled rectangles leave the
    pending set, and each level is evaluated in blocks of whole rectangles
    of at most _BLOCK_NODES nodes (or one rectangle, if it alone has more).
    The error for the first rectangle still undecided past n_max names its
    entry of ``roots``.
    """
    scalar = np.ndim(re_lo) == np.ndim(re_hi) == np.ndim(height) == 0
    lo, hi, h = np.broadcast_arrays(*np.atleast_1d(re_lo, re_hi, height))
    prev = np.full(len(lo), np.nan)  # the last level's integer, or nan
    pending = np.arange(len(lo))
    n = n_start
    while pending.size and n <= n_max:
        per_edge = max(n // 4, 8)
        rows = max(1, _BLOCK_NODES // (4 * per_edge))
        settled = np.zeros(pending.size, dtype=bool)
        for b in range(0, pending.size, rows):
            k = pending[b:b + rows]
            vals = func(_perimeters(lo[k], hi[k], h[k], per_edge))
            with np.errstate(divide="ignore", invalid="ignore"):
                phases = np.angle(np.roll(vals, -1, axis=1) / vals)
            wind = np.sum(phases, axis=1) / (2.0 * math.pi)
            near = np.rint(wind)
            usable = np.all(np.isfinite(vals) & (vals != 0), axis=1)
            close = usable & (np.abs(wind - near) < 0.01)
            settled[b:b + rows] = close & (prev[k] == near)
            prev[k] = np.where(close, near, np.where(usable, np.nan, prev[k]))
        pending = pending[~settled]
        n *= 2
    if pending.size:
        i = pending[0]
        if roots is None:
            raise MultiplicityUndecidedError(
                f"multiplicity-undecided: winding failed to stabilize on ({lo[i]:.6g}, {hi[i]:.6g})"
            )
        raise MultiplicityUndecidedError(
            f"multiplicity-undecided at omega={roots[i]:.12g}", omega=float(roots[i])
        )
    wind = prev.astype(int)
    return int(wind[0]) if scalar else wind


def _scan_grid(cfg, omega_max):
    s = cfg.length_ratio
    step = math.pi * min(1.0, s) / (4.0 * cfg.total_length * (1.0 + s))
    n = int(math.ceil(omega_max / step)) + 1
    grid = np.linspace(0.0, omega_max, n + 1)
    return grid, dispersion_two_piece(grid, cfg)


def _bisect(f, lo, hi):
    """Roots of the vectorised f in the brackets [lo, hi], across each of which
    f changes sign: every bracket is halved at once until its ends are
    adjacent floats, and the end with the smaller |f| is returned."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    side = np.sign(f(lo))
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (lo < mid) & (mid < hi)
        if not open_.any():
            return np.where(np.abs(f(lo)) <= np.abs(f(hi)), lo, hi)
        same = np.sign(f(mid)) == side
        lo = np.where(open_ & same, mid, lo)
        hi = np.where(open_ & ~same, mid, hi)


def _candidate_roots(cfg, grid, vals):
    """Bracketed sign-change roots plus refined tangential candidates."""
    g = lambda w: dispersion_two_piece(w, cfg)
    gp = lambda w: dispersion_two_piece_deriv(w, cfg)
    step = grid[1] - grid[0]

    sign_change = (vals[:-1] * vals[1:] < 0) & (grid[:-1] > 0)
    lo, hi = [grid[:-1][sign_change]], [grid[1:][sign_change]]

    # tangential / near-degenerate candidates: local extrema of g close to
    # zero, with no sign change on either side, refined to critical points
    dip_threshold = min(0.25, 2.0 * (cfg.total_length * step) ** 2)
    i = np.arange(1, len(grid) - 1)
    local_min = (vals[i] < vals[i - 1]) & (vals[i] <= vals[i + 1])
    local_max = (vals[i] > vals[i - 1]) & (vals[i] >= vals[i + 1])
    crossed = (vals[i - 1] * vals[i] < 0) | (vals[i] * vals[i + 1] < 0)
    i = i[(local_min | local_max) & (np.abs(vals[i]) < dip_threshold) & ~crossed]
    a, b = grid[i - 1], grid[i + 1]
    bracketed = gp(a) * gp(b) < 0
    i, a, b = i[bracketed], a[bracketed], b[bracketed]
    crit = _bisect(gp, a, b)
    gc = g(crit)
    touch = np.abs(gc) < 1e-9
    # a dip that crosses zero crosses it twice inside one cell
    twice = ~touch & (gc * vals[i - 1] < 0)
    lo += [a[twice], crit[twice]]
    hi += [crit[twice], b[twice]]
    roots = np.concatenate([crit[touch & (crit > 0)],
                            _bisect(g, np.concatenate(lo), np.concatenate(hi))])

    merged = []
    for r in np.sort(roots).tolist():
        if merged and abs(r - merged[-1]) < _MERGE_TOL * max(1.0, r):
            continue
        merged.append(r)
    return merged


def find_spectrum(cfg, omega_max):
    """All eigenfrequencies in (0, omega_max] with winding-confirmed
    multiplicities.

    Roots are bracketed on a grid finer than the tightest branch spacing,
    polished by bisection to adjacent floats, and each root's
    multiplicity is the winding number of the dispersion function around a
    small rectangle isolating it.
    """
    if not isinstance(cfg, StringConfig):
        raise DomainError("find_spectrum expects a StringConfig")
    _positive("omega_max", omega_max)
    # scan past the ceiling so the last in-range roots know their true
    # right-hand isolation gaps (their winding rectangles may extend out)
    grid, vals = _scan_grid(cfg, omega_max + 1.2)
    roots = np.array([r for r in _candidate_roots(cfg, grid, vals) if r > 0.0])

    gaps = np.diff(roots, prepend=0.0, append=math.inf)
    half = np.minimum(0.5, 0.45 * np.minimum(gaps[:-1], gaps[1:]))
    keep = roots <= omega_max * (1.0 + 1e-12)
    roots, half = roots[keep], half[keep]
    func = lambda z: dispersion_two_piece(z, cfg)
    mults = _winding_number(func, roots - half, roots + half, half, roots=roots)
    entries = tuple((r, m) for r, m in zip(roots.tolist(), mults.tolist()) if m > 0)
    return Spectrum(entries=entries, omega_max=omega_max)


def count_modes(cfg, omega_max, im_extent=0.5):
    """Total zero count of the dispersion function in (0, omega_max) by the
    argument principle.

    The contour is the rectangle (re_min, re_max) x (-h, +h).  Its left
    edge sits below the first root (the trivial zero at omega = 0 is
    excluded); if omega_max falls on a root the right edge is shifted
    outward by half the local root spacing, and the contour actually used
    is returned so callers can compare against the same interval.
    """
    if not isinstance(cfg, StringConfig):
        raise DomainError("count_modes expects a StringConfig")
    _positive("omega_max", omega_max)
    _positive("im_extent", im_extent)
    grid, vals = _scan_grid(cfg, omega_max + 2.0)
    roots = np.array(_candidate_roots(cfg, grid, vals))
    roots = roots[roots > 0]

    if len(roots) == 0 or omega_max < roots[0]:
        re_min = 0.5 * omega_max
        return ContourCount(0, (re_min, omega_max, im_extent))

    re_min = 0.5 * roots[0]
    re_max = omega_max
    spacing = np.median(np.diff(roots)) if len(roots) > 1 else roots[0]
    if np.min(np.abs(roots - re_max)) < 0.25 * spacing:
        re_max = re_max + 0.5 * spacing

    inside = roots[(roots > re_min) & (roots < re_max)]
    expected = max(len(inside), 1)
    func = lambda z: dispersion_two_piece(z, cfg)
    count = _winding_number(
        func,
        re_min,
        re_max,
        im_extent,
        n_start=max(256, 16 * expected),
        n_max=max(16384, 256 * expected),
    )
    return ContourCount(count, (re_min, re_max, im_extent))


def branch_spectrum_x0(s, branch, n_max):
    """Decoupled-limit (x = 0) eigenfrequency branches for integer s.

    First branch: omega_n = (1+s) n; second branch: omega_n = (1+1/s) n,
    n = 1..n_max.  Positive frequencies only, one entry per n; coincident
    frequencies between the two branches are the caller's bookkeeping.
    """
    _count("s", s)
    _count("n_max", n_max)
    if branch == "first":
        rate = 1.0 + s
    elif branch == "second":
        rate = 1.0 + 1.0 / s
    else:
        raise DomainError(f"branch must be 'first' or 'second', got {branch!r}")
    entries = tuple((rate * n, 1) for n in range(1, n_max + 1))
    return Spectrum(entries=entries, omega_max=rate * n_max)


def uniform_spectrum(total_length, omega_max):
    """Uniform closed string: omega_n = 2 pi n / L, each doubly degenerate."""
    _positive("total_length", total_length)
    _positive("omega_max", omega_max)
    base = 2.0 * math.pi / total_length
    n_top = int(math.floor(omega_max / base + 1e-12))
    entries = tuple((base * n, 2) for n in range(1, n_top + 1))
    return Spectrum(entries=entries, omega_max=omega_max)
