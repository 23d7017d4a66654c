"""Scaling collapse of the 2N-piece Casimir energy.

The normalized energy f_N(x) = E_N(x)/E_N(0) comes from the exact Bloch sum
E_N = pi/(6L) - (pi N/L) sum_m B_2(theta_m/2 pi), sin(theta_m/2) = sqrt(w) sin(pi m/N),
w = 4x/(1+x)^2.  That is N times a trapezoid sum whose summand has a kink at
m = 0, so the Euler-Maclaurin formula gives the collapse law

    f_N(x) = f_inf(x) - (1 - sqrt(w) - f_inf(x))/(N^2 - 1) + O(N^-4),
    f_inf(x) = 6 Int_0^1 B_2(theta(t)/2 pi) dt,  sin(theta/2) = sqrt(w)|sin pi t|.

1 - sqrt(w) - f_inf is at most 0.0455 (at x = 0.06), which is why the curves for
N >= 2 nearly coincide.  The fit (1 - sqrt(x))^{5/2} stays within a few
percent of f_inf up to x ~ 0.5 and fails towards x = 1, where
f_inf ~ 0.11 (1 - x)^2: fit/f_inf is 0.956 at x = 0.5, 0.511 at 0.9 and
0.167 at 0.99.  This script tabulates the curves, the law and the fit.
"""

import numpy as np

from stringcasimir import scaling_fit, scaling_function

# f_inf by Gauss-Legendre on [0, 1/2], where the integrand is smooth (it is even about 1/2)
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(200)


def f_inf(x):
    root_w = 2.0 * np.sqrt(x) / (1.0 + x)
    a = np.arcsin(root_w * np.sin(np.pi * (_NODES + 1.0) / 4.0)) / np.pi  # theta / 2 pi
    return 3.0 * np.dot(_WEIGHTS, a * a - a + 1.0 / 6.0)


xs = np.linspace(0.02, 0.94, 24)
curves = {n: np.array([scaling_function(n, x) for x in xs]) for n in (2, 4, 8)}
limit = np.array([f_inf(x) for x in xs])
root_w = 2.0 * np.sqrt(xs) / (1.0 + xs)
law = {n: limit - (1.0 - root_w - limit) / (n * n - 1) for n in curves}
fit = np.array([scaling_fit(x) for x in xs])

print(f"{'x':>6} {'f_2':>9} {'f_8':>9} {'f_inf':>9} {'f_2-law':>9} {'fit':>9} {'fit/f_inf':>9}")
for i, x in enumerate(xs):
    print(f"{x:>6.2f} {curves[2][i]:>9.5f} {curves[8][i]:>9.5f} {limit[i]:>9.5f} "
          f"{curves[2][i] - law[2][i]:>+9.1e} {fit[i]:>9.5f} {fit[i] / limit[i]:>9.3f}")

spread = np.max(np.abs(curves[2] - curves[8]))
offset = np.max(1.0 - root_w - limit)
residual = max(np.max(np.abs(curves[n] - law[n]) * n**4 / limit) for n in curves)
inside = xs <= 0.45
dev_in = max(np.max(np.abs(curves[n][inside] - fit[inside])) for n in curves)
dev_out = max(np.max(np.abs(curves[n][~inside] - fit[~inside])) for n in curves)
print(f"\ncollapse spread  max|f_2 - f_8|            = {spread:.4f}")
print(f"collapse offset  max(1 - sqrt(w) - f_inf)   = {offset:.4f}")
print(f"law remainder    max N^4 |f_N - law|/f_inf  = {residual:.3f}")
print(f"fit deviation    max|f_N - fit|, x <= 0.45 = {dev_in:.4f}")
print(f"fit deviation    max|f_N - fit|, x >  0.45 = {dev_out:.4f}  (reported, not asserted)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 3.4))
    for n, ys in curves.items():
        ax.plot(xs, ys, label=f"N = {n}")
    ax.plot(xs, limit, "k:", label=r"$f_\infty$")
    ax.plot(xs, fit, "k--", label=r"$(1-\sqrt{x})^{5/2}$")
    ax.set_xlabel("tension ratio x")
    ax.set_ylabel(r"$f_N(x)$")
    ax.legend(frameon=False)
    fig.tight_layout()
    fig.savefig("scaling_collapse.png", dpi=150)
    print("wrote scaling_collapse.png")
except ImportError:
    pass
