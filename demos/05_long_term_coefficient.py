"""Full pipeline: optimize probes over a tau grid, read off the 1/tau constant.

At long averaging times the optimized bound settles onto

    sigma2_Q(tau) -> c / (omega0^2 tau)

and c is the single number that summarizes how stable a clock on this LO
can possibly be.  The pipeline below sweeps tau, optimizes the per-step
probe and the window layout at each point, and extrapolates the plateau.

Runs in a second or two: one atom's flip-symmetric step state has no free
angle, so the search at each (tau, k) point costs two bound evaluations,
|+> and its certificate.  Push k_max and the grid further out and c keeps
creeping down toward its limit; k_max = 4 with tau up to ~3 s lands near
1.30 for one atom on this LO.
"""

import time

import numpy as np

from qavar import NoiseParams, bound_curve, extrapolate_long_term, free_lo_avar

par = NoiseParams(alpha=2.0, beta=0.4, gamma=0.5, omega0=3.25e15)
N = 1
k_max = 3
taus = [1.0, 1.5, 2.0, 2.5, 3.0]

t0 = time.time()
scans = bound_curve(par, N, taus, k_max, probe="optimize-product")
w0sq = par.omega0**2

print(f"N = {N}, k_max = {k_max}  [{time.time() - t0:.0f} s]")
print()
print(f"{'tau [s]':>8} {'k*':>3} {'T* [s]':>7} {'c(tau)':>8} {'free LO c':>10}")
for s in scans:
    c = s.sigma2_q * w0sq * s.tau
    c_lo = float(free_lo_avar(par, s.tau)) * w0sq * s.tau
    print(f"{s.tau:8.2f} {s.k_opt:>3} {s.T_opt:7.3f} {c:8.4f} {c_lo:10.4f}")

fit = extrapolate_long_term([s.tau for s in scans], [s.sigma2_q for s in scans],
                            par.omega0, m=len(taus))
print()
print(f"plateau estimate: c = {fit.c:.4f}  "
      f"(tail spread {fit.spread:.1%}, flat={fit.flat})")
if not fit.flat:
    print("tail not flat at this k_max: each tau point still wants more")
    print("windows than the cap allows, which lifts c(tau) as tau grows.")
