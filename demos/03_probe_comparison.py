"""Probe states compared at fixed tau: fixed, product-optimized, joint.

Two atoms, tau = 2 s, layouts k = 1 and k = 2.  The candidates:

  plus       every atom in |+>, no entanglement: the best spin-coherent
             (atom-level product) per-step state here
  ghz        per-step GHZ
  symmetric  best symmetric per-step state (per-step entanglement allowed)
  joint      see-saw over arbitrary states of all 2k-1 windows

Each row reports c = sigma2_Q * omega0^2 * tau, lower is better.
"""

import numpy as np

from qavar import (
    NoiseParams,
    bound_curve,
    plus_step_state,
    ghz_step_state,
    free_lo_avar,
)

par = NoiseParams(alpha=2.0, beta=0.4, gamma=0.5, omega0=3.25e15)
N, tau, k_max = 2, 2.0, 2
w0sq = par.omega0**2

rows, reports = [], {}
for name, probe in (
    ("plus", plus_step_state(N)),
    ("ghz", ghz_step_state(N)),
    ("symmetric", "optimize-product"),
    ("joint", "optimize-joint"),
):
    (scan,) = bound_curve(par, N, [tau], k_max, probe=probe)
    rows.append((name, scan.k_opt, scan.sigma2_q * w0sq * tau))
    reports[name] = scan.evaluations[scan.k_opt - 1].report

print(f"N = {N}, tau = {tau} s, k up to {k_max}")
print(f"free LO: c = {float(free_lo_avar(par, tau)) * w0sq * tau:.4f}")
print()
print(f"{'probe':>10} {'k*':>3} {'c':>8}")
for name, k, c in rows:
    print(f"{name:>10} {k:>3} {c:8.4f}")

rep = reports["joint"]
print()
print(f"see-saw convergence ({rep.n_evals} sweeps, converged={rep.converged}):")
h = np.array(rep.history) * w0sq * tau
show = list(range(min(4, len(h)))) + [len(h) - 1]
for i in sorted(set(show)):
    print(f"  sweep {i:3d}: c = {h[i]:.6f}")

# the symmetric per-step optimum at k=2 is already nearly joint-optimal;
# print its amplitudes in the shared-excitation basis
print()
print("best symmetric per-step amplitudes (n excited = 0, 1, 2):")
print(" ", np.array2string(reports["symmetric"].state, precision=4, suppress_small=True))
