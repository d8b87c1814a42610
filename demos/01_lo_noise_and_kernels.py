"""Local-oscillator noise model: spectra in, phase covariances out.

The LO frequency noise is exponentially correlated plus white:

    R(t) = alpha exp(-gamma |t|) + beta delta(t)

Everything downstream consumes it through one closed-form object, the
covariance matrix of consecutive Ramsey phases (block_kernel).  kernel_set
reads the bound's two kernels off it: the covariance G of the probe phases
and the covariances H between each phase and the two-window frequency
difference.  This script prints the matrix and H, then checks the
free-running Allan variance formula against a sampled trace.
"""

import numpy as np

from qavar import NoiseParams, block_kernel, free_lo_avar, kernel_set, lo_phases, avar_series

par = NoiseParams(alpha=2.0, beta=0.4, gamma=0.5, omega0=3.25e15)
T = 0.5

np.set_printoptions(precision=4, suppress=True)

G = block_kernel(par, T, 5)
print(f"phase covariance over 5 windows of T = {T} s (rad^2):")
print(G)
print()

for k in (1, 2, 3):
    H = kernel_set(par, T, k).H
    print(f"k = {k}: H_i = Cov(theta_i, w), {2 * k - 1} probe windows:")
    print(" ", H)
print()

# free LO instability: 1/tau white floor, OU term saturates then decays
taus = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
lo = free_lo_avar(par, taus)
print("free-running LO Allan deviation:")
for t, v in zip(taus, lo):
    print(f"  tau = {t:6.2f} s   sigma_y = {np.sqrt(v):.3e}")
print()

# cross-check against a long sampled trace: bin-averaged frequencies, the
# phase of each bin drawn exactly, as the clock simulator draws it
dt, n = 0.25, 200_000
y = lo_phases(par, dt, n, np.random.default_rng(11)) / dt
print(f"sampled trace check ({n} bins of {dt} s, overlapping estimator):")
for t in (0.5, 2.0, 8.0):
    est = avar_series(y, int(round(t / dt)), par.omega0)
    exact = float(free_lo_avar(par, t))
    print(f"  tau = {t:4.1f} s   sampled/exact = {est / exact:.3f}")
