"""Smallest interesting case: one atom, one Ramsey step, probe |+>."""

import numpy as np

from qavar import (
    NoiseParams,
    ProductProbe,
    Scenario,
    kernel_set,
    plus_step_state,
    qavar,
)

par = NoiseParams(alpha=2.0, beta=0.4, gamma=0.5, omega0=3.25e15)

# with one window the whole machinery collapses to a scalar identity:
#   sigma2_Q = sigma2_LO - exp(-G11) * H1^2 / (2 omega0^2)
# so the general code can be read off against it directly.
print("tau = T sweep, N = 1, k = 1:")
print(f"{'T [s]':>8} {'sigma2_LO':>12} {'sigma2_Q':>12} {'removed':>9} {'closed form':>12}")
for T in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0):
    scen = Scenario(noise=par, n_atoms=1, k=1, T=T, probe=ProductProbe(plus_step_state(1)))
    res = qavar(scen)
    ks = kernel_set(par, T, 1)
    g11, h1 = ks.G[0, 0], ks.H[0]
    closed = res.sigma2_lo - np.exp(-g11) * h1**2 / (2 * par.omega0**2)
    frac = res.correction / res.sigma2_lo
    print(f"{T:8.2f} {res.sigma2_lo:12.3e} {res.sigma2_q:12.3e} {frac:8.1%} {closed:12.3e}")

print()
print("short T: the phase barely dephases, the measurement recovers most of")
print("the LO fluctuation and the remaining instability is small.  Long T:")
print("exp(-Var) kills the sensitivity and the bound approaches the free LO.")

# the most stable single step sits where those two losses trade off
Ts = np.linspace(0.1, 4.0, 118)
vals = []
for T in Ts:
    scen = Scenario(noise=par, n_atoms=1, k=1, T=T, probe=ProductProbe(plus_step_state(1)))
    vals.append(qavar(scen).sigma2_q)
i = int(np.argmin(vals))
print()
print(f"most stable single step: T = {Ts[i]:.2f} s, sigma2_Q = {vals[i]:.3e}")
