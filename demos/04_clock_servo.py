"""Stochastic Ramsey clock with an integrator servo, checked against the bound."""

import numpy as np

from qavar import (
    NoiseParams,
    ProductProbe,
    Scenario,
    ServoConfig,
    SimConfig,
    ensemble_avar,
    free_lo_avar,
    plus_step_state,
    qavar,
    simulate_clock,
)

par = NoiseParams(alpha=2.0, beta=0.4, gamma=0.5, omega0=3.25e15)
N, T = 1, 0.5
n_runs, n_steps = 40, 4000

sim = SimConfig(noise=par, n_atoms=N, T=T, n_steps=n_steps,
                servo=ServoConfig(gain=0.3, estimator="linear"))
taus = (0.5, 1.0, 2.0, 4.0, 16.0, 64.0)
rows = {r.tau: r for r in ensemble_avar(sim, taus, n_runs, seed=814)}

print(f"N = {N}, T = {T} s, gain {sim.servo.gain}, {n_runs} runs x {n_steps} steps")
print()
# the bound costs a (N+1)^(2k-1)-dimensional eigensolve, so only small tau here
print(f"{'tau [s]':>8} {'sim AVAR':>11} {'bound':>11} {'free LO':>11} {'sim/bound':>10}")
for tau in (0.5, 1.0, 2.0):
    avar = rows[tau].avar
    scen = Scenario(noise=par, n_atoms=N, k=rows[tau].k, T=T,
                    probe=ProductProbe(plus_step_state(N)))
    bound = qavar(scen).sigma2_q
    lo = float(free_lo_avar(par, tau))
    print(f"{tau:8.1f} {avar:11.3e} {bound:11.3e} {lo:11.3e} {avar / bound:10.2f}")

print()
print("the servo sits above the bound everywhere, as it must.  The gap is")
print("projection noise plus servo lag, neither of which the bound charges")
print("for.  Where the lock pays off is longer averaging:")
print()
print(f"{'tau [s]':>8} {'sim AVAR':>11} {'free LO':>11} {'sim/LO':>8}")
for tau in (4.0, 16.0, 64.0):
    avar = rows[tau].avar
    lo = float(free_lo_avar(par, tau))
    print(f"{tau:8.1f} {avar:11.3e} {lo:11.3e} {avar / lo:8.2f}")

print()
print("locked, the LO wander integrates away as 1/tau; free, it never does.")
print()

# the locked clock turns LO wander into white frequency noise; watch the
# correction signal absorb the OU component (run 0 of the ensemble above)
tr = simulate_clock(sim, int(np.random.SeedSequence(814).spawn(1)[0].generate_state(1)[0]))
print("single run, first 8 steps (rad/s):")
print(f"{'step':>5} {'y (locked)':>12} {'correction':>12}")
for i in range(8):
    print(f"{i:5d} {tr.y[i]:12.3e} {tr.corrections[i]:12.3e}")
