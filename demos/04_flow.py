"""Flow integration and the conservation audit: the secular roots and the
Y invariants stay constant along solutions of Hamilton's equation."""

import numpy as np

from binoether import CheckConfig, builtin_system, conservation_drift, integrate_flow
from binoether.geometry import PhasePoint, lie_derivative_mv
from binoether.spectral import pencil_coefficients, secular_roots, y_from_coefficients

spec = builtin_system("dissipative", 2)
x0 = PhasePoint((0.0, 0.5, 1.0, 2.0))
cfg = CheckConfig(t_end=10.0, dt=1e-3)

traj = integrate_flow(spec.W, spec.h, x0, cfg)
print(f"integrated {len(traj) - 1} RK4 steps, dt = {cfg.dt}")

# closed form for one mode: q(t) = q0 + p0 (1 - e^-t), p(t) = p0 e^-t
t = traj.times[-1]
q_exact = 0.0 + 1.0 * (1 - np.exp(-t))
p_exact = 1.0 * np.exp(-t)
print(f"first mode at t = {t:g}: q = {traj.states[-1][0]:.12f} (exact {q_exact:.12f})")
print(f"                      p = {traj.states[-1][2]:.12e} (exact {p_exact:.12e})")

# watch the conserved quantities along the way
What = lie_derivative_mv(spec.E, spec.W)
print("\n  t      c1          c2          Y1          Y2")
for k in range(0, len(traj), len(traj) // 5):
    c = secular_roots(spec.W, What, traj.states[k]).roots
    y = y_from_coefficients(pencil_coefficients(spec.W, What, traj.states[k]))
    print(f"{traj.times[k]:5.1f}  {c[0]:.8f} {c[1]:.8f}  {y[0]:.8f} {y[1]:.8f}")

record = conservation_drift(spec.W, spec.E, spec.h, x0, cfg)
print("\ndrift audit:", "PASS" if record.passed else "FAIL")
print(record.notes)
