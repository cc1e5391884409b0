"""Noise-driven entanglement in the four-qubit trap model.

Collective x/y drives, their squares and local z controls leave the system
fully controllable; switchable damping on the terminal qubit then lets the
optimizer pump the thermal state toward the pure GHZ state without any
measurement or ancilla.  This is the heaviest demo (a 256-dimensional
Liouville space); the short budget below shows the descent without running
to the long-horizon accuracies.
"""

import numpy as np

from noisectrl import (TransferProblem, ghz_state, ion_trap_model, optimize,
                       random_sequence, thermal_state)

system = ion_trap_model(gamma_star=5.0)
problem = TransferProblem(system, thermal_state(4), ghz_state(4),
                          total_time=10.0, slices=20)

init = random_sequence(problem, seed=3, noise_blocks=1, u_scale=1.0)
print("optimizing thermal -> GHZ_4 (short demo budget, ~2 minutes)...")
result = optimize(problem, init, max_iters=25, tol=5e-2)
hist = result.error_history
print(f"delta_F along the run: start {hist[0]:.3f} -> best {hist.min():.3f} "
      f"({len(hist)} evaluations)")

print("largest eigenvalues of the final state:",
      np.round(result.trajectory.sorted_eigenvalues[-1][:3], 3))
print("a longer run (see tests/test_nightly.py) pushes the purity further;")
print("the noise stays near its maximum for most of the sequence.")
