"""Choosing whom to compete against: exhaustive and greedy mask search.

Agent 0 picks a subset of the other agents to connect to, then the
dynamics run to equilibrium; the objective is agent 0's final value.
Exhaustive search scans every mask; greedy bit-flipping gets close fast.
A sweep over agent 0's initial value shows how strongly the outcome
depends on the starting resource.
"""

import numpy as np

from wta import (
    OptimizeProblem,
    exhaustive_search,
    greedy_search,
    new_graph,
    random_graph,
    sweep_initial_value,
)

arena = random_graph(9, 0.4, "unit", seed=40)
alpha = 0
base = new_graph(9, [(i, j, w) for i, j, w in arena.edges()
                     if alpha not in (i, j)])
x0 = np.random.default_rng(41).uniform(0.05, 1.0, 9)

problem = OptimizeProblem(
    base_graph=base,
    alpha=alpha,
    x_alpha0=float(x0[alpha]),
    x0_others=tuple(float(v) for v in x0[1:]),
    horizon=5.0,
    dt=1e-2,
    stop_on_equilibrium=True,
    equilibrium_tol=1e-9,
)

print(f"agent {alpha} starts at {problem.x_alpha0:.3f}; "
      f"total mass {problem.total_mass():.3f}")

exhaustive = exhaustive_search(problem)
print(f"exhaustive over {exhaustive.evaluations} masks: "
      f"best {exhaustive.best_mask_bits} -> {exhaustive.best_value:.4f}")

greedy = greedy_search(problem, restarts=8, seed=0)
print(f"greedy ({greedy.evaluations} evaluations): "
      f"best {greedy.best_mask_bits} -> {greedy.best_value:.4f}")

print("\nsweep of agent 0's initial value on a smaller 6-agent instance")
small_arena = random_graph(6, 0.5, "unit", seed=50)
small_base = new_graph(6, [(i, j, w) for i, j, w in small_arena.edges()
                           if alpha not in (i, j)])
small_x0 = np.random.default_rng(51).uniform(0.1, 1.0, 6)
small = OptimizeProblem(
    base_graph=small_base,
    alpha=alpha,
    x_alpha0=float(small_x0[alpha]),
    x0_others=tuple(float(v) for v in small_x0[1:]),
    horizon=4.0,
    dt=1e-2,
    stop_on_equilibrium=True,
    equilibrium_tol=1e-9,
)
sweep = sweep_initial_value(small, np.linspace(0.0, 1.5, 6))
for x_start, outcomes in zip(sweep.grid, sweep.values):
    print(f"  x_0(0) = {x_start:.2f}: outcomes span "
          f"[{min(outcomes):.4f}, {max(outcomes):.4f}] over "
          f"{len(outcomes)} masks")
