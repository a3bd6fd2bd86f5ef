"""Positivity-preserving fixed-step integration with conservation auditing.

RK4 (default) or explicit Euler; a step whose result leaves the
nonnegative orthant is retried with a halved step, and residual negatives
inside the round-off window are clamped to zero. Total mass is audited
(or optionally renormalized) every step.
"""

from __future__ import annotations

import dataclasses
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import CLAMP, InteractionSpec, _field, _field_kernel, prepare_state
from .errors import ConfigError, PositivityFailureError
from .graph import Graph

__all__ = [
    "IntegratorOptions",
    "Trajectory",
    "ConservationAudit",
    "step",
    "simulate",
    "simulate_reverse",
]

METHODS = ("rk4", "euler")
CONSERVATION_MODES = ("audit", "renormalize")
# Most fixed steps a run may take: about an hour at 37 us a step (RK4 on a
# 60-agent sparse graph, 2 vCPUs).
MAX_STEPS = 10**8


@dataclass(frozen=True)
class IntegratorOptions:
    dt: float = 1e-3
    method: str = "rk4"
    t_end: float = 1.0
    record_stride: int = 1
    stop_on_equilibrium: bool = False
    equilibrium_tol: float = 1e-10
    conservation_mode: str = "audit"
    positivity_shrink: int = 40

    def __post_init__(self):
        for name in ("dt", "t_end", "equilibrium_tol"):
            v = getattr(self, name)
            # bools are Integral; NaN and +-inf fail the range test
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not 0.0 < v <= sys.float_info.max):
                raise ConfigError(f"{name} must be a positive finite number, got {v!r}")
        for name, lo in (("record_stride", 1), ("positivity_shrink", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < lo:
                raise ConfigError(f"{name} must be an integer >= {lo}, got {v!r}")
        if not isinstance(self.stop_on_equilibrium, (bool, np.bool_)):
            raise ConfigError(
                f"stop_on_equilibrium must be true or false, got {self.stop_on_equilibrium!r}"
            )
        # ceil(t_end / dt - 1e-12) <= MAX_STEPS, as _simulate counts steps
        if not self.t_end / self.dt - 1e-12 <= MAX_STEPS:
            raise ConfigError(
                f"t_end / dt = {self.t_end} / {self.dt} is more than {MAX_STEPS} steps"
            )
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.conservation_mode not in CONSERVATION_MODES:
            raise ConfigError(
                f"conservation_mode must be one of {CONSERVATION_MODES}, "
                f"got {self.conservation_mode!r}"
            )

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ConservationAudit:
    initial_mass: float
    max_abs_drift: float
    drift_per_unit_time: float

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class Trajectory:
    """Recorded time stamps, states, and per-stamp diagnostics."""

    times: np.ndarray
    states: np.ndarray  # (len(times), n)
    mass: np.ndarray
    entropy: np.ndarray
    state_max: np.ndarray
    state_min: np.ndarray
    residual: np.ndarray  # inf-norm of the active field at each stamp
    direction: str
    metadata: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def write_csv(self, path) -> None:
        """Header t,x_0,...,x_{n-1},mass,entropy,max,min,residual; floats at
        17 significant digits for round-trip fidelity."""
        cols = np.column_stack(
            [
                self.times,
                self.states,
                self.mass,
                self.entropy,
                self.state_max,
                self.state_min,
                self.residual,
            ]
        )
        header = (
            "t,"
            + ",".join(f"x_{i}" for i in range(self.n))
            + ",mass,entropy,max,min,residual"
        )
        row = ",".join(["%.17g"] * cols.shape[1]) + "\n"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.writelines(row % tuple(values.tolist()) for values in cols)


def _raw_step(f: Callable, x: np.ndarray, h, method: str,
              k1: np.ndarray) -> np.ndarray:
    """One unchecked explicit step from x, where the field is k1; h is a
    float or one step size per entry."""
    if method == "euler":
        return x + h * k1
    k2 = f(x + (0.5 * h) * k1)
    k3 = f(x + (0.5 * h) * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _substep(f: Callable, x: np.ndarray, h, method: str, positivity_shrink: int,
             n: int, k1: Optional[np.ndarray] = None):
    """Advance every lane of the flat block x (lane l owns x[l*n:(l+1)*n])
    by its step h, a float or one size per lane; k1 is f(x) when the caller
    already has it.

    A lane whose result has a component below -CLAMP retries with its step
    halved, up to positivity_shrink times, while the other lanes keep their
    step; residual negatives inside the window are clamped to zero. Returns
    the new block and the steps used: h itself when no lane halved, else
    one size per lane.
    """
    if k1 is None:
        k1 = f(x)
    cand = _raw_step(f, x, np.repeat(h, n) if isinstance(h, np.ndarray) else h,
                     method, k1)
    lo = np.minimum.reduce(cand)
    if lo > 0.0:
        return cand, h
    if lo >= -CLAMP:
        # lanes without entries <= 0 pass through unchanged
        return np.where(cand <= 0.0, 0.0, cand), h
    # NaN fails both tests above; an infinite field at x stays so at any h
    if lo != lo or not np.isfinite(k1).all():
        raise PositivityFailureError(
            "the field overflowed: a step produced NaN or infinity, so the state "
            "or the edge weights are too large for double precision"
        )
    used = np.full(x.size // n, h, dtype=float)
    for _ in range(positivity_shrink):
        used[cand.reshape(-1, n).min(axis=1) < -CLAMP] *= 0.5
        # lanes that passed recompute the same candidate from the same step
        cand = _raw_step(f, x, np.repeat(used, n), method, k1)
        if cand.min() >= -CLAMP:
            return np.where(cand <= 0.0, 0.0, cand), used
    raise PositivityFailureError(
        f"state left the nonnegative orthant; dt halved {positivity_shrink} "
        f"times down to {0.5 * used.min()} without recovery (pathological stiffness)"
    )


# the arithmetic of a run that overflows makes inf and NaN; _substep reports
# that as one PositivityFailureError, and numpy's warnings would repeat it
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def step(
    g: Graph,
    x,
    dt: float,
    method: str = "rk4",
    positivity_shrink: int = 40,
) -> tuple[np.ndarray, float]:
    """One explicit step of size dt (or less).

    If the result has a component below the -1e-12 round-off window, the
    step size is halved and retried, up to positivity_shrink times; the
    actually-used step size is returned alongside the new state. Residual
    negatives inside the window are clamped to zero.
    """
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    x = prepare_state(x, g.n)
    x, used = _substep(_field(g), x, float(dt), method, positivity_shrink, g.n)
    return x, float(np.min(used))


@dataclass
class _Run:
    """Per-lane outcome of _simulate, indexed by the lane's row in x0."""

    states: np.ndarray  # (B, n) final states
    mass0: np.ndarray
    max_drift: np.ndarray  # pre-correction drift in renormalize mode
    steps: np.ndarray
    final_time: np.ndarray
    stopped: np.ndarray
    # recorded stamps of lane 0 (record=True only)
    times: list = field(default_factory=list)
    records: list = field(default_factory=list)
    residuals: list = field(default_factory=list)


@_quiet_overflow
def _simulate(
    g: Graph,
    x0: np.ndarray,
    opts: IntegratorOptions,
    direction: str,
    interaction: Optional[InteractionSpec],
    keep: Optional[np.ndarray] = None,
    record: bool = False,
) -> _Run:
    """The integrator loop, over a block of B independent lanes.

    Lane l starts from the clean state x0[l] (x0 has shape (B, n)) and runs
    on g restricted to the directed edges row l of keep enables (all of g
    for a single lane when keep is None). Each lane has its own positivity halving,
    mass audit, renormalization and equilibrium stop, with the arithmetic
    of a lone run, so a lane's bits do not depend on the rest of its block.
    A stopped lane leaves the block. record=True keeps lane 0's stamps.
    """
    b, n = x0.shape
    n_steps = max(1, int(np.ceil(opts.t_end / opts.dt - 1e-12)))
    x = x0.ravel().copy()
    mass0 = x0.sum(axis=1)
    run = _Run(
        states=x0.copy(),
        mass0=mass0,
        max_drift=np.zeros(b),
        steps=np.full(b, n_steps),
        final_time=np.full(b, opts.t_end),
        stopped=np.zeros(b, dtype=bool),
    )
    lanes = np.arange(b)  # row in x0 of each lane still in the block
    max_drift = run.max_drift.copy()
    reverse = direction == "reverse"
    f = _field(g, interaction, keep, reverse)
    renormalize = opts.conservation_mode == "renormalize"
    # the field at x when a residual needed it: the next step's k1
    fx = None
    if record:
        fx = f(x)
        run.times.append(0.0)
        run.records.append(x.copy())
        run.residuals.append(float(np.abs(fx).max()))

    tiny = 1e-15 * opts.dt
    t_prev = 0.0
    for k in range(1, n_steps + 1):
        # time stamps from integer step counts; last stamp pinned to t_end
        t_k = opts.t_end if k == n_steps else k * opts.dt
        h = t_k - t_prev
        if h > tiny:
            x, used = _substep(f, x, h, opts.method, opts.positivity_shrink, n, fx)
            if used is not h:  # some lane halved: finish each lane's interval
                remaining = h - used
                while (todo := remaining > tiny).any():
                    x, used = _substep(f, x, np.where(todo, remaining, 0.0),
                                       opts.method, opts.positivity_shrink, n)
                    remaining = remaining - used
        t_prev = t_k
        fx = None

        # per-lane reductions through a (B, n) view, as ufunc reduces: the
        # loop runs as B=1 for every simulate call, so call overhead counts
        lane_x = x.reshape(-1, n)
        mass = np.add.reduce(lane_x, 1)
        np.maximum(max_drift, np.abs(mass - mass0), out=max_drift)
        if renormalize:
            scale = np.divide(mass0, mass, out=np.ones_like(mass), where=mass > 0.0)
            x = (lane_x * scale[:, None]).ravel()

        record_now = record and (k % opts.record_stride == 0 or k == n_steps)
        stop = None
        if opts.stop_on_equilibrium or record_now:
            fx = f(x)
            res = np.maximum.reduce(np.abs(fx).reshape(-1, n), 1)
            if opts.stop_on_equilibrium and np.minimum.reduce(res) < opts.equilibrium_tol:
                stop = res < opts.equilibrium_tol
        if record and (record_now or stop is not None):
            run.times.append(t_k)
            run.records.append(x.copy())
            run.residuals.append(float(res[0]))
        if stop is not None:
            done = lanes[stop]
            run.states[done] = x.reshape(-1, n)[stop]
            run.max_drift[done] = max_drift[stop]
            run.steps[done] = k
            run.final_time[done] = t_k
            run.stopped[done] = True
            if stop.all():
                return run
            live = ~stop
            lanes, mass0, max_drift = lanes[live], mass0[live], max_drift[live]
            x = x.reshape(-1, n)[live].ravel()
            fx = fx.reshape(-1, n)[live].ravel()
            keep = keep[live]
            f = _field(g, interaction, keep, reverse)
    run.states[lanes] = x.reshape(-1, n)
    run.max_drift[lanes] = max_drift
    return run


def _trajectory(g: Graph, x0, opts: IntegratorOptions, direction: str,
                interaction: Optional[InteractionSpec],
                seed) -> tuple[Trajectory, ConservationAudit]:
    x = prepare_state(x0, g.n)
    run = _simulate(g, x[None, :], opts, direction, interaction, record=True)
    st = np.array(run.records)
    final_t = float(run.final_time[0])
    traj = Trajectory(
        times=np.array(run.times),
        states=st,
        mass=st.sum(axis=1),
        entropy=np.var(st, axis=1),
        state_max=st.max(axis=1),
        state_min=st.min(axis=1),
        residual=np.array(run.residuals),
        direction=direction,
        metadata={
            "graph_hash": g.hash_hex,
            "field_kernel": _field_kernel(g, interaction),
            "options": opts.to_json_dict(),
            "direction": direction,
            "seed": seed,
            "stopped_at_equilibrium": bool(run.stopped[0]),
            "steps_taken": int(run.steps[0]),
            "final_time": final_t,
        },
    )
    elapsed = final_t if final_t > 0.0 else opts.t_end
    max_drift = float(run.max_drift[0])
    audit = ConservationAudit(
        initial_mass=float(run.mass0[0]),
        max_abs_drift=max_drift,
        drift_per_unit_time=max_drift / elapsed,
    )
    return traj, audit


def simulate(
    g: Graph,
    x0,
    opts: Optional[IntegratorOptions] = None,
    interaction: Optional[InteractionSpec] = None,
    seed=None,
) -> tuple[Trajectory, ConservationAudit]:
    """Integrate the forward dynamics from x0 to t_end (or until the field
    residual drops below the equilibrium threshold)."""
    return _trajectory(g, x0, opts or IntegratorOptions(), "forward", interaction, seed)


def simulate_reverse(
    g: Graph,
    y0,
    opts: Optional[IntegratorOptions] = None,
    interaction: Optional[InteractionSpec] = None,
    seed=None,
) -> tuple[Trajectory, ConservationAudit]:
    """Integrate the reverse-time (consensus) dynamics; stamps are tau >= 0."""
    return _trajectory(g, y0, opts or IntegratorOptions(), "reverse", interaction, seed)
