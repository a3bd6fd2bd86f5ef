"""Positivity-preserving fixed-step integration with conservation auditing.

Classical RK4; a step whose result leaves the nonnegative orthant is
retried with a halved step, and residual negatives inside the round-off
window are clamped to zero. Total mass is audited every step.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import (CLAMP, OVERFLOW_MESSAGE, InteractionSpec, _field, _field_kernel,
                       _quiet_overflow, prepare_state)
from .errors import (ConfigError, PositivityFailureError, read_bool, read_integer,
                     read_number, writing)
from .graph import Graph

__all__ = [
    "IntegratorOptions",
    "Trajectory",
    "ConservationAudit",
    "simulate",
    "simulate_reverse",
]

# Most fixed steps a run may take: about 43 minutes at 25.6 us a step (RK4
# on a 60-agent graph with p = 0.15, which the paired edge closure runs, the
# fastest of twenty 5000-step runs on 2 vCPUs with numpy 2.4.6).
MAX_STEPS = 10**8
# Most times a step that leaves the orthant is halved before the run fails
# with PositivityFailureError, a factor of 2^-40 (about 1e-12). Measured
# need: the deepest halving that recovered was 5 in the whole tier-1 suite
# (42 halved steps), and none in the four demos or in one pass of each
# benchmark workload at seed 0.
HALVINGS = 40


def _step_count(t_end: float, dt: float, words: str = "t_end / dt") -> int:
    """The fixed steps of a run to t_end at dt, ceil(t_end / dt) with a
    1e-12 slack (at least one), else ConfigError past MAX_STEPS, naming the
    quotient by words: the caller's own keys."""
    steps = t_end / dt - 1e-12
    if not steps <= MAX_STEPS:
        raise ConfigError(f"{words} = {t_end} / {dt} is more than {MAX_STEPS} steps")
    return max(1, int(np.ceil(steps)))


@dataclass(frozen=True)
class IntegratorOptions:
    dt: float = 1e-3
    t_end: float = 1.0
    record_stride: int = 1
    stop_on_equilibrium: bool = False
    equilibrium_tol: float = 1e-10

    def __post_init__(self):
        # each field keeps the value read from it: a float32 dt would count
        # steps and stamp times in float32
        checked = {name: read_number(getattr(self, name), name, gt=0.0)
                   for name in ("dt", "t_end", "equilibrium_tol")}
        checked["record_stride"] = read_integer(self.record_stride, "record_stride", lo=1)
        checked["stop_on_equilibrium"] = read_bool(self.stop_on_equilibrium,
                                                   "stop_on_equilibrium")
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        _step_count(self.t_end, self.dt)


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
        """Header t,x_0,...,x_{n-1},mass,entropy,max,min,residual; one row per stamp."""
        cols = np.column_stack([self.times, self.states, self.mass, self.entropy,
                                self.state_max, self.state_min, self.residual])
        header = ["t", *(f"x_{i}" for i in range(self.n)), "mass", "entropy", "max", "min",
                  "residual"]
        _write_csv(path, header, [cols])


def _write_csv(path, header: list[str], columns) -> None:
    """The one CSV writer: the header, then one line a table row.

    columns are in header order, at least one of them floats: each a float
    array, of shape (rows,) for one column or (rows, k) for k, or a text
    column, whose [a:b] gives rows a to b as a list of str or a bytes
    array, written as is. A float is written as '%.17g' % v writes it: 17
    significant digits, correctly rounded with ties to even, which
    round-trip; trailing zeros dropped, and the point when no digit follows
    it; fixed notation from 1e-4 to below 1e17, else d.ddde+XX; nan and inf
    as Python spells them. numpy makes that text CSV_CHUNK values at a time
    (wta.csvtext; 4096, about 1 MiB of working arrays), and each chunk is
    written before the next is made, so the text is never held whole."""
    from . import csvtext  # compiled on first use, not by `import wta`

    with writing(path, "CSV path") as path, open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for text in csvtext.body(columns):
            fh.write(text)


def _frozen(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array: a ufunc operand numpy takes
    without the Python-scalar promotion path, with the same value."""
    a = np.array(value, dtype=float)
    a.flags.writeable = False
    return a


_TWO, _ZERO = _frozen(2.0), _frozen(0.0)


@functools.lru_cache(maxsize=64)
def _coefficients(h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h, h/2 and h/6 for one float step, each through _frozen. A run's steps
    k*dt - (k-1)*dt take few distinct values (13 over 10^4 steps at
    dt = 1e-3, 22 over 10^6 at dt = 1e-2), so the memo serves almost every
    step."""
    return _frozen(h), _frozen(0.5 * h), _frozen(h / 6.0)


def _raw_step(f: Callable, x: np.ndarray, h, k1: np.ndarray) -> np.ndarray:
    """One unchecked RK4 step from x, where the field is k1; h is a float
    or one step size per entry.

    It runs the textbook x + (h/6)(k1 + 2 k2 + 2 k3 + k4) operation for
    operation, with the stage states in one reused buffer and the weighted
    sum in a second; x and the stages are only read (a halving retry steps
    from x and k1 again). Products and sums swap their operands, which IEEE
    arithmetic rounds the same, so the bits are those of the textbook form.

    Every scalar operand (a float h, h/2, h/6 and the 2) enters as a 0-d
    float64 array, not a Python float. x is float64, so both kinds of
    operand give a float64 product of the same double value, the same bits;
    but numpy 2 types a Python-float operand by its promotion rules on
    every call (NEP 50), which costs about 0.2 us more than a 0-d array."""
    if isinstance(h, np.ndarray):
        hh, h6 = 0.5 * h, h / 6.0
    else:
        h, hh, h6 = _coefficients(h)
    s = k1 * hh
    s += x
    k2 = f(s)
    np.multiply(k2, hh, s)
    s += x
    k3 = f(s)
    np.multiply(k3, h, s)
    s += x
    k4 = f(s)
    acc = k2 * _TWO
    acc += k1
    np.multiply(k3, _TWO, s)
    acc += s
    acc += k4
    acc *= h6
    acc += x
    return acc


def _substep(f: Callable, x: np.ndarray, h, n: int, k1: Optional[np.ndarray] = None):
    """Advance every lane of the flat block x (lane l owns x[l*n:(l+1)*n])
    by its step h, a float or one size per lane; k1 is f(x) when the caller
    already has it.

    A lane whose result has a component below -CLAMP retries with its step
    halved, up to HALVINGS times, while the other lanes keep their
    step; residual negatives inside the window are clamped to zero. A
    candidate holding a NaN, or an infinite k1, raises
    PositivityFailureError(OVERFLOW_MESSAGE). Returns
    the new block and the steps used: h itself when no lane halved, else
    one size per lane.
    """
    if k1 is None:
        k1 = f(x)
    cand = _raw_step(f, x, np.repeat(h, n) if isinstance(h, np.ndarray) else h, k1)
    # the common case, every entry positive, in one comparison and one count
    if np.count_nonzero(cand > _ZERO) == cand.size:
        return cand, h
    lo = np.minimum.reduce(cand)
    if lo >= -CLAMP:
        # lanes without entries <= 0 pass through unchanged
        return np.where(cand <= 0.0, 0.0, cand), h
    # NaN fails both tests above; an infinite field at x stays so at any h
    if lo != lo or not np.isfinite(k1).all():
        raise PositivityFailureError(OVERFLOW_MESSAGE)
    used = np.full(x.size // n, h, dtype=float)
    for _ in range(HALVINGS):
        used[cand.reshape(-1, n).min(axis=1) < -CLAMP] *= 0.5
        # lanes that passed recompute the same candidate from the same step
        cand = _raw_step(f, x, np.repeat(used, n), k1)
        lo = cand.min()
        if lo >= -CLAMP:
            return np.where(cand <= 0.0, 0.0, cand), used
        # a NaN lane fails every comparison, so it would never halve again
        if lo != lo:
            raise PositivityFailureError(OVERFLOW_MESSAGE)
    # the smallest step a failing lane tried; a finished lane's step is 0
    tried = used[cand.reshape(-1, n).min(axis=1) < -CLAMP].min()
    raise PositivityFailureError(
        f"state left the nonnegative orthant; dt halved {HALVINGS} "
        f"times down to {tried} without recovery (pathological stiffness)"
    )


@dataclass
class _Run:
    """Per-lane outcome of _simulate, indexed by the lane's row in x0."""

    states: np.ndarray  # (B, n) final states
    mass0: np.ndarray
    max_drift: np.ndarray
    steps: np.ndarray
    final_time: np.ndarray
    stopped: np.ndarray
    # recorded stamps of lane 0 (record=True only)
    times: list = field(default_factory=list)
    records: list = field(default_factory=list)
    residuals: list = field(default_factory=list)


# The audit's block of per-step states: up to 64 rows, and at most 2^17
# doubles (1 MiB) unless one state alone is larger.
_HISTORY_DOUBLES = 1 << 17
_HISTORY_ROWS = 64


def _fold_mass(rows: np.ndarray, n: int, hi: np.ndarray, lo: np.ndarray) -> None:
    """Widen each lane's running mass extremes hi and lo, in place, by the
    masses of the block states in rows (one flat state of B lanes a row).
    Each lane's mass is the same per-row reduce over its n entries as a
    per-step one, so it has the same bits."""
    mass = np.add.reduce(rows.reshape(-1, n), 1).reshape(len(rows), -1)
    np.maximum(hi, np.maximum.reduce(mass, 0), out=hi)
    np.minimum(lo, np.minimum.reduce(mass, 0), out=lo)


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
    on g restricted to the edges row l of keep (B, num_edges) enables (all
    of g for a single lane when keep is None). Each lane has its own
    positivity halving, mass audit and equilibrium stop, with the arithmetic
    of a lone run, so a lane's bits do not depend on the rest of its block.
    A stopped lane leaves the block. record=True keeps lane 0's stamps.
    """
    b, n = x0.shape
    dt, t_end = opts.dt, opts.t_end
    stride, tol = opts.record_stride, _frozen(opts.equilibrium_tol)
    stop_eq = opts.stop_on_equilibrium
    n_steps = _step_count(t_end, dt)
    x = x0.ravel().copy()
    mass0 = x0.sum(axis=1)
    run = _Run(
        states=x0.copy(),
        mass0=mass0,
        max_drift=np.zeros(b),
        steps=np.full(b, n_steps),
        final_time=np.full(b, t_end),
        stopped=np.zeros(b, dtype=bool),
    )
    lanes = np.arange(b)  # row in x0 of each lane still in the block
    # Each lane's running mass extremes over the steps so far; the drift
    # max(hi - m0, m0 - lo) equals max |m - m0| bit for bit, since rounding
    # a difference is monotone and odd. The audit copies each step's state
    # into a block of history rows and folds their masses in once a block.
    hi, lo = mass0.copy(), mass0.copy()
    rows = min(_HISTORY_ROWS, max(1, _HISTORY_DOUBLES // (b * n)))
    history = np.empty((rows, b * n))
    filled = 0
    reverse = direction == "reverse"
    f = _field(g, interaction, keep, reverse)
    # the field at x when a residual needed it: the next step's k1
    fx = None
    if record:
        fx = f(x)
        run.times.append(0.0)
        run.records.append(x.copy())
        run.residuals.append(float(np.abs(fx).max()))

    tiny = 1e-15 * dt
    t_prev = 0.0
    for k in range(1, n_steps + 1):
        # time stamps from integer step counts; last stamp pinned to t_end
        t_k = t_end if k == n_steps else k * dt
        h = t_k - t_prev
        if h > tiny:
            x, used = _substep(f, x, h, n, fx)
            if used is not h:  # some lane halved: finish each lane's interval
                remaining = h - used
                while (todo := remaining > tiny).any():
                    x, used = _substep(f, x, np.where(todo, remaining, 0.0), n)
                    remaining = remaining - used
        t_prev = t_k
        fx = None
        history[filled] = x
        filled += 1
        if filled == rows:
            _fold_mass(history, n, hi, lo)
            filled = 0

        record_now = record and (k % stride == 0 or k == n_steps)
        stop = None
        if stop_eq or record_now:
            fx = f(x)
            afx = np.abs(fx)
            # a lane can stop only if n entries are below tol: for B=1 this
            # is the stop test itself, for a block a pre-filter
            if stop_eq and np.count_nonzero(afx < tol) >= n:
                res = np.maximum.reduce(afx.reshape(-1, n), 1)
                if np.minimum.reduce(res) < tol:
                    stop = res < tol
        if record and (record_now or stop is not None):
            run.times.append(t_k)
            run.records.append(x.copy())
            run.residuals.append(float(np.maximum.reduce(afx[:n])))
        if stop is not None:
            if filled:
                _fold_mass(history[:filled], n, hi, lo)
                filled = 0
            done = lanes[stop]
            run.states[done] = x.reshape(-1, n)[stop]
            run.max_drift[done] = np.maximum(hi - mass0, mass0 - lo)[stop]
            run.steps[done] = k
            run.final_time[done] = t_k
            run.stopped[done] = True
            if stop.all():
                return run
            live = ~stop
            lanes, mass0, hi, lo = lanes[live], mass0[live], hi[live], lo[live]
            x = x.reshape(-1, n)[live].ravel()
            fx = fx.reshape(-1, n)[live].ravel()
            history = np.empty((rows, x.size))
            keep = keep[live]
            f = _field(g, interaction, keep, reverse)
    if filled:
        _fold_mass(history[:filled], n, hi, lo)
    run.states[lanes] = x.reshape(-1, n)
    run.max_drift[lanes] = np.maximum(hi - mass0, mass0 - lo)
    return run


def _variance(a: np.ndarray, axis=None):
    """np.var of a (over axis), the entropy of a state. A variance past the
    double range reads inf, without numpy's overflow warning."""
    with np.errstate(over="ignore"):
        return np.var(a, axis=axis)


def _trajectory(g: Graph, x0, opts: IntegratorOptions, direction: str,
                interaction: Optional[InteractionSpec],
                ) -> tuple[Trajectory, ConservationAudit]:
    x = prepare_state(x0, g.n)
    run = _simulate(g, x[None, :], opts, direction, interaction, record=True)
    st = np.array(run.records)
    final_t = float(run.final_time[0])
    traj = Trajectory(
        times=np.array(run.times),
        states=st,
        mass=st.sum(axis=1),
        entropy=_variance(st, axis=1),
        state_max=st.max(axis=1),
        state_min=st.min(axis=1),
        residual=np.array(run.residuals),
        direction=direction,
        metadata={
            "field_kernel": _field_kernel(g, interaction),
            "stopped_at_equilibrium": bool(run.stopped[0]),
            "steps_taken": int(run.steps[0]),
            "final_time": final_t,
        },
    )
    max_drift = float(run.max_drift[0])
    audit = ConservationAudit(
        initial_mass=float(run.mass0[0]),
        max_abs_drift=max_drift,
        drift_per_unit_time=max_drift / final_t,
    )
    return traj, audit


def simulate(
    g: Graph,
    x0,
    opts: Optional[IntegratorOptions] = None,
    interaction: Optional[InteractionSpec] = None,
) -> tuple[Trajectory, ConservationAudit]:
    """Integrate the forward dynamics from x0 to t_end (or until the field
    residual drops below the equilibrium threshold)."""
    return _trajectory(g, x0, opts or IntegratorOptions(), "forward", interaction)


def simulate_reverse(
    g: Graph,
    y0,
    opts: Optional[IntegratorOptions] = None,
    interaction: Optional[InteractionSpec] = None,
) -> tuple[Trajectory, ConservationAudit]:
    """Integrate the reverse-time (consensus) dynamics; stamps are tau >= 0."""
    return _trajectory(g, y0, opts or IntegratorOptions(), "reverse", interaction)
