"""World state containers, uniform initialization and the run loop shared
by both engines."""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import min_enclosing_disc
from .rng import check_integer, make_rng

TWO_PI = 2.0 * math.pi

# A run draws its headings in blocks of up to this many steps, and of at
# most this many headings.
_BLOCK_STEPS = 64
_BLOCK_HEADINGS = 4096


@dataclass
class Constellation:
    """All agent positions and headings at one instant: the state that
    `discrete_step` and `continuous_interval` map to the next one, and a
    run's optional start.

    positions: (n, 2) float64; headings: (n,) radians, all finite (a
    ValueError otherwise). A step takes any finite headings; a run's start
    needs them in [0, 2*pi), since frame 0 records them as given.
    """

    positions: np.ndarray
    headings: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.headings = np.asarray(self.headings, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must have shape (n, 2)")
        if self.headings.shape != (len(self.positions),):
            raise ValueError("headings length must match positions")
        if not (np.isfinite(self.positions).all() and np.isfinite(self.headings).all()):
            raise ValueError("positions and headings must be finite")

    @property
    def n(self) -> int:
        return len(self.positions)


@dataclass
class Frame:
    """One recorded instant: positions, headings and per-agent moved flags
    (position changed since the previous step, all False at step 0). The
    enclosing radius is recomputed from the positions when needed; a
    continuous run's radius and Lyapunov value live in `Trace.series`."""

    step: int
    positions: np.ndarray
    headings: np.ndarray
    moved: np.ndarray


@dataclass
class Trace:
    """Time-indexed run record. frames follow the recording cadence (every
    record_every-th step plus the final one); series (traced continuous
    runs) has one entry per unit interval regardless: (interval, enclosing
    radius, lyapunov value, confined). An untraced run (record_every=None)
    leaves both empty."""

    frames: list[Frame] = field(default_factory=list)
    series: list[tuple[int, float, float, bool]] = field(default_factory=list)


@dataclass
class RunSummary:
    """Per-run convergence record; converged_step is None when the run hit
    its step cap without converging."""

    run_id: int
    seed: int
    n: int
    spread: float
    converged_step: int | None
    final_radius: float


def draw_headings(rng: np.random.Generator, n: int) -> np.ndarray:
    """n fresh headings, i.i.d. uniform on [0, 2*pi), in agent-index order."""
    return rng.uniform(0.0, TWO_PI, n)


def apply_move(move, state: Constellation, config, headings) -> Constellation:
    """One model step by hand: `move(positions, config, hx, hy)`, the
    model's move that the run loop calls, applied to `state` under the
    caller's `headings`. The state they make is checked as any
    `Constellation` is before the move runs, so a state whose arrays were
    written since it was built is checked again."""
    step = Constellation(state.positions, headings)
    return Constellation(move(step.positions, config, np.cos(step.headings),
                              np.sin(step.headings)), step.headings)


def init_constellation(config, rng: np.random.Generator) -> Constellation:
    """Random initial state: positions i.i.d. uniform over the axis-aligned
    square [0, spread]^2, then headings uniform on [0, 2*pi).

    Draw order (all positions, then all headings) is part of the
    reproducibility contract: identical (config, seed) reproduces the
    constellation bit-for-bit.
    """
    positions = rng.uniform(0.0, config.spread, (config.n, 2))
    headings = draw_headings(rng, config.n)
    return Constellation(positions, headings)


def run_loop(config, cap: int, move, observe, record_every: int | None = 1,
             initial: Constellation | None = None):
    """Drive one run of either model: observe the start, then apply `move`
    (one discrete jump or one unit interval) until the observer reports
    convergence or `cap` steps have run. The loop counts the run's steps
    from 0, for frame numbers, the cap and the convergence step, and holds
    the positions and the current step's headings itself.

    The loop is the one place that draws a run's headings, from rng =
    make_rng(config.seed): the headings of up to _BLOCK_STEPS steps at once,
    at most _BLOCK_HEADINGS of them (or one step's, for more agents than
    that) and never past the cap, in one (rows, n) draw with its cosines and
    sines. Row by row this consumes the generator as one
    `draw_headings(rng, n)` per step would, so `discrete_step` or
    `continuous_interval` fed those draws after `init_constellation`
    reproduces the run, and the cosine and sine of a row equal those of the
    block (tested). `move(positions, config, hx, hy)` returns the next
    positions for one step's heading cosines and sines; it may return its
    input array when no agent moves, and never changes it in place. The run
    starts from `initial` if given, else from the seeded uniform placement;
    `initial` takes no draws, so the generator then starts at the seed's
    first draw. It is built again as a `Constellation`, as a step builds
    its state, so arrays written since it was built are checked too; a
    heading outside [0, 2*pi) in it is a ValueError before the first
    observation.
    `observe(trace, positions, k)` returns whether the run has gathered;
    the summary's final radius is the enclosing disc of the last positions,
    computed once after the loop. With an integer `record_every` the trace
    records every record_every-th frame and the final one, each with moved
    flags against the previous step; with None it records no frames and no
    per-step flags are computed. Non-convergence is a data outcome, not an
    error.
    """
    record_every = None if record_every is None else check_integer("record_every", record_every, 1)
    rng = make_rng(config.seed)
    state = (init_constellation(config, rng) if initial is None
             else Constellation(initial.positions, initial.headings))
    if state.n != config.n:
        raise ValueError("initial constellation size does not match config.n")
    if not ((state.headings >= 0.0) & (state.headings < TWO_PI)).all():
        raise ValueError("initial constellation has headings outside [0, 2*pi)")
    positions = prev_positions = state.positions
    headings = state.headings
    trace = Trace()
    block_rows = max(1, min(_BLOCK_STEPS, _BLOCK_HEADINGS // config.n))
    row = rows = 0
    k = 0
    while True:
        converged = observe(trace, positions, k)
        last = converged or k >= cap
        if record_every is not None and (last or k % record_every == 0):
            moved = np.any(positions != prev_positions, axis=1)
            trace.frames.append(Frame(k, positions.copy(), headings.copy(), moved))
        if last:
            break
        if row == rows:
            rows = min(block_rows, cap - k)
            block = rng.uniform(0.0, TWO_PI, (rows, config.n))
            hx = np.cos(block)
            hy = np.sin(block)
            row = 0
        prev_positions = positions
        headings = block[row]
        positions = move(positions, config, hx[row], hy[row])
        row += 1
        k += 1
    summary = RunSummary(run_id=0, seed=config.seed, n=config.n, spread=config.spread,
                         converged_step=k if converged else None,
                         final_radius=min_enclosing_disc(positions).radius)
    return trace, summary
