"""Discrete-time information updates with delayed self-reinforcement (DSR).

Each synchronous update moves an agent's value against the mean discrepancy
with its neighbors, scaled by the alignment strength and the update
interval. The DSR term then re-applies a fixed fraction of the agent's own
previous increment. Recycling the previous update propagates changes across
the network much faster than neighbor alignment alone, without shortening
the interval at which any agent senses its neighborhood.

Leaders average the external source in as one extra neighbor. Updates are
synchronous: every discrepancy is evaluated on the frozen step-k vector
before any agent commits step k+1, so per-agent evaluation order never
matters. Update noise is drawn from counter-based streams keyed by
(master seed, step), which makes noisy runs reproducible independent of
evaluation order as well.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .topology import NetworkTopology


def _load_sparsetools():
    """scipy's CSR kernels, loaded by file (``find_spec`` imports nothing) and kept
    as ``scipy.sparse._sparsetools`` for a later ``import scipy.sparse`` to reuse. The
    package import, the fallback without the file, runs ``scipy.sparse/__init__``:
    about 300 more modules and over half of start-up, for two functions."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        paths = (os.path.join(root, "sparse", "_sparsetools" + s) for s in EXTENSION_SUFFIXES)
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is not None:
            spec = importlib.util.spec_from_file_location(name, path)
            sys.modules[name] = module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
    return importlib.import_module(name)


_sparsetools = _load_sparsetools()

# A run is diverged at a non-finite value or one beyond this magnitude
# times its scale: the largest of 1, |source.initial|, |source.final| and
# the initial magnitudes, so that the verdict does not depend on units.
# Arbitrary but documented; overflow-to-inf always triggers.
DIVERGENCE_LIMIT = 1.0e6

# A run has settled once every agent stays in this band (see StepSource.band).
SETTLING_BAND = 0.02


class IsolatedAgentError(ValueError):
    """A non-leader agent has no neighbors, so its discrepancy is undefined."""


@dataclass(frozen=True)
class StepSource:
    """Piecewise-constant source signal.

    Emits ``initial`` before ``switch_step`` and ``final`` from it onward.
    The source is held exactly; it has no dynamics of its own.
    """

    initial: float
    final: float
    switch_step: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.initial) and np.isfinite(self.final)):
            raise ValueError("source initial and final values must be finite")

    def value(self, step: int) -> float:
        return self.final if step >= self.switch_step else self.initial

    def band(self, fraction: float) -> float:
        """Half-width of the settling band around ``final``: ``fraction`` of |final|,
        or of |final - initial| when final is 0 and a relative band would be empty."""
        if not fraction > 0:
            raise ValueError("band must be positive")
        return fraction * abs(self.final or self.final - self.initial)


@dataclass(frozen=True)
class DsrParams:
    """Parameters of the DSR information update.

    alignment_strength: gain on the neighbor discrepancy, 1/s.
    dsr_gain: fraction of the previous update re-applied, dimensionless.
    update_interval: seconds between synchronous updates.
    source: external signal seen by leaders.
    noise_amplitude: half-width of the uniform noise added to each
        discrepancy estimate (same units as the information).
    """

    alignment_strength: float
    dsr_gain: float
    update_interval: float
    source: StepSource
    noise_amplitude: float = 0.0

    def __post_init__(self):
        # written so that a NaN fails every check
        if not self.update_interval > 0:
            raise ValueError("update_interval must be positive")
        if not self.alignment_strength >= 0:
            raise ValueError("alignment_strength must be nonnegative")
        if not 0.0 <= self.dsr_gain < 1.0:
            raise ValueError(
                "dsr_gain must lie in [0, 1); gains >= 1 leave the update undamped"
            )
        if not self.noise_amplitude >= 0:
            raise ValueError("noise_amplitude must be nonnegative")


@dataclass
class InfoState:
    """Per-agent values at the current step and the one before it."""

    current: np.ndarray
    previous: np.ndarray
    step: int = 0

    @classmethod
    def from_initial(cls, values) -> "InfoState":
        """State at step 0 with an at-rest history (previous == current)."""
        current = np.array(values, dtype=float)
        return cls(current=current, previous=current.copy(), step=0)


@dataclass
class Trajectory:
    """Step-major record of a run: row k holds every agent's value at t_k.
    ``settling_time`` is the run's verdict (see BlockRun.settling_times)."""

    times: np.ndarray
    values: np.ndarray
    params: object
    leader_ids: tuple[int, ...]
    diverged_step: int | None = None
    settling_time: float | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_step is not None

    @property
    def n_agents(self) -> int:
        return self.values.shape[1]


def _weights(indptr, leader_ids):
    """Over the CSR with row pointer ``indptr``: each edge's weight 1/(neighbors
    + source) and, per agent, the source's weight (0 but for leaders) and whether
    it has neither, which gets the weights 1 and 0 rather than a division by 0."""
    degrees = np.diff(indptr)
    leader = np.zeros(len(degrees))
    if leader_ids:
        leader[sorted(leader_ids)] = 1.0
    counts = degrees + leader
    isolated = counts == 0.0
    counts = np.where(isolated, 1.0, counts)
    return np.repeat(1.0 / counts, degrees), leader / counts, isolated


def _require_connected(mask):
    """Raise IsolatedAgentError naming the first agent in the isolated ``mask``, if any."""
    if mask is not None and mask.any():
        raise IsolatedAgentError(f"agent {mask.argmax()} has no neighbors and no source access")


def _discrepancy(indptr, indices, weights, pull, values, out):
    """Write ``values - A @ values - pull`` into ``out``, both n rows of one or
    more columns, and return it; A has the per-edge ``weights`` over the CSR
    ``(indptr, indices)``. The product is the CSR kernel (private to scipy) that
    a scipy array's ``@`` calls for the shape: the same bits, without ``@``'s
    per-call dispatch and allocation."""
    n = len(indptr) - 1
    if out.shape != values.shape or values.shape[:1] != (n,) or values.ndim > 2:
        raise ValueError("values and out must be n rows of the same shape")
    out.fill(0.0)  # the kernel reads unchecked and accumulates into out
    if values.size == n:
        _sparsetools.csr_matvec(n, n, indptr, indices, weights, values, out)
    else:
        _sparsetools.csr_matvecs(n, n, values.shape[1], indptr, indices, weights, values, out)
    np.subtract(values, out, out=out)
    return np.subtract(out, pull, out=out)


class DiscrepancyOperator:
    """Vectorized neighbor-discrepancy evaluation for a fixed topology.

    For agent i the discrepancy is the mean of I_i - I_j over its
    neighborhood; for leaders the external source joins the average as one
    additional member, so the discrepancy is ``values - A @ values -
    pull(source_value)``, with A the per-edge ``weights`` over the
    topology's own CSR, on every row. Non-leader agents with empty
    neighborhoods are flagged in ``isolated``, for the single steps
    ``dsr_step`` and ``second_order_step`` to raise on; a run weighs graphs
    in BlockRun.
    """

    def __init__(self, topology: NetworkTopology):
        self.weights, self._source_weight, self.isolated = _weights(
            topology.indptr, topology.leader_ids
        )
        self._csr = topology.indptr, topology.indices, self.weights

    def pull(self, source_value: float) -> np.ndarray:
        """The source's share of every agent's discrepancy."""
        return self._source_weight * source_value

    def __call__(self, values: np.ndarray, source_value: float) -> np.ndarray:
        return _discrepancy(*self._csr, self.pull(source_value), values, np.empty(len(values)))


class _StepNoise:
    """Uniform(-amplitude, +amplitude) update noise, one Philox stream per step.

    Step k draws from the stream keyed by the seed with counter (k + 1) << 64,
    so agent i's draw at step k is a pure function of (seed, k, i). The key
    is derived once; every draw resets the one bit generator to the step's
    counter with an empty buffer.
    """

    def __init__(self, seed: int, amplitude: float):
        self._amplitude = amplitude
        self._generator = np.random.Generator(np.random.Philox(seed))
        self._state = self._generator.bit_generator.state
        self._state.update(buffer_pos=4, has_uint32=0, uinteger=0)

    def __call__(self, step: int, n: int) -> np.ndarray:
        self._state["state"]["counter"] = np.array([0, step + 1, 0, 0], dtype=np.uint64)
        self._generator.bit_generator.state = self._state
        return self._generator.uniform(-self._amplitude, self._amplitude, size=n)


def _step_noise(params: DsrParams, seed: int | None) -> _StepNoise | None:
    """The update noise of a run with ``params``, or None without noise."""
    if not params.noise_amplitude > 0.0:
        return None
    if seed is None:
        raise ValueError("a seed is required when noise_amplitude > 0")
    return _StepNoise(seed, params.noise_amplitude)


def _dsr_update(cur, prev, delta, out, momentum, ksdt, beta, coast=None):
    """Write ``(cur - ksdt * delta) + beta * (cur - prev)`` into ``out``.

    At ``beta == 0`` the reinforcement term is skipped, so the update is
    exactly the diffusion step ``cur - ksdt * delta``: adding
    ``0 * (cur - prev)`` would turn -0.0 into +0.0 and inf into nan.
    Overwrites ``delta`` and ``momentum``. Reads ``prev`` before writing
    ``out``, so the two may share memory. Agents in the ``coast`` mask get
    no alignment term.
    """
    if beta:
        np.subtract(cur, prev, out=momentum)
        np.multiply(beta, momentum, out=momentum)
    np.multiply(ksdt, delta, out=delta)
    if coast is not None:
        delta[coast] = 0.0
    np.subtract(cur, delta, out=out)
    if beta:
        np.add(out, momentum, out=out)


def dsr_step(
    state: InfoState,
    topology: NetworkTopology,
    params: DsrParams,
    seed: int | None = None,
    *,
    operator: DiscrepancyOperator | None = None,
) -> InfoState:
    """Advance every agent one synchronous update.

    Raises IsolatedAgentError for a non-leader with an empty neighborhood,
    as a run does. ``operator`` may pass a precomputed DiscrepancyOperator
    when the topology is reused across many steps.
    """
    op = operator if operator is not None else DiscrepancyOperator(topology)
    _require_connected(op.isolated)
    noise = _step_noise(params, seed)
    delta = op(state.current, params.source.value(state.step))
    if noise is not None:
        delta += noise(state.step, state.current.size)
    new_values = np.empty(state.current.shape)
    ksdt = params.alignment_strength * params.update_interval
    _dsr_update(
        state.current, state.previous, delta, new_values, np.empty_like(delta),
        ksdt, params.dsr_gain,
    )
    return InfoState(current=new_values, previous=state.current, step=state.step + 1)


def detect_divergence(state: InfoState) -> bool:
    """True when any value is non-finite or beyond DIVERGENCE_LIMIT itself,
    the limit of a run of scale 1."""
    return not np.abs(state.current).max(initial=0.0) <= DIVERGENCE_LIMIT


# Steps run between divergence checks: at most 64, and fewer for large
# states, so that one check scans no more than about 2**18 values.
_MAX_BLOCK_STEPS = 64
_BLOCK_VALUES = 1 << 18


class BlockRun:
    """A run of m columns, stepped in blocks and resumable.

    Column j is an independent run whose discrepancy is scaled by
    ``gains[j]``. The state of step k, shape ``(state_width, n, m)`` (the
    values, ``initial`` or else ``source.initial`` for every agent, then any
    second-order rates, which start at zero), lives in slot k % (B + 1) of a
    ring buffer whose slots all start as the initial state, so step -1 reads
    as an at-rest history. Every step runs on a CSR graph
    ``(indptr, indices)``: the ``topology``'s own, or what the hook
    ``graph(k, values)`` returns for the step-k values (n, m), weighed
    whenever it differs by value from the step before's. A non-leader
    isolated in ``topology`` raises IsolatedAgentError here, and one
    isolated by a later graph coasts. ``update(k, delta, scratch, gain,
    prev, cur, nxt, coast)`` writes slot ``nxt`` (step k + 1) from the
    others, the step's discrepancy and its coasting mask (or None); it may
    overwrite ``delta`` and ``scratch``, and ``gain`` holds the gains of
    the live columns.

    After each block of up to B steps, one max and one min per step and
    column find the first step that is non-finite or beyond the run's limit
    (see DIVERGENCE_LIMIT), exactly as a check after every step would; that
    column's run ends there and it leaves the state. Steps after it, up to
    the end of the block, are computed and never kept. With ``record_every``
    (one column only) the run records step 0, every ``record_every``-th step
    and the last or diverged step. It tracks, per column, whether a value
    of the first state row lies outside the settling band
    ``source.band(SETTLING_BAND)`` around ``source.final`` at the current
    step, and the last such step among those it keeps whatever comes next:
    every step of an unrecorded run, the stride steps of a recorded one.
    """

    def __init__(
        self, topology, source, initial, update, gains, *, params,
        step_seconds, state_width=1, record_every=None, graph=None,
    ):
        if record_every is not None and record_every < 1:
            raise ValueError("record_every must be at least 1")
        if record_every is not None and len(gains) != 1:
            raise ValueError("only a single-column run can be recorded")
        self._leader_ids = tuple(sorted(topology.leader_ids))
        self._source, self._hook = source, graph
        _require_connected(self._use((topology.indptr, topology.indices))[-1])
        n, m = topology.n_agents, len(gains)
        start = np.array(np.full(n, source.initial) if initial is None else initial, float)
        if start.shape != (n,):
            raise ValueError("initial values must provide one entry per agent")
        if not np.isfinite(start).all():
            raise ValueError("initial values must be finite")
        scale = max(1.0, abs(source.initial), abs(source.final), np.abs(start).max(initial=0.0))
        self._limit = DIVERGENCE_LIMIT * scale
        self.step, self.diverged_steps = 0, [None] * m
        self._n, self._update = n, update
        self._params, self.step_seconds = params, step_seconds
        block = min(_MAX_BLOCK_STEPS, max(1, _BLOCK_VALUES // max(1, state_width * n * m)))
        ring = np.zeros((block + 1, state_width, n, m))
        ring[:, 0] = start[:, None]
        self._set_columns(ring, np.arange(m), np.array(gains, dtype=float))
        self._tolerance = source.band(SETTLING_BAND)
        outside = self._outside(start.max(initial=-np.inf), start.min(initial=np.inf))
        self._last_outside = np.full(m, 0 if outside else -1)
        self._outside_now = np.full(m, outside)
        self._record_every, self._filled = record_every, 1
        self._values, self._kept = start[None, :], np.zeros(1, dtype=np.int64)

    def _set_columns(self, ring, columns, gain):
        self._ring, self.columns, self._gain = ring, columns, gain
        self._slots = [tuple(slot) for slot in ring]
        self._delta, self._scratch = np.empty(ring.shape[2:]), np.empty(ring.shape[2:])

    def _use(self, graph):
        """Weigh ``graph`` for the steps from now on; returns what advance unpacks."""
        weights, source_weight, isolated = _weights(graph[0], self._leader_ids)
        pulls = [(source_weight * v)[:, None] for v in (self._source.initial, self._source.final)]
        self._terms = *graph, weights, pulls, isolated if isolated.any() else None
        return self._terms

    @property
    def current(self) -> np.ndarray:
        """Values at the current step, one column per entry of ``columns``
        (the indices of the columns that have not diverged)."""
        return self._slots[self.step % len(self._slots)][0]

    def _outside(self, hi, lo):
        # rounding is monotone and symmetric: this is max |value - target|
        target = self._source.final
        return ~(np.maximum(hi - target, target - lo) <= self._tolerance)

    def advance(self, n_steps: int) -> "BlockRun":
        """Continue every live column to step ``n_steps``; returns the run."""
        if n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if n_steps < self.step:
            raise ValueError("a run cannot go back to an earlier step")
        if n_steps == self.step or not self.columns.size:
            return self
        if self._record_every is not None:
            self._reserve(n_steps)
        hook, update, switch = self._hook, self._update, self._source.switch_step
        # steps after a diverged one may overflow; they are never kept
        with np.errstate(over="ignore", invalid="ignore"):
            while self.step < n_steps and self.columns.size:
                k0, slots = self.step, self._slots
                k1, size = min(k0 + len(slots) - 1, n_steps), len(slots)
                delta, scratch, gain = self._delta, self._scratch, self._gain
                indptr, indices, weights, pulls, coast = self._terms
                for k in range(k0, k1):
                    cur = slots[k % size]
                    if hook is not None:
                        new = hook(k, cur[0])
                        if not all(map(np.array_equal, new, (indptr, indices))):
                            indptr, indices, weights, pulls, coast = self._use(new)
                    _discrepancy(indptr, indices, weights, pulls[k >= switch], cur[0], delta)
                    update(k, delta, scratch, gain, slots[(k - 1) % size], cur,
                           slots[(k + 1) % size], coast)
                self.step = k1
                self._check(np.arange(k0 + 1, k1 + 1), k1 == n_steps)
        return self

    def _check(self, steps, last):
        """Divergence, band and record bookkeeping after one block."""
        ring, size = self._ring, len(self._ring)
        rows = steps % size
        # one contiguous run of n values per slot, column and state row for
        # fast reductions; hi and lo are (step, column, state row)
        flat = np.ascontiguousarray(ring.transpose(0, 3, 1, 2))
        hi = flat.max(axis=3, initial=-np.inf)[rows]
        lo = flat.min(axis=3, initial=np.inf)[rows]
        bad = ~(np.maximum(hi, -lo) <= self._limit).all(axis=2)
        diverged, first = bad.any(axis=0), bad.argmax(axis=0)
        outside = self._outside(hi[..., 0], lo[..., 0])
        self._outside_now[self.columns] = outside[-1]
        if self._record_every is not None:
            outside &= (steps % self._record_every == 0)[:, None]
        seen = outside.any(axis=0)
        latest = steps[len(steps) - 1 - outside[::-1].argmax(axis=0)]
        self._last_outside[self.columns[seen]] = latest[seen]
        if self._record_every is not None:
            kept = steps[: first[0] + 1] if diverged[0] else steps
            keep = kept % self._record_every == 0
            keep[-1] |= diverged[0] or last
            kept = kept[keep]
            filled = self._filled
            self._kept[filled : filled + kept.size] = kept
            self._values[filled : filled + kept.size] = ring[kept % size, 0, :, 0]
            self._filled += kept.size
        if diverged.any():
            for j in np.flatnonzero(diverged):
                self.diverged_steps[self.columns[j]] = int(steps[first[j]])
            live = ~diverged
            self._set_columns(
                np.ascontiguousarray(ring[..., live]), self.columns[live], self._gain[live]
            )

    def _reserve(self, n_steps):
        """Fresh record arrays up to ``n_steps``, so that a trajectory handed
        out earlier is never written again."""
        if self.step % self._record_every:
            self._filled -= 1  # the forced last row is off the stride
        rows, filled = 1 + -(-n_steps // self._record_every), self._filled
        values, kept = np.empty((rows, self._n)), np.zeros(rows, dtype=np.int64)
        values[:filled], kept[:filled] = self._values[:filled], self._kept[:filled]
        self._values, self._kept = values, kept

    def trajectory(self) -> Trajectory:
        """The record so far of a run made with ``record_every``, and its verdict:
        a view of the run's arrays, which the run never writes again."""
        filled = self._filled
        return Trajectory(
            self._kept[:filled] * self.step_seconds, self._values[:filled], self._params,
            self._leader_ids, self.diverged_steps[0], self.settling_times()[0],
        )

    def settling_times(self) -> list[float | None]:
        """Per column, the time of the first kept step from which every value
        stays inside the band through the current step; None for a column
        that diverged or is outside the band now. For a recorded run this is
        ``analysis.settling_time`` on its record, bit for bit."""
        every = self._record_every or 1
        return [
            None if bad is not None or now
            else (0 if last < 0 else min(int(last) + every, self.step)) * self.step_seconds
            for bad, now, last in zip(self.diverged_steps, self._outside_now, self._last_outside)
        ]


def dsr_run(
    topology: NetworkTopology,
    column_params,
    initial=None,
    seed: int | None = None,
    record_every: int | None = 1,
    graph=None,
) -> BlockRun:
    """A DSR run from ``initial``, judged on its source's band (see BlockRun), with one
    column per entry of ``column_params``, DsrParams that may differ only in alignment strength.

    Each step's noise is drawn once and shared by every column, so each
    column is bitwise equal to the single run of its parameters. A
    ``graph`` hook (see BlockRun) moves the network with the run; the noise
    is added to the discrepancy on its graph, and the agents that graph
    isolates get no alignment term.
    """
    params = column_params[0]
    for other in column_params:
        if replace(other, alignment_strength=params.alignment_strength) != params:
            raise ValueError("columns may differ only in alignment strength")
    noise = _step_noise(params, seed)
    beta = params.dsr_gain

    def update(k, delta, scratch, gain, prev, cur, nxt, coast):
        if noise is not None:
            np.add(delta, noise(k, delta.shape[0])[:, None], out=delta)
        _dsr_update(cur[0], prev[0], delta, nxt[0], scratch, gain, beta, coast)

    return BlockRun(
        topology, params.source, initial, update,
        [p.alignment_strength * p.update_interval for p in column_params],
        params=params, step_seconds=params.update_interval,
        record_every=record_every, graph=graph,
    )


def simulate(
    topology: NetworkTopology,
    params: DsrParams,
    initial,
    n_steps: int,
    seed: int | None = None,
) -> Trajectory:
    """Run ``n_steps`` synchronous updates, recording every step.

    Stops early, truncating the record and setting the divergence flag, as
    soon as any value diverges. Identical seeds and parameters produce
    bitwise-identical trajectories.
    """
    return dsr_run(topology, [params], initial, seed).advance(n_steps).trajectory()
