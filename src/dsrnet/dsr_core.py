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


def _check_chaining():
    """Whether scipy's ``csr_matvec``, given one array as its input and output,
    reads the rows it wrote earlier in the same call (as a block of BlockRun's
    kernel path does) and rounds each product before adding it: -0.0 + 1 *
    (-1) + b * a is 0.0, where a fused multiply-add gives -2**-60."""
    a, b = 1 + 2**-30, 1 - 2**-30
    rows = np.array([1.0, 0.0, 0.0, -1.0, a, -0.0])
    index = np.array([0, 0, 1, 2, 2, 2, 4], np.int32), np.array([0, 1, 3, 4], np.int32)
    _sparsetools.csr_matvec(6, 6, *index, np.array([2.0, 1.0, 1.0, b]), rows, rows)
    return rows[2] == 2.0 and rows[5] == 0.0


# A run is diverged at a non-finite value or one beyond this magnitude
# times its scale: the largest of 1, |source.initial|, |source.final| and
# the initial magnitudes, so that the verdict does not depend on units.
# Arbitrary but documented; overflow-to-inf always triggers.
DIVERGENCE_LIMIT = 1.0e6

# A run has settled once every agent stays in this band (see StepSource.band).
SETTLING_BAND = 0.02

# An agent has responded once its value reaches this fraction of the way
# through the source's step (see StepSource.level).
DELAY_LEVEL = 0.1


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

    def level(self, fraction: float) -> float:
        """The value ``fraction`` of the way from ``initial`` to ``final``."""
        return self.initial + fraction * (self.final - self.initial)


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
    ``settling_time`` is the run's verdict (see BlockRun.settling_times);
    ``crossing_times`` (NaN for an agent that never crossed) and ``extremes``
    (None for a diverged run) are what the run reduced over the steps it
    judged (see BlockRun), which may be more than the record holds."""

    times: np.ndarray
    values: np.ndarray
    params: object
    leader_ids: tuple[int, ...]
    diverged_step: int | None = None
    settling_time: float | None = None
    crossing_times: np.ndarray | None = None
    extremes: tuple[float, float] | None = None

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


def _dsr_update(cur, prev, delta, out, momentum, ksdt, beta):
    """Write ``(cur - ksdt * delta) + beta * (cur - prev)`` into ``out``.

    At ``beta == 0`` the reinforcement term is skipped, so the update is
    exactly the diffusion step ``cur - ksdt * delta``: adding
    ``0 * (cur - prev)`` would turn -0.0 into +0.0 and inf into nan.
    Overwrites ``delta`` and ``momentum``. Reads ``prev`` before writing
    ``out``, so the two may share memory.
    """
    if beta:
        np.subtract(cur, prev, out=momentum)
        np.multiply(beta, momentum, out=momentum)
    np.multiply(ksdt, delta, out=delta)
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

# A run on a fixed graph with fewer than this many agents times columns takes
# each block in one call of scipy's CSR kernel (see BlockRun), whose matrix
# holds at most _KERNEL_ENTRIES entries (1.5 MiB with int32 indices). The
# kernel's scalar loop costs several times numpy's vectorized ufuncs per
# value, so larger runs step on those (the crossover was measured on a
# lattice, see ROADMAP.md), as every run does where _check_chaining fails.
_KERNEL_VALUES = 700 if _check_chaining() else 0
_KERNEL_ENTRIES = 1 << 17


class _KernelBlock:
    """Up to ``steps`` steps of every column in one call of scipy's CSR kernel.

    The kernel's one array, its input and its output, holds an area of rows
    per step and column, in step-major order: the step's pull and any noise
    (filled in before the call), then the neighbour sums S, the discrepancy
    D and one row group per chain (see BlockRun), the last ``width`` of
    which are the next state. Two areas come first, whose tails hold the
    values one step back and the current state. The kernel writes each row
    before it reads a later one, so every row reads rows already written:
    its sum runs from +0.0 in S and from -0.0 elsewhere, term by term and
    left to right, rounding as numpy's calls do.
    """

    def __init__(self, graph, pulls, width, chains, gains, steps, noise):
        indptr, indices, weights = graph
        n, m = len(indptr) - 1, len(gains)
        inputs = ["pull", "noise"] if noise is not None else ["pull"]
        names = inputs + ["S", "D"] + [name for name, _ in chains]
        stride = len(names) * n
        span, tail = m * stride, stride - width * n
        # operand offsets from the start of the step's own area
        at = {name: g * n for g, name in enumerate(names)}
        at.update(x=tail - span, r=tail - span + n, prev=tail - 2 * span)
        rows = [[(1.0, "x"), (-1.0, "S")] + [(-1.0, "pull"), (1.0, "noise")][: len(inputs)]]
        rows += [terms for _, terms in chains]
        # one step of one column, row by row: S in CSR order, then D and the
        # chains, each row's terms in order; NaN stands for minus the gain
        coef = [weights]
        coef += [np.tile([np.nan if c == "-gain" else c for c, _ in r], n) for r in rows]
        offset = [at["x"] + indices]
        offset += [(np.arange(n)[:, None] + [at[name] for _, name in r]).ravel() for r in rows]
        counts = [np.zeros(len(inputs) * n, int), np.diff(indptr)]
        counts += [np.full(n, len(r)) for r in rows]
        coef = np.concatenate(coef)
        offset, counts = (np.concatenate(c).astype(np.int32) for c in (offset, counts))
        # every step and column, in step-major order
        area = np.arange(steps * m, dtype=np.int32)[:, None]
        self._indices = ((area + 2 * m) * stride + offset).ravel()
        data = np.where(np.isnan(coef), -np.asarray(gains, dtype=float)[:, None], coef)
        self._data = np.tile(data.ravel(), steps)
        ends = (coef.size * area + np.cumsum(counts, dtype=np.int32)).ravel()
        self._indptr = np.concatenate([np.zeros(2 * span + 1, np.int32), ends])
        self._values = np.zeros((steps + 2) * span)
        self._areas = self._values.reshape(steps + 2, m, len(names), n)
        self.states = self._areas[:, :, -width:]  # (slot, column, state row, agent)
        self._pulls, self._noise, self._sums = np.stack(pulls)[..., 0], noise, len(inputs)

    def __call__(self, k0, steps, switch):
        """Steps k0 + 1 to k0 + ``steps``, from the states in slots 0 and 1."""
        new, n = self._areas[2 : steps + 2], self._areas.shape[3]
        new[:, :, 0] = self._pulls[(np.arange(k0, k0 + steps) >= switch).astype(int)][:, None]
        for i in range(steps if self._noise is not None else 0):
            new[i, :, 1] = self._noise(k0 + i, n)
        new[:, :, self._sums] = 0.0
        new[:, :, self._sums + 1 :] = -0.0
        rows, z = self._areas[: steps + 2].size, self._values
        _sparsetools.csr_matvec(rows, rows, self._indptr, self._indices, self._data, z, z)


def _plan(chains, minus_gain, rows, prev, cur, nxt):
    """One step of ``chains`` (see BlockRun) as numpy calls ``(f, a, b, out)``
    from ring slots ``prev`` and ``cur`` into ``nxt``, rounding as a kernel
    row: a sum starts from its first term of coefficient 1 (-0.0 + x is x);
    a coefficient of 1 or -1 is an add or a subtract, any other a multiply,
    into its operand if that is one of ``rows`` (D, the named rows) read by
    no other term and else into ``rows["scratch"]``, and an add."""
    reads = [operand for _, terms in chains for _, operand in terms]
    own = {name for name in rows if name != "scratch" and reads.count(name) == 1}
    names = [name for name, _ in chains[len(chains) - len(nxt) :]]
    rows = {**rows, **dict(zip(("x", "r"), cur)), "prev": prev[0], **dict(zip(names, nxt))}
    plan = []
    for name, terms in chains:
        out, total = rows[name], None
        for c, operand in terms:
            term = rows[operand]
            if total is None and c == 1.0:
                total = term
                continue
            if c not in (1.0, -1.0):
                product = term if operand in own else rows["scratch"]
                plan.append((np.multiply, minus_gain if c == "-gain" else c, term, product))
                c, term = 1.0, product
            total = -0.0 if total is None else total
            plan.append((np.add if c == 1.0 else np.subtract, total, term, out))
            total = out
        if total is not out:
            plan.append((np.add, -0.0, total, out))
    return plan


class _Record:
    """The rows a recorded BlockRun stores on multiples of ``every``: step 0,
    the multiples and the last step, while the run's horizon is at most
    ``horizon`` (None for any)."""

    def __init__(self, every, horizon, start):
        self.every, self.horizon = every, horizon
        self.values, self.filled = start[None, :], 1

    def reserve(self, step, n_steps):
        """Moves to fresh arrays up to ``n_steps`` from ``step``, dropping a
        last row off the multiples, so that a trajectory handed out earlier is
        never written again; returns the record."""
        filled = self.filled - (step % self.every != 0)
        values = np.empty((1 + -(-n_steps // self.every), self.values.shape[1]))
        values[:filled] = self.values[:filled]
        self.values, self.filled = values, filled
        return self

    def store(self, states, k0, end, forced):
        """The rows of steps k0 + 1 to ``end`` on the multiples (step k lies
        in slot k - k0 + 1 of ``states``), then step ``end`` when ``forced``."""
        m, filled = self.every, self.filled
        first = (k0 // m + 1) * m
        rows = states[first - k0 + 1 : end - k0 + 2 : m, 0, 0]
        self.values[filled : filled + len(rows)] = rows
        filled += len(rows)
        if forced and end % m:
            self.values[filled] = states[end - k0 + 1, 0, 0]
            filled += 1
        self.filled = filled


class BlockRun:
    """A run of m columns, stepped in blocks and resumable.

    Column j is an independent run whose discrepancy is scaled by
    ``gains[j]``. A block of B steps from step k0 reads the states of steps
    k0 - 1 and k0 in slots 0 and 1 of its buffer and writes step k0 + i in
    slot i + 1; its last two then move to slots 0 and 1. A state (the
    values, ``initial`` or else ``source.initial`` for every agent, then any
    second-order rates, which start at zero) starts in both, so step -1
    reads as an at-rest history. Every step runs on a CSR graph
    ``(indptr, indices)``: the ``topology``'s own, or what the hook
    ``graph(k, values)`` returns for the step-k values (n, m), weighed
    whenever it differs by value from the step before's. A non-leader
    isolated in ``topology`` raises IsolatedAgentError here, and one
    isolated by a later graph coasts: its discrepancy is 0. ``noise(k, n)``,
    if given, is step k's noise, added to every column's discrepancy.

    ``chains`` state the update as rows, each a ``(name, terms)`` pair whose
    value is the sum of its ``(coefficient, operand)`` terms taken left to
    right from -0.0. An operand is ``x`` or ``r`` (the state rows of step
    k), ``prev`` (the values of step k - 1), ``D`` (the discrepancy) or a row
    named before; the coefficient ``"-gain"`` is minus the column's gain, and
    the last ``state_width`` rows are the state of step k + 1. A run with no
    hook and fewer than _KERNEL_VALUES agents times columns takes each block
    in one call of scipy's CSR kernel (_KernelBlock); every other run makes
    the numpy calls of _plan at every step. Both give the same bits where
    the kernel is built without FMA contraction.

    After each block of up to B steps, one max and one min per step and
    column find the first step that is non-finite or beyond the run's limit
    (see DIVERGENCE_LIMIT), exactly as a check after every step would; that
    column's run ends there and it leaves the state. Steps after it, up to
    the end of the block, are computed and never kept. With ``record_every``
    (one column only) the run judges step 0, every ``record_every``-th step
    and the last or diverged step. It tracks, per column, whether a value
    of the first state row lies outside the settling band
    ``source.band(SETTLING_BAND)`` around ``source.final`` at the current
    step, and the last such step among those it judges whatever comes next:
    every step of an unrecorded run, the stride steps of a recorded one.
    Over the same steps a recorded run reduces the least and greatest value
    and, with ``crossings``, each agent's first step at or past
    ``source.level(DELAY_LEVEL)``. The stride steps of a block are found by
    arithmetic, and a block that holds none reduces nothing. A last step off
    the stride counts only while the run ends there, as for the band.

    What a recorded run stores is apart from what it judges. ``store`` maps
    multiples of ``record_every`` to horizons (None for any): the record of
    a multiple holds step 0, the steps on that multiple and the last step,
    and an ``advance`` past its horizon drops it. By default the run stores
    every step it judges.
    """

    def __init__(
        self, topology, source, initial, chains, gains, *, params, step_seconds,
        state_width=1, record_every=None, store=None, crossings=False, graph=None, noise=None,
    ):
        if record_every is not None and record_every < 1:
            raise ValueError("record_every must be at least 1")
        if record_every is not None and len(gains) != 1:
            raise ValueError("only a single-column run can be recorded")
        if store is None:
            store = {} if record_every is None else {record_every: None}
        if any(record_every is None or m < 1 or m % record_every for m in store):
            raise ValueError("a run stores only on multiples of its record_every")
        if crossings and record_every is None:
            raise ValueError("only a recorded run reduces crossings")
        self._leader_ids = tuple(sorted(topology.leader_ids))
        self._source, self._hook, self._noise = source, graph, noise
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
        self._n, self._params, self.step_seconds = n, params, step_seconds
        block = min(_MAX_BLOCK_STEPS, max(1, _BLOCK_VALUES // max(1, state_width * n * m)))
        self._on_kernel = graph is None and n * m < _KERNEL_VALUES
        if self._on_kernel:
            entries = topology.indices.size + n * (3 + (noise is not None))
            entries += n * sum(len(terms) for _, terms in chains)
            block = min(block, max(1, _KERNEL_ENTRIES // max(1, m * entries)))
        self._chains, self._block = chains, block
        history = np.zeros((2, m, state_width, n))
        history[:, :, 0] = start
        self._set_columns(history, np.arange(m), np.array(gains, dtype=float))
        self._tolerance = source.band(SETTLING_BAND)
        outside = self._outside(start.max(initial=-np.inf), start.min(initial=np.inf))
        self._last_outside = np.full(m, 0 if outside else -1)
        self._outside_now = np.full(m, outside)
        self._record_every = record_every
        self._records = {m: _Record(m, horizon, start) for m, horizon in store.items()}
        self._extremes = start.min(initial=np.inf), start.max(initial=-np.inf)
        # each agent's crossing step (NaN until it crosses) and those pending
        self._crossed = self._pending = None
        if crossings:
            self._rising, self._level = source.final > source.initial, source.level(DELAY_LEVEL)
            self._crossed = np.full(n, np.nan)
            if source.final != source.initial:
                self._pending = ~self._past_level(start)
                self._crossed[~self._pending] = 0

    def _set_columns(self, history, columns, gain):
        """Buffers for the live ``columns``, whose states at the step before
        and the current one are ``history``, (2, column, state row, agent)."""
        self.columns, self._gain = columns, gain
        _, m, width, n = history.shape
        if self._on_kernel:
            *graph, pulls, _ = self._terms
            self._kernel = _KernelBlock(
                graph, pulls, width, self._chains, gain, self._block, self._noise
            )
            self._states = self._kernel.states
        else:
            ring = np.empty((self._block + 2, width, n, m))
            self._slots = slots = [tuple(slot) for slot in ring]
            self._states = ring.transpose(0, 3, 1, 2)
            named = ["scratch", "D"] + [name for name, _ in self._chains[:-width]]
            rows = {name: np.empty((n, m)) for name in named}
            self._delta, chains = rows["D"], self._chains
            self._plans = [_plan(chains, -gain, rows, *s) for s in zip(slots, slots[1:], slots[2:])]
        self._states[:2] = history

    def _use(self, graph):
        """Weigh ``graph`` for the steps from now on; returns what advance unpacks."""
        weights, source_weight, isolated = _weights(graph[0], self._leader_ids)
        pulls = [(source_weight * v)[:, None] for v in (self._source.initial, self._source.final)]
        self._terms = *graph, weights, pulls, isolated if isolated.any() else None
        return self._terms

    @property
    def state(self) -> np.ndarray:
        """The state at the current step, ``(state_width, n, live columns)``:
        the values, then any second-order rates."""
        return self._states[1].transpose(1, 2, 0)

    @property
    def current(self) -> np.ndarray:
        """Values at the current step, one column per entry of ``columns``
        (the indices of the columns that have not diverged)."""
        return self.state[0]

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
        self._reserve(n_steps)
        # steps after a diverged one may overflow; they are never kept
        with np.errstate(over="ignore", invalid="ignore"):
            while self.step < n_steps and self.columns.size:
                k0 = self.step
                k1 = min(k0 + self._block, n_steps)
                if self._on_kernel:
                    self._kernel(k0, k1 - k0, self._source.switch_step)
                else:
                    self._each_step(k0, k1)
                self.step = k1
                self._check(k0, k1, k1 == n_steps)
        return self

    def _each_step(self, k0, k1):
        """Steps k0 + 1 to k1 into slots 2 on, one plan of _plan each."""
        hook, noise, n, slots, plans = self._hook, self._noise, self._n, self._slots, self._plans
        indptr, indices, weights, pulls, coast = self._terms
        delta, switch = self._delta, self._source.switch_step
        for i, k in enumerate(range(k0, k1)):
            values = slots[i + 1][0]
            if hook is not None:
                new = hook(k, values)
                if not all(map(np.array_equal, new, (indptr, indices))):
                    indptr, indices, weights, pulls, coast = self._use(new)
            _discrepancy(indptr, indices, weights, pulls[k >= switch], values, delta)
            if noise is not None:
                np.add(delta, noise(k, n)[:, None], out=delta)
            if coast is not None:
                delta[coast] = 0.0
            for f, a, b, out in plans[i]:
                f(a, b, out)

    def _check(self, k0, k1, last):
        """Divergence, band, reductions and records after the block of steps
        k0 + 1 to k1, in slots 2 on."""
        states, size = self._states, k1 - k0
        # reductions over contiguous runs of n values (a copy for several
        # columns of the per-step path); hi and lo are (step, column, state row)
        block = states[2 : size + 2]
        if block.strides[3] != block.itemsize:
            block = np.ascontiguousarray(block)
        hi = block.max(axis=3, initial=-np.inf)
        lo = block.min(axis=3, initial=np.inf)
        bad = ~(np.maximum(hi, -lo) <= self._limit).all(axis=2)
        diverged, first = bad.any(axis=0), bad.argmax(axis=0)
        outside = self._outside(hi[..., 0], lo[..., 0])
        self._outside_now[self.columns] = outside[-1]
        # the judged steps of the block are its rows j, j + every, ...
        every = self._record_every or 1
        j = -(k0 + 1) % every
        judged = outside[j::every]
        if len(judged):
            seen = judged.any(axis=0)
            latest = k0 + 1 + j + every * (len(judged) - 1 - judged[::-1].argmax(axis=0))
            self._last_outside[self.columns[seen]] = latest[seen]
        if self._record_every is not None:
            # a recorded run ends at its diverged step
            stop = first[0] + 1 if diverged[0] else size
            if j < stop:
                self._reduce(states[2 + j : 2 + stop : every, 0, 0], hi[j:stop:every, 0, 0],
                             lo[j:stop:every, 0, 0], k0 + 1 + j)
            if j < stop or diverged[0] or last:
                for record in self._records.values():
                    record.store(states, k0, k0 + stop, diverged[0] or last)
        states[:2] = states[size : size + 2]
        if diverged.any():
            for c in np.flatnonzero(diverged):
                self.diverged_steps[self.columns[c]] = int(k0 + 1 + first[c])
            live = ~diverged
            self._set_columns(states[:2, live], self.columns[live], self._gain[live])

    def _past_level(self, values):
        return values >= self._level if self._rising else values <= self._level

    def _reduce(self, values, hi, lo, step):
        """Fold judged rows into the extremes and crossings: ``values``, whose
        row maxima and minima are ``hi`` and ``lo``, hold the judged steps
        from ``step`` on."""
        low, high = self._extremes
        self._extremes = lo.min(initial=low), hi.max(initial=high)
        if self._pending is None:
            return
        crossed = self._past_level(values)
        now = self._pending & crossed.any(axis=0)
        # the first crossing row of only the agents that cross in this block
        self._crossed[now] = step + self._record_every * crossed[:, now].argmax(axis=0)
        self._pending &= ~now
        if not self._pending.any():
            self._pending = None

    def _reserve(self, n_steps):
        """Drop the records whose horizon ``n_steps`` passes; the others move
        to fresh arrays up to ``n_steps``."""
        self._records = {
            m: record.reserve(self.step, n_steps) for m, record in self._records.items()
            if record.horizon is None or n_steps <= record.horizon
        }

    @property
    def stored(self) -> tuple[int, ...]:
        """The multiples whose records the run still keeps."""
        return tuple(self._records)

    def trajectory(self, every: int | None = None) -> Trajectory:
        """The record so far on multiples of ``every`` (``record_every`` by
        default) of a recorded run, a view of arrays the run never writes
        again, with the run's verdict and reductions."""
        record = self._records[every or self._record_every]
        last = self.diverged_steps[0]
        last = self.step if last is None else last
        values = record.values[: record.filled]
        steps = np.arange(len(values)) * record.every
        steps[-1] = last
        # the last step counts whether or not it lies on the stride
        row, (low, high) = values[-1], self._extremes
        extremes = None
        if self.diverged_steps[0] is None:
            extremes = float(row.min(initial=low)), float(row.max(initial=high))
        crossing_times = None
        if self._crossed is not None:
            crossed = self._crossed.copy()
            if self._pending is not None:
                crossed[self._pending & self._past_level(row)] = last
            crossing_times = crossed * self.step_seconds
        return Trajectory(
            steps * self.step_seconds, values, self._params, self._leader_ids,
            self.diverged_steps[0], self.settling_times()[0], crossing_times, extremes,
        )

    def settling_times(self) -> list[float | None]:
        """Per column, the time of the first judged step from which every value
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
    **record,
) -> BlockRun:
    """A DSR run from ``initial``, judged on its source's band (see BlockRun), with one
    column per entry of ``column_params``, DsrParams that may differ only in alignment strength.

    Each step's noise is drawn once and shared by every column, so each
    column is bitwise equal to the single run of its parameters. A
    ``graph`` hook (see BlockRun) moves the network with the run; the noise
    is added to the discrepancy on its graph, and the agents that graph
    isolates get no alignment term. ``record`` may give BlockRun's ``store``
    and ``crossings``.
    """
    params = column_params[0]
    for other in column_params:
        if replace(other, alignment_strength=params.alignment_strength) != params:
            raise ValueError("columns may differ only in alignment strength")
    beta = params.dsr_gain
    # x - gain * D + beta * (x - prev), without the last term at beta = 0
    step = ((1.0, "x"), ("-gain", "D"))
    chains = ((("M", ((1.0, "x"), (-1.0, "prev"))), ("x'", step + ((beta, "M"),)))
              if beta else (("x'", step),))
    return BlockRun(
        topology, params.source, initial, chains,
        [p.alignment_strength * p.update_interval for p in column_params],
        params=params, step_seconds=params.update_interval, record_every=record_every,
        graph=graph, noise=_step_noise(params, seed), **record,
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
