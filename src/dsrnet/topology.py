"""Agent placement and metric-radius neighborhoods.

Agents are points in the plane. Connectivity is metric: two distinct
agents are neighbors when their Euclidean separation is at most the
sensing radius (closed disc, self excluded), so agents at the same point
are neighbors too. Leaders are ordinary agents flagged as having direct
access to the external information source; the source itself is never a
node of the network.

Positions are stored as an ``(n, 2)`` float array whose rows are the
per-agent ``(x, y)`` coordinates in meters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def build_lattice(rows: int, cols: int, spacing: float) -> np.ndarray:
    """Regular ``rows x cols`` grid of agent positions.

    Indexing is row-major: agent ``r * cols + c`` sits at
    ``(c * spacing, r * spacing)``. Row-major order is part of the on-disk
    contract, so trajectory columns stay comparable across runs.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must both be at least 1")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    positions = np.empty((rows * cols, 2), dtype=float)
    positions[:, 0] = cc.ravel() * spacing
    positions[:, 1] = rr.ravel() * spacing
    return positions


def sample_disc(
    n: int,
    disc_radius: float,
    rng: np.random.Generator,
    mode: str = "area",
) -> np.ndarray:
    """Random agent positions inside a disc centred on the origin.

    ``mode="area"`` (default) draws radii as ``disc_radius * sqrt(U(0,1))``,
    which is uniform in area and therefore uniform in agent density.
    ``mode="literal"`` draws ``sqrt(U(0, disc_radius))`` instead; it packs
    every agent within ``sqrt(disc_radius)`` of the centre, densely enough
    that the ``fig2_disc_noise`` preset gives every agent the two starting
    neighbors a maneuver needs.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if disc_radius <= 0:
        raise ValueError("disc_radius must be positive")
    if mode not in ("area", "literal"):
        raise ValueError(f"unknown sampling mode: {mode!r}")
    u = rng.uniform(0.0, 1.0, size=n)
    if mode == "area":
        radii = disc_radius * np.sqrt(u)
    else:
        radii = np.sqrt(u * disc_radius)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    positions = np.empty((n, 2), dtype=float)
    positions[:, 0] = radii * np.cos(theta)
    positions[:, 1] = radii * np.sin(theta)
    return positions


# The cell side exceeds the radius by this margin and the grid is capped
# at this many cells per axis, so the rounding error of a cell coordinate
# stays below the margin (every pair within the radius lands in adjacent
# cells) and the int64 cell keys cannot overflow.
_CELL_MARGIN = 2.0**-20
_MAX_CELLS_PER_AXIS = 2**30


def pairs_within(pos: np.ndarray, rows, cols, radius: float) -> np.ndarray:
    """Mask of the pairs ``(rows[k], cols[k])`` of agents at ``pos`` that lie
    within ``radius``: the closed-disc test ``dx*dx + dy*dy <= radius*radius``
    of every sensing graph."""
    # one complex gather per end; each part of the difference rounds as a real one
    z = np.ascontiguousarray(pos).view(np.complex128)[:, 0]
    d = z[rows] - z[cols]
    dx, dy = d.real, d.imag
    with np.errstate(over="ignore"):  # an inf square compares as in the dense formula
        return dx * dx + dy * dy <= radius * radius


def _radius_csr(pos: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of the closed-disc graph, each row ascending.

    Agents are binned into square cells at least one radius wide, so an
    agent's neighbors lie in the 3 x 3 block of cells around its own. A
    candidate pair is kept when ``dx*dx + dy*dy <= radius*radius`` and
    ``i != j``. Memory is O(n + candidate pairs); no n x n array is formed.
    """
    n = len(pos)
    if n == 0:
        return np.zeros(1, dtype=np.intp), np.empty(0, dtype=np.intp)
    side = radius * (1.0 + _CELL_MARGIN)
    lo = pos.min(axis=0)
    if not (pos.max(axis=0) - lo < side * _MAX_CELLS_PER_AXIS).all():
        raise ValueError("sensing_radius is too small for the spread of positions")
    cells = ((pos - lo) / side).astype(np.int64)
    # A spare row per column keeps cy - 1 and cy + 1 inside the column, so
    # cells (cx + dx, cy - 1 .. cy + 1) have consecutive keys.
    height = int(cells[:, 1].max()) + 2
    keys = cells[:, 0] * height + cells[:, 1]
    order = np.argsort(keys)
    sorted_keys = keys[order]
    low = keys[:, None] + (np.arange(-1, 2) * height - 1)
    starts = np.searchsorted(sorted_keys, low).ravel()
    counts = np.searchsorted(sorted_keys, low + 2, side="right").ravel() - starts
    rows = np.repeat(np.arange(n), counts.reshape(n, 3).sum(axis=1))
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    cols = order[np.arange(len(rows)) + offsets]
    keep = pairs_within(pos, rows, cols, radius) & (rows != cols)
    rows = rows[keep]
    # Rows are grouped in order, so sorting row * n + col sorts each row.
    indices = np.sort(rows * n + cols[keep]) - rows * n
    return np.searchsorted(rows, np.arange(n + 1)), indices


@dataclass
class NetworkTopology:
    """Static snapshot of agent placements and their sensing graph.

    The graph is derived from the placements and stored once, in CSR form:
    the neighbors of agent ``i`` are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending (self excluded, symmetric). ``leader_ids`` marks the agents
    wired to the external source.
    """

    positions: np.ndarray
    sensing_radius: float
    leader_ids: frozenset[int] = frozenset()
    indptr: np.ndarray = field(init=False)
    indices: np.ndarray = field(init=False)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array")
        if not np.isfinite(self.positions).all():
            raise ValueError("positions must be finite")
        self.sensing_radius = float(self.sensing_radius)
        if not 0.0 < self.sensing_radius < np.inf:
            raise ValueError("sensing_radius must be positive and finite")
        self.leader_ids = frozenset(int(i) for i in self.leader_ids)
        if any(i < 0 or i >= self.n_agents for i in self.leader_ids):
            raise ValueError("leader_ids must index existing agents")
        self.indptr, self.indices = _radius_csr(self.positions, self.sensing_radius)
        self.indices.flags.writeable = False

    @property
    def n_agents(self) -> int:
        return self.positions.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def neighbors(self) -> list[np.ndarray]:
        """Per-agent neighbor indices: read-only views into ``indices``."""
        return np.split(self.indices, self.indptr[1:-1])

    @classmethod
    def build(
        cls,
        positions: np.ndarray,
        sensing_radius: float,
        leader_ids=(),
    ) -> "NetworkTopology":
        """Construct the sensing graph for the given placements."""
        return cls(positions, sensing_radius, frozenset(leader_ids))


def min_neighbor_count(topology: NetworkTopology) -> int:
    """Smallest neighborhood size over all agents (0 for an empty network).

    Flocking runs require this to be at least 2 at the start.
    """
    if topology.n_agents == 0:
        return 0
    return int(topology.degrees.min())
