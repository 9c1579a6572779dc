from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from dsrnet.dsr_core import _weights
from dsrnet.topology import (
    NetworkTopology,
    build_lattice,
    min_neighbor_count,
    sample_disc,
)


def brute_force_neighbors(positions, radius):
    """Independent O(n^2) oracle: closed disc, self excluded."""
    n = len(positions)
    sets = []
    for i in range(n):
        ids = []
        for j in range(n):
            if i == j:
                continue
            d = np.hypot(
                positions[i][0] - positions[j][0],
                positions[i][1] - positions[j][1],
            )
            if d <= radius:
                ids.append(j)
        sets.append(ids)
    return sets


def dense_adjacency(positions, radius):
    """Dense O(n^2) squared-distance oracle the CSR builder must reproduce."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 2)
    deltas = pos[:, None, :] - pos[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", deltas, deltas)
    adjacency = dist2 <= radius * radius
    np.fill_diagonal(adjacency, False)
    return adjacency


def dense_csr(positions, radius):
    rows, cols = np.nonzero(dense_adjacency(positions, radius))
    return np.searchsorted(rows, np.arange(len(positions) + 1)), cols


coordinates = st.floats(-5, 5, allow_nan=False)
radii = st.floats(0.05, 6.0)

random_graphs = st.tuples(
    arrays(float, st.tuples(st.integers(0, 40), st.just(2)), elements=coordinates),
    radii,
)


@st.composite
def lattice_ties(draw):
    """Lattices whose spacing, or diagonal spacing, equals the radius."""
    spacing = draw(st.floats(0.01, 100.0))
    radius = spacing * np.sqrt(2.0) if draw(st.booleans()) else spacing
    positions = build_lattice(draw(st.integers(1, 8)), draw(st.integers(1, 8)), spacing)
    return positions, radius


@st.composite
def coincident_agents(draw):
    pool = draw(arrays(float, st.tuples(st.integers(1, 4), st.just(2)), elements=coordinates))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=20))
    return pool[picks], draw(radii)


graph_cases = st.one_of(random_graphs, lattice_ties(), coincident_agents())


class TestBuildLattice:
    def test_grid_size_and_span(self):
        pos = build_lattice(25, 25, 1.0)
        assert pos.shape == (625, 2)
        assert pos.min() == 0.0
        assert pos[:, 0].max() == 24.0 and pos[:, 1].max() == 24.0

    def test_preset_geometry_has_225_agents(self):
        pos = build_lattice(15, 15, 1.0)
        assert pos.shape == (225, 2)
        assert pos[:, 0].max() == 14.0 and pos[:, 1].max() == 14.0

    def test_single_point(self):
        pos = build_lattice(1, 1, 5.0)
        assert pos.shape == (1, 2)
        assert np.array_equal(pos, [[0.0, 0.0]])

    def test_2x3_min_pairwise_distance(self):
        pos = build_lattice(2, 3, 2.0)
        assert pos.shape == (6, 2)
        deltas = pos[:, None, :] - pos[None, :, :]
        dist = np.hypot(deltas[..., 0], deltas[..., 1])
        dist[np.diag_indices(6)] = np.inf
        assert dist.min() == pytest.approx(2.0)

    def test_row_major_indexing(self):
        pos = build_lattice(3, 4, 0.5)
        # agent r*cols + c sits at (c*spacing, r*spacing)
        assert np.array_equal(pos[0], [0.0, 0.0])
        assert np.array_equal(pos[1], [0.5, 0.0])
        assert np.array_equal(pos[4], [0.0, 0.5])
        assert np.array_equal(pos[2 * 4 + 3], [1.5, 1.0])

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (-1, 2)])
    def test_rejects_empty_grid(self, rows, cols):
        with pytest.raises(ValueError):
            build_lattice(rows, cols, 1.0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            build_lattice(2, 2, 0.0)


class TestSampleDisc:
    def test_empty(self):
        pos = sample_disc(0, 1.0, np.random.default_rng(0))
        assert pos.shape == (0, 2)

    def test_radii_bounded(self):
        pos = sample_disc(225, 25.0 / 3.0, np.random.default_rng(1))
        assert np.hypot(pos[:, 0], pos[:, 1]).max() <= 25.0 / 3.0

    def test_mean_radius_matches_quadrature_oracle(self):
        # E[r] for uniform-area sampling: integral of r_d*sqrt(u) du over
        # [0, 1] evaluates to 2*r_d/3.
        from scipy.integrate import quad

        oracle, _ = quad(np.sqrt, 0.0, 1.0)
        assert oracle == pytest.approx(2.0 / 3.0, abs=1e-9)
        pos = sample_disc(10_000, 1.0, np.random.default_rng(7))
        mean_radius = np.hypot(pos[:, 0], pos[:, 1]).mean()
        assert abs(mean_radius - oracle) <= 0.01

    def test_uniform_area_half_mass_inside_rd_over_sqrt2(self):
        r_d = 2.0
        pos = sample_disc(100_000, r_d, np.random.default_rng(3))
        fraction = np.mean(np.hypot(pos[:, 0], pos[:, 1]) <= r_d / np.sqrt(2.0))
        assert abs(fraction - 0.5) <= 0.01

    def test_literal_mode_confines_radii(self):
        r_d = 25.0 / 3.0
        pos = sample_disc(500, r_d, np.random.default_rng(5), mode="literal")
        assert np.hypot(pos[:, 0], pos[:, 1]).max() <= np.sqrt(r_d) + 1e-12

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_disc(-1, 1.0, rng)
        with pytest.raises(ValueError):
            sample_disc(5, 0.0, rng)
        with pytest.raises(ValueError):
            sample_disc(5, 1.0, rng, mode="bogus")


class TestComputeNeighbors:
    def test_matches_brute_force_on_3x3(self):
        pos = build_lattice(3, 3, 1.0)
        got = NetworkTopology.build(pos, 1.2).neighbors
        want = brute_force_neighbors(pos.tolist(), 1.2)
        for g, w in zip(got, want):
            assert g.tolist() == w
        assert len(got[4]) == 4  # interior
        assert len(got[0]) == 2  # corner

    def test_lattice_census_and_edge_total(self):
        for rows, cols in [(15, 15), (3, 7), (25, 25), (200, 200)]:
            degrees = NetworkTopology.build(build_lattice(rows, cols, 1.0), 1.2).degrees
            counts = dict(zip(*np.unique(degrees, return_counts=True)))
            assert counts[2] == 4
            assert counts[3] == 2 * (rows - 2) + 2 * (cols - 2)
            assert counts[4] == (rows - 2) * (cols - 2)
            assert degrees.sum() == 2 * (2 * rows * cols - rows - cols)

    def test_distance_equal_to_radius_is_included(self):
        topo = NetworkTopology.build(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0)
        assert topo.neighbors[0].tolist() == [1]
        assert topo.neighbors[1].tolist() == [0]

    def test_cells_a_little_wider_than_the_radius_keep_a_pair_at_it(self):
        # agents 2 and 3, exactly one radius apart, sit at cell coordinates
        # 1.9999999999999998 and 3.0 in cells one radius wide: two cells
        # apart, so such cells would drop the pair
        positions = build_lattice(1, 4, 0.5) + [0.001, 0.0]
        assert dense_adjacency(positions, 0.5)[2, 3]
        topo = NetworkTopology.build(positions, 0.5)
        assert [ids.tolist() for ids in topo.neighbors] == [[1], [0, 2], [1, 3], [2]]

    def test_coincident_agents_are_neighbors(self):
        pos = np.array([[1.0, 1.0], [5.0, 5.0], [1.0, 1.0]])
        want = brute_force_neighbors(pos.tolist(), 0.5)
        assert want == [[2], [], [0]]
        got = NetworkTopology.build(pos, 0.5).neighbors
        assert [ids.tolist() for ids in got] == want

    def test_radius_below_min_distance_gives_empty_sets(self):
        topo = NetworkTopology.build(build_lattice(4, 4, 1.0), 0.9)
        assert not topo.degrees.any()

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            NetworkTopology.build(np.zeros((3, 2)), 0.0)

    @pytest.mark.parametrize("radius", [-1.0, np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_or_negative_radius(self, radius):
        with pytest.raises(ValueError, match="sensing_radius"):
            NetworkTopology.build(build_lattice(3, 3, 1.0), radius)

    def test_radius_too_fine_for_the_cell_grid_is_rejected(self):
        with pytest.raises(ValueError, match="sensing_radius"):
            NetworkTopology.build(build_lattice(3, 3, 1.0), 1e-300)

    def test_tiny_radius_on_coincident_agents_still_builds(self):
        topo = NetworkTopology.build(np.ones((3, 2)), 1e-300)
        assert [ids.tolist() for ids in topo.neighbors] == [[1, 2], [0, 2], [0, 1]]

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            float,
            st.tuples(st.integers(2, 12), st.just(2)),
            elements=st.floats(-5, 5, allow_nan=False),
        ),
        st.floats(0.1, 5.0),
    )
    def test_symmetry(self, positions, radius):
        neighbors = NetworkTopology.build(positions, radius).neighbors
        for i, ids in enumerate(neighbors):
            for j in ids:
                assert i in neighbors[j]


class TestCsrMatchesDenseOracle:
    @settings(max_examples=150, deadline=None)
    @given(graph_cases)
    def test_csr_arrays_equal_dense_build(self, case):
        positions, radius = case
        topo = NetworkTopology.build(positions, radius)
        indptr, indices = dense_csr(positions, radius)
        np.testing.assert_array_equal(topo.indptr, indptr)
        np.testing.assert_array_equal(topo.indices, indices)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_agent(self, n):
        topo = NetworkTopology.build(np.zeros((n, 2)), 1.0)
        assert topo.indptr.tolist() == [0] * (n + 1)
        assert topo.indices.size == 0

    @settings(max_examples=60, deadline=None)
    @given(graph_cases)
    def test_operator_equals_coo_build_from_dense_oracle(self, case):
        positions, radius = case
        n = len(positions)
        leader = np.zeros(n)
        leader[:1] = 1.0
        topo = NetworkTopology.build(positions, radius, set(range(min(n, 1))))
        adjacency = dense_adjacency(positions, radius)
        rows, cols = np.nonzero(adjacency)
        counts = adjacency.sum(axis=1) + leader
        safe_counts = np.where(counts == 0.0, 1.0, counts)
        want = sparse.csr_matrix((1.0 / safe_counts[rows], (rows, cols)), shape=(n, n))
        got = sparse.csr_array(
            (_weights(topo.indptr, topo.leader_ids)[0], topo.indices, topo.indptr), shape=(n, n)
        )
        np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.indptr, want.indptr)


class TestNetworkTopology:
    def test_min_neighbor_count_on_lattice(self):
        topo = NetworkTopology.build(build_lattice(25, 25, 1.0), 1.2)
        assert min_neighbor_count(topo) == 2

    @pytest.mark.parametrize("n", [0, 1], ids=["no-agents", "single-agent"])
    def test_min_neighbor_count_without_neighbors(self, n):
        assert min_neighbor_count(NetworkTopology.build(np.zeros((n, 2)), 1.2)) == 0

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 2, 2)])
    def test_rejects_positions_that_are_not_n_by_2(self, shape):
        with pytest.raises(ValueError, match=r"positions must be an \(n, 2\) array"):
            NetworkTopology.build(np.zeros(shape), 1.0)

    def test_min_neighbor_count_triangle(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
        topo = NetworkTopology.build(pos, 100.0)
        assert min_neighbor_count(topo) == 2

    def test_rejects_leader_out_of_range(self):
        with pytest.raises(ValueError):
            NetworkTopology.build(np.zeros((3, 2)), 1.0, {3})

    def test_neighbors_are_read_only_views_of_the_csr(self):
        topo = NetworkTopology.build(build_lattice(3, 3, 1.0), 1.2)
        assert np.array_equal(topo.degrees, np.diff(topo.indptr))
        assert np.array_equal(np.concatenate(topo.neighbors), topo.indices)
        with pytest.raises(ValueError):
            topo.neighbors[4][0] = 0

    def test_rejects_nonfinite_positions(self):
        pos = np.array([[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError):
            NetworkTopology.build(pos, 1.0)
