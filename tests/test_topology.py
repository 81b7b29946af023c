"""Tests for the space-time process grid (paper Fig. 2) at ``p_nodes = 1``."""

import pytest

from repro.parallel import SpaceTimeGrid


class TestGrid:
    def test_world_size(self):
        assert SpaceTimeGrid(4, 8).world_size == 32

    def test_coords_roundtrip(self):
        grid = SpaceTimeGrid(3, 5)
        for r in range(grid.world_size):
            t, s, n = grid.coords(r)
            assert n == 0
            assert grid.world_rank(t, s) == r

    def test_time_major_layout(self):
        grid = SpaceTimeGrid(2, 4)
        assert grid.coords(0) == (0, 0, 0)
        assert grid.coords(3) == (0, 3, 0)
        assert grid.coords(4) == (1, 0, 0)

    def test_space_comm_is_one_pepc_instance(self):
        grid = SpaceTimeGrid(2, 4)
        assert grid.space_comm(5) == [4, 5, 6, 7]

    def test_time_comm_connects_ith_members(self):
        """Paper Fig. 2: PFASST connects the i-th node of each box."""
        grid = SpaceTimeGrid(3, 4)
        assert grid.time_comm(1) == [1, 5, 9]

    def test_every_rank_in_exactly_two_comms(self):
        grid = SpaceTimeGrid(3, 4)
        for r in range(grid.world_size):
            assert r in grid.space_comm(r)
            assert r in grid.time_comm(r)
            # intersection of the two comms is exactly this rank
            both = set(grid.space_comm(r)) & set(grid.time_comm(r))
            assert both == {r}

    def test_comm_partition_property(self):
        """Space comms partition the world; so do time comms."""
        grid = SpaceTimeGrid(4, 3)
        space_union = set()
        for t in range(4):
            space_union |= set(grid.space_comm(grid.world_rank(t, 0)))
        assert space_union == set(range(grid.world_size))

    def test_out_of_range(self):
        grid = SpaceTimeGrid(2, 2)
        with pytest.raises(ValueError, match="out of range"):
            grid.coords(4)
        with pytest.raises(ValueError):
            grid.world_rank(2, 0)
        with pytest.raises(ValueError):
            grid.world_rank(0, 2)

    def test_invalid_extents(self):
        with pytest.raises(ValueError, match=">= 1"):
            SpaceTimeGrid(0, 4)

    @pytest.mark.parametrize("p_time,p_space", [(1, 6), (6, 1), (2, 7), (7, 2), (3, 4)])
    def test_non_square_roundtrips(self, p_time, p_space):
        """coords/world_rank are inverse bijections on non-square grids."""
        grid = SpaceTimeGrid(p_time, p_space)
        seen = set()
        for t in range(p_time):
            for s in range(p_space):
                r = grid.world_rank(t, s)
                assert grid.coords(r) == (t, s, 0)
                seen.add(r)
        assert seen == set(range(grid.world_size))

    @pytest.mark.parametrize("p_time,p_space", [(1, 5), (5, 1), (2, 3)])
    def test_non_square_comm_membership(self, p_time, p_space):
        grid = SpaceTimeGrid(p_time, p_space)
        for r in range(grid.world_size):
            t, s, _ = grid.coords(r)
            space = grid.space_comm(r)
            tcomm = grid.time_comm(r)
            assert len(space) == p_space and len(tcomm) == p_time
            assert space.index(r) == s  # position == space coordinate
            assert tcomm.index(r) == t  # position == time coordinate
