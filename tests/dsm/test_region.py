"""Unit tests for regions, page tables, and diff-run computation."""

import numpy as np
import pytest

from repro.dsm import PAGE_SIZE, HomePolicy, PageState, PageTable, SharedRegion
from repro.dsm.runtime import _diff_runs


def make_region(size=8 * PAGE_SIZE, nodes=4, policy="block"):
    n_pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
    home_of = (
        HomePolicy.block(n_pages, nodes)
        if policy == "block"
        else HomePolicy.round_robin(n_pages, nodes)
    )
    return SharedRegion(
        region_id=1,
        name="r",
        size=size,
        n_pages=n_pages,
        home_of=home_of,
        base=[0x1000_0000 * (i + 1) for i in range(nodes)],
    )


class TestHomePolicy:
    def test_block_contiguous(self):
        home = HomePolicy.block(8, 4)
        assert [home(p) for p in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_block_uneven(self):
        home = HomePolicy.block(10, 4)
        assert max(home(p) for p in range(10)) == 3

    def test_round_robin(self):
        home = HomePolicy.round_robin(6, 3)
        assert [home(p) for p in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_fixed(self):
        home = HomePolicy.fixed(2)
        assert all(home(p) == 2 for p in range(10))


class TestSharedRegion:
    def test_page_range_single(self):
        r = make_region()
        assert list(r.page_range(0, 1)) == [0]
        assert list(r.page_range(PAGE_SIZE - 1, 1)) == [0]

    def test_page_range_spanning(self):
        r = make_region()
        assert list(r.page_range(PAGE_SIZE - 1, 2)) == [0, 1]
        assert list(r.page_range(0, 3 * PAGE_SIZE)) == [0, 1, 2]

    def test_page_range_out_of_bounds(self):
        r = make_region()
        with pytest.raises(ValueError):
            r.page_range(0, r.size + 1)
        with pytest.raises(ValueError):
            r.page_range(-1, 10)
        with pytest.raises(ValueError):
            r.page_range(0, 0)

    def test_page_addr(self):
        r = make_region()
        assert r.page_addr(1, 3) == r.base[1] + 3 * PAGE_SIZE


class TestPageTable:
    def test_home_pages_start_valid(self):
        r = make_region(nodes=4)
        pt = PageTable(r, node_id=0)
        assert pt.state[0] == PageState.VALID  # home
        assert pt.state[7] == PageState.INVALID  # homed at node 3

    def test_invalidate_skips_home(self):
        r = make_region(nodes=4)
        pt = PageTable(r, node_id=0)
        pt.invalidate(0)
        assert pt.state[0] == PageState.VALID

    def test_invalidate_non_home(self):
        r = make_region(nodes=4)
        pt = PageTable(r, node_id=0)
        pt.state[7] = PageState.VALID
        pt.invalidate(7)
        assert pt.state[7] == PageState.INVALID

    def test_invalidate_skips_dirty(self):
        r = make_region(nodes=4)
        pt = PageTable(r, node_id=0)
        pt.state[7] = PageState.DIRTY
        pt.invalidate(7)
        assert pt.state[7] == PageState.DIRTY


class TestDiffRuns:
    def page(self):
        return np.zeros(PAGE_SIZE, dtype=np.uint8)

    def test_no_change(self):
        a = self.page()
        assert _diff_runs(a, a.copy()).tolist() == []

    def test_single_byte(self):
        twin, cur = self.page(), self.page()
        cur[100] = 1
        assert _diff_runs(twin, cur).tolist() == [[100, 1]]

    def test_contiguous_run(self):
        twin, cur = self.page(), self.page()
        cur[10:20] = 7
        assert _diff_runs(twin, cur).tolist() == [[10, 10]]

    def test_two_distant_runs(self):
        twin, cur = self.page(), self.page()
        cur[0:4] = 1
        cur[1000:1008] = 2
        assert _diff_runs(twin, cur).tolist() == [[0, 4], [1000, 8]]

    def test_nearby_runs_stay_exact(self):
        """Gap bytes must never be covered: writing them back would clobber
        a concurrent false-sharing writer's bytes at the home."""
        twin, cur = self.page(), self.page()
        cur[100] = 1
        cur[110] = 1
        assert _diff_runs(twin, cur).tolist() == [[100, 1], [110, 1]]

    def test_fully_changed_page_is_one_run(self):
        twin, cur = self.page(), self.page()
        cur[:] = 9
        assert _diff_runs(twin, cur).tolist() == [[0, PAGE_SIZE]]

    def test_runs_never_include_unchanged_bytes(self):
        rng = np.random.default_rng(3)
        twin = rng.integers(0, 255, PAGE_SIZE, dtype=np.uint8)
        cur = twin.copy()
        flips = rng.choice(PAGE_SIZE, 200, replace=False)
        cur[flips] = (cur[flips].astype(np.int64) + 1) % 256
        covered = np.zeros(PAGE_SIZE, dtype=bool)
        for start, length in _diff_runs(twin, cur):
            covered[start : start + length] = True
        assert np.array_equal(covered, twin != cur)

    def test_runs_cover_all_changes(self):
        rng = np.random.default_rng(0)
        twin = rng.integers(0, 255, PAGE_SIZE, dtype=np.uint8)
        cur = twin.copy()
        flips = rng.choice(PAGE_SIZE, 50, replace=False)
        cur[flips] = (cur[flips].astype(np.int64) + 1) % 256
        runs = _diff_runs(twin, cur)
        rebuilt = twin.copy()
        for start, length in runs:
            rebuilt[start : start + length] = cur[start : start + length]
        assert np.array_equal(rebuilt, cur)
