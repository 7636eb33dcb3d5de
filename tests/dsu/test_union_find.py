"""Union-Find tests with a networkx connectivity oracle."""

import random

import pytest

from repro.dsu.union_find import UnionFind


class TestBasics:
    def test_fresh_elements_are_singletons(self):
        uf = UnionFind(["a", "b", "c"])
        assert uf.n_components == 3
        assert not uf.connected("a", "b")
        assert uf.component_size("a") == 1

    def test_add_idempotent(self):
        uf = UnionFind()
        uf.add(1)
        uf.add(1)
        assert len(uf) == 1
        assert uf.n_components == 1

    def test_union_merges(self):
        uf = UnionFind()
        uf.union(1, 2)
        assert uf.connected(1, 2)
        assert uf.n_components == 1
        assert uf.component_size(1) == 2

    def test_union_transitive(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        uf.union(4, 5)
        assert uf.connected(1, 3)
        assert not uf.connected(1, 4)
        assert uf.n_components == 2

    def test_union_same_set_noop(self):
        uf = UnionFind()
        uf.union(1, 2)
        root = uf.find(1)
        assert uf.union(1, 2) == root
        assert uf.n_components == 1

    def test_union_adds_unknown_elements(self):
        uf = UnionFind()
        uf.union("x", "y")
        assert "x" in uf and "y" in uf

    def test_connected_unknown_elements(self):
        uf = UnionFind()
        uf.add(1)
        assert not uf.connected(1, 99)
        assert not uf.connected(98, 99)

    def test_groups_materialization(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(3, 4)
        uf.add(5)
        groups = {frozenset(v) for v in uf.groups().values()}
        assert groups == {frozenset({1, 2}), frozenset({3, 4}),
                          frozenset({5})}

    def test_labels_numbered_by_first_appearance(self):
        uf = UnionFind(range(6))
        uf.union(5, 1)
        uf.union(4, 2)
        assert uf.labels(range(6)) == [0, 1, 2, 3, 2, 1]

    def test_find_path_compression_stability(self):
        uf = UnionFind()
        for i in range(100):
            uf.union(i, i + 1)
        root = uf.find(0)
        assert all(uf.find(i) == root for i in range(101))
        assert uf.component_size(50) == 101


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_unions_match_components(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        n = 120
        uf = UnionFind(range(n))
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for _ in range(150):
            a, b = rng.randrange(n), rng.randrange(n)
            uf.union(a, b)
            g.add_edge(a, b)
        ours = {frozenset(v) for v in uf.groups().values()}
        theirs = {frozenset(c) for c in nx.connected_components(g)}
        assert ours == theirs
        assert uf.n_components == nx.number_connected_components(g)
