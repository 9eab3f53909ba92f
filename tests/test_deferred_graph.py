"""Keys-first graphs: the kernel is built from the edge keys on first read.

A graph from :meth:`Graph.from_edge_arrays` holds its sorted edge keys
and the kernel class the policy picked, and builds the kernel only when
a query needs it.  These tests pin that a deferred graph answers every
public query exactly as one built edge by edge (on bigint and on csr,
through mutations made after deferral and a disk-tier round trip), and
that the key-only operations and the Table 1 paths that need no kernel
never build one.  Builds are counted at the kernels' ``from_edge_array``,
the one entry point a deferred build goes through.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis.table1 import _MuSampleBuilder, far_disjoint_instance
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.graphs import Graph, mask_of
from repro.graphs.kernels import BigintKernel, CsrKernel
from repro.runtime.cache import InstanceCache

N = 70  # > 64: exchange masks straddle a 64-bit word boundary
BACKENDS = ("bigint", "csr")
VERTICES = (0, 1, 13, 63, 64, 65, N - 1)
MASKS = (0, mask_of(range(0, N, 3)), mask_of((1, 2, 63, 64, 65)),
         (1 << N) - 1)


@pytest.fixture
def builds(monkeypatch):
    """Names of the kernels built by ``from_edge_array``, in call order."""
    calls: list[str] = []
    for cls in (BigintKernel, CsrKernel):
        def counted(n, us, vs, _build=cls.from_edge_array, _name=cls.name):
            calls.append(_name)
            return _build(n, us, vs)

        monkeypatch.setattr(cls, "from_edge_array", staticmethod(counted))
    return calls


def random_edges(seed: int, m: int = 150) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    us = rng.integers(0, N, m)
    vs = rng.integers(0, N, m)
    return [(int(u), int(v)) for u, v in zip(us, vs) if u != v]


def deferred_and_eager(edges, backend: str) -> tuple[Graph, Graph]:
    us = np.array([u for u, _ in edges], dtype=np.int64)
    vs = np.array([v for _, v in edges], dtype=np.int64)
    deferred = Graph.from_edge_arrays(N, us, vs, backend=backend)
    return deferred, Graph(N, edges, backend=backend)


def answers(graph: Graph) -> dict:
    """Every public query of ``graph`` on a fixed probe set."""
    other = Graph(N, [(0, 1), (5, 6), (63, 64)])
    return {
        "n": graph.n,
        "num_edges": graph.num_edges,
        "backend": graph.backend,
        "average_degree": graph.average_degree(),
        "edge_keys": graph.edge_keys().tolist(),
        "edges": list(graph.edges()),
        "edge_set": graph.edge_set(),
        "degrees": graph.degrees(),
        "isolated": graph.isolated_vertices(),
        "rows": list(graph.adjacency_rows()),
        "has_edge": [graph.has_edge(u, v) for u in VERTICES for v in VERTICES],
        "contains": [(u, v) in graph for u in VERTICES for v in VERTICES
                     if u != v],
        "degree": [graph.degree(v) for v in VERTICES],
        "neighbors": [graph.neighbors(v) for v in VERTICES],
        "neighbor_mask": [graph.neighbor_mask(v) for v in VERTICES],
        "common": [graph.common_neighbors(u, v)
                   for u in VERTICES for v in VERTICES],
        "induced_rows": [graph.induced_subgraph_mask_rows(m) for m in MASKS],
        "touching_rows": [graph.edges_touching_mask(m) for m in MASKS],
        "induced_edges": graph.induced_subgraph_edges(VERTICES),
        "touching": graph.edges_touching(VERTICES),
        "subgraph": graph.subgraph(VERTICES).edge_keys().tolist(),
        "union": graph.union(other).edge_keys().tolist(),
        "hash": hash(graph),
        "repr": repr(graph),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(4))
class TestDeferredEqualsEager:
    def test_every_query_agrees(self, backend, seed):
        deferred, eager = deferred_and_eager(random_edges(seed), backend)
        assert deferred == eager and eager == deferred
        assert answers(deferred) == answers(eager)
        assert deferred.kernel.rows_equal(eager.kernel)

    def test_mutations_after_deferral(self, backend, seed, builds):
        deferred, eager = deferred_and_eager(random_edges(seed), backend)
        extra = random_edges(seed + 100, 40)
        us = np.array([u for u, _ in extra], dtype=np.int64)
        vs = np.array([v for _, v in extra], dtype=np.int64)
        builds.clear()
        # Key-only: the deferred graph merges keys and stays unbuilt.
        assert deferred.add_edge_arrays(us, vs) == eager.add_edges(extra)
        assert deferred.add_edge_arrays(us, vs) == 0
        assert builds == []
        assert deferred == eager
        # Scalar mutators build first, then mutate as on any graph.
        assert deferred.add_edge(0, N - 1) == eager.add_edge(0, N - 1)
        assert builds == [backend]
        assert deferred.remove_edge(1, 2) == eager.remove_edge(1, 2)
        mask = mask_of((3, 40, 64, 65))
        assert deferred.add_neighbors(5, mask) == eager.add_neighbors(5, mask)
        assert builds == [backend]
        assert answers(deferred) == answers(eager)
        # A built graph still merges arrays into its kernel.
        more = random_edges(seed + 200, 40)
        assert deferred.add_edge_arrays(
            np.array([v for _, v in more]), np.array([u for u, _ in more])
        ) == eager.add_edges(more)
        assert answers(deferred) == answers(eager)

    def test_key_only_operations_never_build(self, backend, seed, builds):
        deferred, eager = deferred_and_eager(random_edges(seed), backend)
        builds.clear()
        clone = deferred.copy()
        assert clone.edge_keys() is deferred.edge_keys()
        assert clone == deferred and deferred == eager
        thawed = pickle.loads(pickle.dumps(deferred))
        assert thawed == deferred and thawed.backend == backend
        other = deferred.to_backend("csr" if backend == "bigint" else "bigint")
        assert other == deferred
        assert deferred.nbytes == deferred.edge_keys().nbytes
        assert (deferred.n, deferred.num_edges, deferred.average_degree()) \
            == (eager.n, eager.num_edges, eager.average_degree())
        assert builds == []
        # Copies and thawed pickles build on their own first read.
        assert answers(clone) == answers(thawed) == answers(eager)
        assert builds == [backend, backend]

    def test_built_graph_pickles_without_its_kernel(self, backend, seed,
                                                    builds):
        deferred, eager = deferred_and_eager(random_edges(seed), backend)
        assert deferred.degrees() == eager.degrees()
        # Built, the graph holds its kernel and still its edge keys.
        assert deferred.nbytes == (deferred.kernel.memory_bytes()
                                   + deferred.edge_keys().nbytes)
        assert len(pickle.dumps(deferred)) == len(pickle.dumps(
            Graph.from_edge_arrays(N, *divmod(deferred.edge_keys(), N),
                                   backend=backend)
        ))
        builds.clear()
        thawed = pickle.loads(pickle.dumps(deferred))
        assert builds == []
        assert answers(thawed) == answers(eager)
        assert builds == [backend]


@pytest.mark.parametrize("backend", BACKENDS)
def test_disk_tier_round_trip(tmp_path, backend, builds):
    edges = random_edges(7)
    writer = InstanceCache(disk_dir=tmp_path)
    built = writer.get_or_build(
        ("g", backend), lambda: deferred_and_eager(edges, backend)[0]
    )
    reader = InstanceCache(disk_dir=tmp_path)
    builds.clear()
    loaded = reader.get_or_build(("g", backend), pytest.fail)
    assert reader.stats()["hits"] == 1
    assert loaded == built and loaded.backend == backend
    assert builds == []
    eager = Graph(N, edges, backend=backend)
    assert answers(loaded) == answers(eager)
    assert loaded.add_edge(0, 2) == eager.add_edge(0, 2)
    assert answers(loaded) == answers(eager)


def test_cache_stats_leave_instances_unbuilt(builds):
    cache = InstanceCache()
    graph = cache.get_or_build(
        ("g",), lambda: deferred_and_eager(random_edges(3), "bigint")[0]
    )
    stats = cache.stats()
    assert builds == []
    assert stats["instance_bytes"] == graph.edge_keys().nbytes


def test_mu_sample_builds_no_kernel(builds):
    sample = _MuSampleBuilder(part_size=24)(72, 0.0, seed=5)
    assert sample.keys.size and sample.triangles.size
    assert builds == []


def test_far_instance_sim_low_trial_builds_no_kernel(builds):
    partition = far_disjoint_instance(epsilon=0.2, k=3)(600, 6.0, 1)
    params = SimLowParams(epsilon=0.2, delta=0.2)
    find_triangle_sim_low(partition, params, seed=2)
    assert builds == []
