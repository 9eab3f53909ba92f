"""Keys-first graphs: the rows are built from the edge keys on first read.

A graph from :meth:`Graph.from_edge_arrays` holds its sorted edge keys
and builds its adjacency rows only when a query needs them.  These
tests pin that a deferred graph answers every public query exactly as
one built edge by edge (through mutations made after deferral and a
pickle round trip), and that the key-only operations, the Table 1 paths
that need no rows and the large-n keys path (partition plus key
referee) never build them.  Builds are counted at ``graph.py``'s
:func:`~repro.graphs.graph.or_edges_into_rows`, the one function a
deferred row build goes through.
"""

from __future__ import annotations

import pickle
import sys

import numpy as np
import pytest

from repro.analysis.table1 import _MuSampleBuilder, far_disjoint_instance
from repro.core.referee import key_union_triangle_referee
from repro.core.simultaneous_low import SimLowParams, find_triangle_sim_low
from repro.graphs import Graph, mask_of
from repro.graphs import graph as graph_module
from repro.graphs.generators import far_instance
from repro.graphs.partition import partition_disjoint
from repro.runtime.cache import InstanceCache

N = 70  # > 64: exchange masks straddle a 64-bit word boundary
VERTICES = (0, 1, 13, 63, 64, 65, N - 1)
MASKS = (0, mask_of(range(0, N, 3)), mask_of((1, 2, 63, 64, 65)),
         (1 << N) - 1)


@pytest.fixture
def builds(monkeypatch):
    """One entry per call of ``or_edges_into_rows`` inside ``Graph``.

    Each deferred row build is one call.  ``add_edge_arrays`` on a
    built graph calls it too, but only after a build was counted, so an
    empty list still means no graph built rows.
    """
    calls: list[str] = []
    build = graph_module.or_edges_into_rows

    def counted(rows, us, vs):
        calls.append("bigint")
        return build(rows, us, vs)

    monkeypatch.setattr(graph_module, "or_edges_into_rows", counted)
    return calls


def random_edges(seed: int, m: int = 150) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    us = rng.integers(0, N, m)
    vs = rng.integers(0, N, m)
    return [(int(u), int(v)) for u, v in zip(us, vs) if u != v]


def deferred_and_eager(edges) -> tuple[Graph, Graph]:
    us = np.array([u for u, _ in edges], dtype=np.int64)
    vs = np.array([v for _, v in edges], dtype=np.int64)
    return Graph.from_edge_arrays(N, us, vs), Graph(N, edges)


def answers(graph: Graph) -> dict:
    """Every public query of ``graph`` on a fixed probe set."""
    return {
        "n": graph.n,
        "num_edges": graph.num_edges,
        "average_degree": graph.average_degree(),
        "edge_keys": graph.edge_keys().tolist(),
        "edges": list(graph.edges()),
        "edge_set": graph.edge_set(),
        "degrees": graph.degrees(),
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
        "hash": hash(graph),
        "repr": repr(graph),
    }


@pytest.mark.parametrize("seed", range(4))
class TestDeferredEqualsEager:
    def test_every_query_agrees(self, seed):
        deferred, eager = deferred_and_eager(random_edges(seed))
        assert deferred == eager and eager == deferred
        assert answers(deferred) == answers(eager)
        assert deferred.adjacency_rows() == eager.adjacency_rows()

    def test_mutations_after_deferral(self, seed, builds):
        deferred, eager = deferred_and_eager(random_edges(seed))
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
        assert builds == ["bigint"]
        assert deferred.remove_edge(1, 2) == eager.remove_edge(1, 2)
        mask = mask_of((3, 40, 64, 65))
        assert deferred.add_neighbors(5, mask) == eager.add_neighbors(5, mask)
        assert builds == ["bigint"]
        assert answers(deferred) == answers(eager)
        # A built graph still merges arrays into its rows.
        more = random_edges(seed + 200, 40)
        assert deferred.add_edge_arrays(
            np.array([v for _, v in more]), np.array([u for u, _ in more])
        ) == eager.add_edges(more)
        assert answers(deferred) == answers(eager)

    def test_key_only_operations_never_build(self, seed, builds):
        deferred, eager = deferred_and_eager(random_edges(seed))
        builds.clear()
        clone = deferred.copy()
        assert clone.edge_keys() is deferred.edge_keys()
        assert clone == deferred and deferred == eager
        thawed = pickle.loads(pickle.dumps(deferred))
        assert thawed == deferred
        assert deferred.nbytes == deferred.edge_keys().nbytes
        assert (deferred.n, deferred.num_edges, deferred.average_degree()) \
            == (eager.n, eager.num_edges, eager.average_degree())
        assert builds == []
        # Copies and thawed pickles build on their own first read.
        assert answers(clone) == answers(thawed) == answers(eager)
        assert builds == ["bigint", "bigint"]

    def test_built_graph_pickles_without_its_kernel(self, seed, builds):
        deferred, eager = deferred_and_eager(random_edges(seed))
        assert deferred.degrees() == eager.degrees()
        # Built, the graph holds its rows and still its edge keys.
        row_bytes = sum(map(sys.getsizeof, deferred.adjacency_rows()))
        assert deferred.nbytes == row_bytes + deferred.edge_keys().nbytes
        assert len(pickle.dumps(deferred)) == len(pickle.dumps(
            Graph.from_edge_arrays(N, *divmod(deferred.edge_keys(), N))
        ))
        builds.clear()
        thawed = pickle.loads(pickle.dumps(deferred))
        assert builds == []
        assert answers(thawed) == answers(eager)
        assert builds == ["bigint"]


def test_pickled_cache_round_trip(builds):
    """Spawn pools pickle a task together with its cache: a cached
    deferred graph comes back unbuilt and answers like an eager one."""
    edges = random_edges(7)
    writer = InstanceCache()
    built = writer.get_or_build(
        ("g",), lambda: deferred_and_eager(edges)[0]
    )
    builds.clear()
    reader = pickle.loads(pickle.dumps(writer))
    loaded = reader.get_or_build(("g",), pytest.fail)
    assert reader.stats()["hits"] == 1
    assert loaded == built
    assert builds == []
    eager = Graph(N, edges)
    assert answers(loaded) == answers(eager)
    assert loaded.add_edge(0, 2) == eager.add_edge(0, 2)
    assert answers(loaded) == answers(eager)


def test_cache_stats_leave_instances_unbuilt(builds):
    cache = InstanceCache()
    graph = cache.get_or_build(
        ("g",), lambda: deferred_and_eager(random_edges(3))[0]
    )
    stats = cache.stats()
    assert builds == []
    assert stats["instance_bytes"] == graph.edge_keys().nbytes


def test_mu_sample_builds_no_kernel(builds):
    sample = _MuSampleBuilder(part_size=24)(72, 0.0, seed=5)
    assert sample.keys.size and sample.triangles.size
    assert builds == []


def _sim_low_trial() -> None:
    partition = far_disjoint_instance(epsilon=0.2, k=3)(600, 6.0, 1)
    params = SimLowParams(epsilon=0.2, delta=0.2)
    find_triangle_sim_low(partition, params, seed=2)


def _key_referee_at_large_n() -> None:
    """The large-n path: built rows here would hold n²/8 bytes
    (about 1.2 GB); partition and key referee need none."""
    graph = far_instance(100_000, 6.0, 0.2, seed=3).graph
    partition = partition_disjoint(graph, k=3, seed=4)
    assert key_union_triangle_referee(partition.view_keys, graph.n) \
        is not None


@pytest.mark.parametrize("trial", [_sim_low_trial, _key_referee_at_large_n],
                         ids=["sim_low", "key_referee_n1e5"])
def test_far_instance_trial_builds_no_kernel(trial, builds):
    trial()
    assert builds == []
