"""Reference per-edge streaming chain, kept for differential testing.

The pre-mask streaming → one-way pipeline, preserved as an executable
specification in the same pattern as :class:`oracles.comm.SetPlayer`:

* :class:`CountingExactFinderReference` — the original exact finder with
  a ``set[Edge]`` edge store and a per-edge ``{"edges": [...]}``
  serialized state;
* :func:`streaming_to_oneway_reference` — the original chain reduction,
  feeding each player's segment through per-edge ``process`` calls with
  the step/finalize loop duplicated as it historically was.

Run with the production algorithm factories, the per-edge chain must
reproduce :func:`repro.streaming.reduction.streaming_to_oneway` exactly
(output, charged bits, transcript).  Against the original finder the
mask pipeline forwards states as upper-bit rows, so transcript
*payloads* differ in shape; those differential tests compare outputs,
per-hop charged bits, and the edge sets decoded from each state.
``benchmarks/bench_mask_migration.py`` measures whole chain trials
against this baseline.
"""

from __future__ import annotations

from typing import Callable

from repro.comm.encoding import edge_bits
from repro.comm.oneway import OneWayRun, run_oneway_chain
from repro.comm.players import Player, make_players
from repro.graphs.graph import Edge, canonical_edge
from repro.graphs.partition import EdgePartition
from repro.streaming.stream import StreamingAlgorithm

__all__ = [
    "CountingExactFinderReference",
    "streaming_to_oneway_reference",
    "state_edges",
]


class CountingExactFinderReference(StreamingAlgorithm):
    """The original exact finder: ``set[Edge]`` store, per-edge state."""

    def __init__(self, n: int) -> None:
        self.n = n
        self._edges: set[Edge] = set()
        self._adjacency: dict[int, int] = {}
        self._found: tuple[int, int, int] | None = None

    def process(self, edge: Edge) -> None:
        edge = canonical_edge(*edge)
        u, v = edge
        if self._found is None:
            common = self._adjacency.get(u, 0) & self._adjacency.get(v, 0)
            if common:
                low = common & -common
                a, b, c = sorted((u, v, low.bit_length() - 1))
                self._found = (a, b, c)
        self._edges.add(edge)
        self._adjacency[u] = self._adjacency.get(u, 0) | (1 << v)
        self._adjacency[v] = self._adjacency.get(v, 0) | (1 << u)

    def state_bits(self) -> int:
        return max(1, len(self._edges) * edge_bits(self.n))

    def result(self) -> tuple[int, int, int] | None:
        return self._found

    def export_state(self) -> dict:
        return {"edges": sorted(self._edges), "found": self._found}

    def import_state(self, state: dict) -> None:
        self._edges = set()
        self._adjacency = {}
        self._found = state["found"]
        for edge in state["edges"]:
            self._edges.add(edge)
            u, v = edge
            self._adjacency[u] = self._adjacency.get(u, 0) | (1 << v)
            self._adjacency[v] = self._adjacency.get(v, 0) | (1 << u)


def streaming_to_oneway_reference(
    partition: EdgePartition,
    algorithm_factory: Callable[[], StreamingAlgorithm],
) -> OneWayRun:
    """The original per-edge chain reduction (duplicated loop and all)."""
    players = make_players(partition)
    if len(players) < 2:
        raise ValueError("the chain reduction needs at least two players")

    def step(player: Player, state, _shared):
        algorithm = algorithm_factory()
        if state is not None:
            algorithm.import_state(state["state"])
        for edge in player.sorted_edges():
            algorithm.process(edge)
        return {
            "state": algorithm.export_state(),
            "bits": algorithm.state_bits(),
        }

    def state_bits(state) -> int:
        return max(1, state["bits"])

    def finalize(player: Player, state, _shared):
        algorithm = algorithm_factory()
        if state is not None:
            algorithm.import_state(state["state"])
        for edge in player.sorted_edges():
            algorithm.process(edge)
        return algorithm.result()

    return run_oneway_chain(
        players,
        initial_state=None,
        step=step,
        state_bits=state_bits,
        finalize=finalize,
    )


def state_edges(state: dict) -> list[Edge]:
    """Decode a forwarded chain state to its edge list (either format)."""
    inner = state["state"]
    if "edges" in inner:
        return sorted(inner["edges"])
    edges: list[Edge] = []
    for u in sorted(inner["rows"]):
        rest = inner["rows"][u]
        while rest:
            low = rest & -rest
            rest ^= low
            edges.append((u, low.bit_length() - 1))
    return edges
