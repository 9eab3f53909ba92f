"""Blackboard-model runtime (Section 2 variant; Theorem 3.23).

Every message is posted to a blackboard visible to all parties, so a posted
payload is charged *once* regardless of audience size.  The paper uses this
model for a factor-k saving in the unrestricted protocol: when players post
sampled edges in turns, nobody re-posts an edge already on the board, and the
broadcast of collected edges back to the players is free compared with the
coordinator model's k private copies.

The runtime offers the deduplicating edge-posting round directly, since that
is the only blackboard-specific behaviour the protocols need.  Posted edges
are tracked on a *per-vertex posted-rows board* (the same mask-kernel
representation as :class:`~repro.graphs.graph.Graph`), kept internally in
canonical upper-triangular form — bit ``v`` of row ``u`` (``u < v``) marks
edge ``{u, v}`` as posted, which is the only bit the dedup test ever
reads; the full symmetric view is materialized lazily by
:attr:`BlackboardRuntime.board_rows`.  The "already posted?" test is one
shift-and-test, and the mask form
:meth:`BlackboardRuntime.post_rows_in_turns` computes a whole player's
fresh edges as ``harvest_row & ~board_row`` per vertex — word-wide, in
exactly the ascending canonical order the edge form posts sorted harvests
in.  The original set-of-tuples dedup loop survives as a test oracle
under ``tests/oracles/`` for differential tests and benchmarks.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.comm.ledger import CommunicationLedger
from repro.comm.players import Player
from repro.comm.randomness import SharedRandomness
from repro.graphs.graph import Edge

__all__ = ["BlackboardRuntime"]


class BlackboardRuntime:
    """Execution context for one blackboard-model protocol run."""

    def __init__(self, players: Sequence[Player],
                 shared: SharedRandomness | None = None,
                 ledger: CommunicationLedger | None = None) -> None:
        if not players:
            raise ValueError("a protocol needs at least one player")
        self.players = list(players)
        self.n = players[0].n
        self.k = len(players)
        self.shared = shared if shared is not None else SharedRandomness()
        self.ledger = ledger if ledger is not None else CommunicationLedger()
        self.board: list[tuple[int, object]] = []
        self._board_upper: list[int] = [0] * self.n
        self._board_rows_cache: list[int] | None = None

    @property
    def board_rows(self) -> list[int]:
        """Symmetric per-vertex masks of the edges the *_in_turns*
        deduplicating posters put on the board.

        Only :meth:`post_edges_in_turns` / :meth:`post_rows_in_turns`
        feed these masks; a raw :meth:`post` carries an opaque payload
        the runtime does not interpret as edges, so it never reaches
        them (mixing the two posting styles on one runtime would make a
        later *_in_turns* call re-post the raw-posted edges).
        Materialized on demand from the canonical upper-triangular board
        (one mirror pass over the posted edges, cached until the next
        post) — treat as READ-ONLY.
        """
        if self._board_rows_cache is None:
            rows = list(self._board_upper)
            for u, upper in enumerate(self._board_upper):
                if not upper:
                    continue
                bit_u = 1 << u
                while upper:
                    low = upper & -upper
                    upper ^= low
                    rows[low.bit_length() - 1] |= bit_u
            self._board_rows_cache = rows
        return self._board_rows_cache

    def post(self, player_id: int, payload: object, bits: int,
             label: str = "blackboard") -> None:
        """Post a payload; charged once, visible to everyone."""
        self.ledger.begin_round()
        self.ledger.charge_upstream(player_id, bits, label)
        self.board.append((player_id, payload))

    def post_edges_in_turns(
        self,
        harvest: Callable[[Player], Iterable[Edge]],
        per_edge_bits: int,
        label: str = "blackboard-edges",
        cap: int | None = None,
    ) -> set[Edge]:
        """Players post their harvested edges in turn, never repeating.

        Each player locally computes its harvest, subtracts what is already
        on the board (one board-row bit test per edge), and posts only
        the remainder — this is exactly how Theorem 3.23 saves the factor k
        over the coordinator model.  An optional global ``cap`` bounds the
        total number of *distinct* posted edges; duplicates inside a
        harvest are never charged and never count toward the cap, a player
        whose whole harvest is stale is not charged a round, and once the
        cap is reached no further player is charged anything.  The board
        is orientation-insensitive (edges are normalized before the dedup
        test); harvests that yield canonical edges — every caller in the
        repo — post byte-identical payloads to the historical set-based
        loop.
        """
        board = self._board_upper
        posted: set[Edge] = set()
        for player in self.players:
            if cap is not None and len(posted) >= cap:
                break
            remaining = None if cap is None else cap - len(posted)
            fresh: list[Edge] = []
            for edge in harvest(player):
                if remaining is not None and len(fresh) >= remaining:
                    break
                u, v = edge
                if v < u:
                    u, v = v, u
                if board[u] >> v & 1:
                    continue
                board[u] |= 1 << v
                fresh.append(edge)
            if not fresh:
                continue
            self._board_rows_cache = None
            self.post(
                player.player_id, tuple(fresh),
                per_edge_bits * len(fresh), label,
            )
            posted.update(fresh)
        return posted

    def post_rows_in_turns(
        self,
        harvest_rows: Callable[[Player], Sequence[int]],
        per_edge_bits: int,
        label: str = "blackboard-edges",
        cap: int | None = None,
    ) -> list[Edge]:
        """Mask form of :meth:`post_edges_in_turns`: row harvests, word-wide.

        ``harvest_rows(player)`` returns symmetric per-vertex adjacency
        masks (e.g. :meth:`~repro.comm.players.Player.adjacency_rows`);
        each player's fresh edges are ``harvest_row & ~board_row`` per
        vertex — one word-wide ``&``-and-clear per inhabited row, with a
        stale player costing a pure mask scan and no per-edge work —
        enumerated (and therefore posted, charged, and cap-truncated) in
        ascending canonical order, identical to feeding the edge form a
        sorted harvest.  Returns every edge posted by this call, in
        posting order.
        """
        board = self._board_upper
        posted: list[Edge] = []
        for player in self.players:
            if cap is not None and len(posted) >= cap:
                break
            remaining = None if cap is None else cap - len(posted)
            rows = harvest_rows(player)
            fresh: list[Edge] = []
            for u in range(min(self.n, len(rows))):
                # The board holds upper bits only, so the lower bits of
                # the harvest row fall off the shift: one word-wide
                # &-and-shift yields the fresh partners above u, and the
                # peeling below runs on the narrowed mask.
                new = (rows[u] & ~board[u]) >> (u + 1)
                if not new:
                    continue
                if remaining is not None and \
                        len(fresh) + new.bit_count() > remaining:
                    # Cap hit mid-row: accept only the lowest remainder.
                    accepted = 0
                    while len(fresh) < remaining:
                        low = new & -new
                        new ^= low
                        accepted |= low
                        fresh.append((u, u + low.bit_length()))
                    board[u] |= accepted << (u + 1)
                    break
                board[u] |= new << (u + 1)
                while new:
                    low = new & -new
                    new ^= low
                    fresh.append((u, u + low.bit_length()))
            if not fresh:
                continue
            self._board_rows_cache = None
            self.post(
                player.player_id, tuple(fresh),
                per_edge_bits * len(fresh), label,
            )
            posted.extend(fresh)
        return posted

    def __repr__(self) -> str:
        return f"BlackboardRuntime(k={self.k}, n={self.n})"
