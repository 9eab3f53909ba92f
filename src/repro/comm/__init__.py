"""Communication-model substrate: players, ledgers, and model runtimes.

This package simulates the number-in-hand communication models of the paper
with explicit bit accounting:

* :mod:`repro.comm.encoding` — bit costs of payloads;
* :mod:`repro.comm.ledger` — per-run communication ledger;
* :mod:`repro.comm.randomness` — shared (public) coins;
* :mod:`repro.comm.players` — strictly-local player computation;
* :mod:`repro.comm.coordinator` — the coordinator model (default);
* :mod:`repro.comm.simultaneous` — one-shot referee model;
* :mod:`repro.comm.oneway` — extended one-way model (lower bounds, streaming);
* :mod:`repro.comm.blackboard` — blackboard variant (Theorem 3.23).
"""

from repro.comm.blackboard import BlackboardRuntime
from repro.comm.coordinator import CoordinatorRuntime
from repro.comm.messagepassing import (
    MessagePassingRecord,
    MessagePassingRuntime,
    coordinator_cost_of_transcript,
    message_passing_cost_of_coordinator_run,
    simulate_with_coordinator,
)
from repro.comm.newman import (
    NewmanPool,
    build_pool,
    estimate_pool_error,
    pool_size,
)
from repro.comm.ledger import CommunicationLedger, CostSummary, MessageRecord
from repro.comm.oneway import (
    OneWayRun,
    OneWayTranscript,
    run_extended_oneway,
    run_oneway_chain,
)
from repro.comm.players import Player, make_players
from repro.comm.randomness import PublicOrder, SharedRandomness
from repro.comm.simultaneous import SimultaneousRun, run_simultaneous

__all__ = [
    "MessagePassingRecord",
    "MessagePassingRuntime",
    "coordinator_cost_of_transcript",
    "message_passing_cost_of_coordinator_run",
    "simulate_with_coordinator",
    "NewmanPool",
    "build_pool",
    "estimate_pool_error",
    "pool_size",
    "BlackboardRuntime",
    "CoordinatorRuntime",
    "CommunicationLedger",
    "CostSummary",
    "MessageRecord",
    "OneWayRun",
    "OneWayTranscript",
    "run_extended_oneway",
    "run_oneway_chain",
    "Player",
    "make_players",
    "PublicOrder",
    "SharedRandomness",
    "SimultaneousRun",
    "run_simultaneous",
]
