"""Set-based oracles: the pre-mask implementations, kept for testing.

Each module is the executable specification one production subsystem is
pinned against, in the subsystem's own terms:

* :mod:`oracles.graphs` — :class:`~oracles.graphs.SetGraph` (one
  ``set[int]`` per vertex) and the original triangle routines;
* :mod:`oracles.comm` — :class:`~oracles.comm.SetPlayer`, the
  set-dedup blackboard round, :func:`~oracles.comm.set_players`,
  which runs a protocol module on set players, and
  :class:`~oracles.comm.ScalarSharedRandomness`, the per-index
  Bernoulli subset loop;
* :mod:`oracles.core` — the ``set[Edge]``-union referees;
* :mod:`oracles.patterns` — the networkx VF2 matcher;
* :mod:`oracles.streaming` — the per-edge streaming chain;
* :mod:`oracles.lowerbounds` — the per-edge one-way protocol;
* :mod:`oracles.instances` — the per-edge sampling, partition and
  planting loops the edge-key array paths replay.

The differential tests under ``tests/`` and the migration benchmarks
under ``benchmarks/`` import this package; the shipped ``repro``
package never does (``tests/test_package_boundary.py``).  Run outside
pytest, put ``tests`` on ``PYTHONPATH`` (pytest's ``pythonpath``
setting already does).

networkx is the optional ``reference`` extra; only the VF2 matcher and
:func:`~oracles.graphs.to_networkx` need it, and they raise a pointed
error without it.
"""

from __future__ import annotations

__all__ = ["networkx_available", "require_networkx"]


def networkx_available() -> bool:
    """True when the optional ``reference`` dependency is importable."""
    try:
        import networkx  # noqa: F401
    except ImportError:
        return False
    return True


def require_networkx(what: str):
    """The networkx module, or an ImportError naming the extra."""
    try:
        import networkx as nx
    except ImportError as exc:
        raise ImportError(
            f"{what} needs networkx, an optional dependency used only for "
            "reference and differential paths; install it via "
            "`pip install -e '.[reference]'`"
        ) from exc
    return nx
