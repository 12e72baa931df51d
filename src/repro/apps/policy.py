"""loadd's load-balancing policy (section 8, DESIGN.md §11).

The paper's section 8 rule — move "CPU bound jobs ... from busy
nodes of the network to others that are idle" — as a *pure function*
from a load view to a list of moves, :class:`ThresholdPolicy`:

* the **view** is a mapping ``host -> HostLoad`` (runnable VM jobs
  plus migration candidates with their CPU seconds), which the
  ``loadd`` daemon assembles from spooled ``LOADREPORT`` datagrams;
* ``select(view)`` returns :class:`Move` decisions.  It never
  mutates the view, never consults a clock or an RNG, and calling it
  twice on the same view returns the same decisions — the property
  tests in ``tests/test_loadd.py`` hold it to this.

Invariants, enforced in the selection loop:

* never more than ``max_moves_per_round`` moves;
* a move's source has at least one eligible candidate (so never an
  idle host) and its destination is a different host in the view;
* candidates must have consumed ``min_cpu_seconds`` of CPU (the
  paper's "running for more than a certain amount of time");
* a move must strictly reduce the source/destination spread
  (source − destination >= 2 after simulating earlier moves), so
  equally-busy or off-by-one hosts never churn jobs back and forth —
  even with ``imbalance_threshold=0``.

Ties (equally busy or equally idle hosts) break toward the host
listed *first in the view* — views are built in a deterministic host
order, so decisions are reproducible across runs and engines.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class HostLoad:
    """One host's entry in a load view."""

    host: str
    runnable: int  #: runnable (non-zombie) VM jobs
    candidates: tuple = ()  #: ``(pid, cpu_seconds)``, any order


@dataclass(frozen=True)
class Move:
    """One balancing decision: move ``pid`` source -> destination."""

    pid: int
    source: str
    destination: str


#: a move must leave the source at least as loaded as the
#: destination; spread 1 would just trade places, so require 2
_MIN_USEFUL_SPREAD = 2


class ThresholdPolicy:
    """The classic busiest-vs-idlest rule, ``loadd``'s one policy.

    Move from the busiest host to the idlest only while their spread
    is at least ``imbalance_threshold`` runnable jobs (and at least
    2, so the move is a strict improvement).
    """

    def __init__(self, min_cpu_seconds=0.5, imbalance_threshold=2,
                 max_moves_per_round=1):
        self.min_cpu_seconds = min_cpu_seconds
        self.imbalance_threshold = imbalance_threshold
        self.max_moves_per_round = max_moves_per_round

    def select(self, view):
        """Return the moves this policy makes for ``view`` (pure)."""
        runnable = {host: view[host].runnable for host in view}
        pools = self._pools(view)
        floor = max(self.imbalance_threshold, _MIN_USEFUL_SPREAD)
        moves = []
        while runnable and len(moves) < self.max_moves_per_round:
            source = max(runnable, key=lambda h: runnable[h])
            destination = min(runnable, key=lambda h: runnable[h])
            if runnable[source] - runnable[destination] < floor \
                    or not pools[source]:
                break
            pid, __cpu = pools[source].pop(0)
            moves.append(Move(pid, source, destination))
            runnable[source] -= 1
            runnable[destination] += 1
        return moves

    def _pools(self, view):
        """Eligible candidates per host, most CPU first."""
        pools = {}
        for host, entry in view.items():
            eligible = [c for c in entry.candidates
                        if c[1] >= self.min_cpu_seconds]
            pools[host] = sorted(eligible,
                                 key=lambda c: (-c[1], c[0]))
        return pools
