"""Pluggable load-balancing policies (section 8, DESIGN.md §11).

A policy is a *pure function* from a load view to a list of moves:

* the **view** is a mapping ``host -> HostLoad`` (runnable VM jobs
  plus migration candidates with their CPU seconds), which the
  ``loadd`` daemon assembles from spooled ``LOADREPORT`` datagrams;
* ``select(view)`` returns :class:`Move` decisions.  It never
  mutates the view, never consults a clock or an RNG, and calling it
  twice on the same view returns the same decisions — the property
  tests in ``tests/test_loadd.py`` hold every policy to this.

Shared invariants, enforced in the base class loop:

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


class BalancePolicy:
    """Base class: the candidate filter and the selection loop."""

    def __init__(self, min_cpu_seconds=0.5, max_moves_per_round=1):
        self.min_cpu_seconds = min_cpu_seconds
        self.max_moves_per_round = max_moves_per_round

    # -- the pure selection entry point --------------------------------------

    def select(self, view):
        """Return the moves this policy makes for ``view`` (pure)."""
        runnable = {host: view[host].runnable for host in view}
        pools = self._pools(view)
        moves = []
        for __ in range(max(0, self.max_moves_per_round)):
            pair = self._pick(runnable, pools)
            if pair is None:
                break
            source, destination = pair
            pid, __cpu = pools[source].pop(0)
            moves.append(Move(pid, source, destination))
            runnable[source] -= 1
            runnable[destination] += 1
        return moves

    # -- subclass hook -------------------------------------------------------

    def _pick(self, runnable, pools):
        """Choose ``(source, destination)`` or None to stop.

        ``runnable`` reflects the moves already simulated this round;
        ``pools`` holds each host's remaining eligible candidates,
        busiest first.
        """
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------

    def _pools(self, view):
        """Eligible candidates per host, most CPU first."""
        pools = {}
        for host, entry in view.items():
            eligible = [c for c in entry.candidates
                        if c[1] >= self.min_cpu_seconds]
            pools[host] = sorted(eligible,
                                 key=lambda c: (-c[1], c[0]))
        return pools

    @staticmethod
    def _busiest(runnable, pools, floor=_MIN_USEFUL_SPREAD):
        """The most loaded host that still has candidates, or None."""
        best = None
        for host in runnable:
            if not pools[host] or runnable[host] < floor:
                continue
            if best is None or runnable[host] > runnable[best]:
                best = host
        return best


class ThresholdPolicy(BalancePolicy):
    """The classic busiest-vs-idlest rule (``loadd``'s default).

    Move from the busiest host to the idlest only while their spread
    is at least ``imbalance_threshold`` runnable jobs (and at least
    2, so the move is a strict improvement).
    """

    def __init__(self, min_cpu_seconds=0.5, imbalance_threshold=2,
                 max_moves_per_round=1):
        super().__init__(min_cpu_seconds=min_cpu_seconds,
                         max_moves_per_round=max_moves_per_round)
        self.imbalance_threshold = imbalance_threshold

    def _pick(self, runnable, pools):
        if not runnable:
            return None
        busiest = max(runnable, key=lambda h: runnable[h])
        idlest = min(runnable, key=lambda h: runnable[h])
        spread = runnable[busiest] - runnable[idlest]
        if spread < max(self.imbalance_threshold,
                        _MIN_USEFUL_SPREAD):
            return None
        if not pools[busiest]:
            return None
        return busiest, idlest


class WatermarkPolicy(BalancePolicy):
    """High/low watermark: only clearly-busy hosts shed jobs, only
    clearly-idle hosts take them.

    A host with more than ``high_watermark`` runnable jobs is a
    sender; one with fewer than ``low_watermark`` is a receiver.
    Hosts between the marks are left alone entirely — the band damps
    the oscillation a plain threshold rule shows under load that
    hovers around the trigger point.
    """

    def __init__(self, high_watermark=2, low_watermark=1,
                 min_cpu_seconds=0.5, max_moves_per_round=1):
        super().__init__(min_cpu_seconds=min_cpu_seconds,
                         max_moves_per_round=max_moves_per_round)
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark

    def _pick(self, runnable, pools):
        senders = {h: n for h, n in runnable.items()
                   if n > self.high_watermark and pools[h]}
        receivers = {h: n for h, n in runnable.items()
                     if n < self.low_watermark}
        if not senders or not receivers:
            return None
        source = max(senders, key=lambda h: senders[h])
        destination = min(receivers, key=lambda h: receivers[h])
        if source == destination or (runnable[source]
                                     - runnable[destination]
                                     < _MIN_USEFUL_SPREAD):
            return None
        return source, destination


class WorkStealingPolicy(BalancePolicy):
    """Sender-initiated work stealing: every *idle* host gets one job
    from the currently-busiest host that can spare one.

    Unlike the threshold rule this policy only ever feeds hosts with
    zero runnable jobs — it drains a hot spot into genuinely empty
    machines and otherwise stays out of the way.
    """

    def _pick(self, runnable, pools):
        idle = [h for h, n in runnable.items() if n == 0]
        if not idle:
            return None
        source = self._busiest(runnable, pools)
        if source is None:
            return None
        return source, idle[0]


#: registry for ``loadd -P <name>`` / the ``loadd_policy`` knob
POLICIES = {
    "threshold": ThresholdPolicy,
    "watermark": WatermarkPolicy,
    "stealing": WorkStealingPolicy,
}


def make_policy(name, **knobs):
    """Instantiate a registered policy; raises ValueError on unknown
    names or knobs the policy does not take."""
    if name not in POLICIES:
        raise ValueError("unknown balance policy %r" % (name,))
    try:
        return POLICIES[name](**knobs)
    except TypeError as exc:
        raise ValueError("policy %s: %s" % (name, exc))
