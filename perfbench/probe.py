"""Host-speed probe: a fixed pure-Python job timed between run segments.

On a shared host the speed of one process switches between a fast and
a slow state (the slow one up to twice as slow), each lasting from a
tenth of a second to minutes, so a whole 30-second run can be slow.
The probe does the same work on every host and in every run and calls
none of the simulator's code: a walk over a seeded ring of small
objects with dictionary, attribute, integer and bytearray work at every
step, small enough to stay in the caches so that it measures the
host's speed and not what the simulator left in the caches.  It takes
under a millisecond, and the host's state rarely changes within tens
of milliseconds, so a run segment divided by the probes timed right
before and after it is its length in probe units: the same in the fast
and the slow state, and moved only by a change to the simulator.
"""

import random
import time

#: the probe's time, in seconds, on the reference host (a shared
#: 2-vCPU x86-64 virtual machine, Python 3.11.7) in its fast state;
#: run.py reports host times as probe units times this
REFERENCE_S = 0.00035

RING = 1 << 10  #: objects in the ring
STEPS = 1_000  #: ring steps one probe walks


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.next = None


class Probe:
    """The ring, built once per process; :meth:`time` runs the job."""

    def __init__(self):
        rng = random.Random(1988)
        order = list(range(RING))
        rng.shuffle(order)
        # integer keys: their hashes, unlike strings', do not change
        # from one process to the next
        nodes = [_Node(i % 509, rng.randrange(1 << 16))
                 for i in range(RING)]
        for a, b in zip(order, order[1:] + order[:1]):
            nodes[a].next = nodes[b]
        self.nodes = nodes
        self.head = nodes[order[0]]
        self.result = None  #: the job's result, the same every time

    def time(self):
        """Walk the ring once; returns the host time in seconds."""
        clock = time.perf_counter
        start = clock()
        node = self.head
        table = {}
        buf = bytearray(1024)
        acc = 0
        for i in range(STEPS):
            key = node.key
            table[key] = table.get(key, 0) + (acc & 255)
            acc = (acc * 31 + node.value) & 0xFFFFFFFF
            buf[i & 1023] ^= acc & 255
            node = node.next
        result = (acc, len(table), sum(buf))
        elapsed = clock() - start
        if self.result is None:
            self.result = result
        elif result != self.result:
            raise RuntimeError("probe result changed: %r != %r"
                               % (result, self.result))
        return elapsed
