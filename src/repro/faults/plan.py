"""Fault plans: which injection sites misbehave, and how often.

A plan is a list of rules.  Each rule names a site (exactly, or by
``prefix.*``), a failure kind, and counters saying which hits of that
site it applies to.  Rules never consult the clock or global
randomness at decision time: whether hit *N* of a site fires is a
pure function of the plan, so two runs of the same scenario — on
either VM — inject identical faults at identical points.

The textual format (see docs/man/faultplan.5.md)::

    <site> <kind> [n=<count>|n=*] [skip=<k>] [errno=<NAME>]
                  [delay=<seconds>] [host=<name>]
                  [target=<name>] [peer=<name>]

Rules are separated by ``;`` or newlines.  Examples::

    dump.write.files fail n=1 errno=EIO
    net.read delay n=2 delay=0.8
    nfs.read corrupt skip=1
    restproc.overlay crash n=1
    net.connect partition n=1 peer=schooner

The host-level kinds: ``crash`` powers off a machine the moment the
site is hit (``target=`` names the victim; default is the host that
hit the site), ``partition`` cuts the link between ``target=`` (same
default) and the mandatory ``peer=``.
"""

import random

import repro.errors as errors_mod
from repro.errors import EIO

#: the failure kinds a rule may carry
KINDS = ("fail", "delay", "corrupt", "crash", "partition")


class FaultRule:
    """One ``site kind ...`` clause of a plan."""

    def __init__(self, site, kind, count=1, skip=0, errno=EIO,
                 delay_us=500_000, host=None, target=None, peer=None):
        if kind not in KINDS:
            raise ValueError("unknown fault kind %r" % kind)
        if kind == "partition" and peer is None:
            raise ValueError("partition rule needs peer=<host>")
        self.site = site
        self.kind = kind
        self.count = count        #: how many hits fire (None = forever)
        self.skip = skip          #: matching hits to let through first
        self.errno = errno
        self.delay_us = delay_us
        self.host = host          #: restrict to one machine (or None)
        self.target = target      #: crash/partition victim (default:
        #: the host that hit the site)
        self.peer = peer          #: partition: the other end of the cut
        self.seen = 0             #: matching hits observed so far
        self.fired = 0            #: hits this rule actually acted on
        self.rng = None           #: seeded by the owning plan

    def matches(self, site, host):
        if self.host is not None and host != self.host:
            return False
        if self.site.endswith(".*"):
            return site.startswith(self.site[:-1])
        return site == self.site

    def note_hit(self):
        """Record one matching hit; True if the rule fires on it."""
        position = self.seen
        self.seen += 1
        if position < self.skip:
            return False
        if self.count is not None and position >= self.skip + self.count:
            return False
        self.fired += 1
        return True

    def __repr__(self):
        return ("FaultRule(%s %s n=%s skip=%d fired=%d)"
                % (self.site, self.kind,
                   "*" if self.count is None else self.count,
                   self.skip, self.fired))


class FaultPlan:
    """An ordered set of rules with a deterministic per-rule RNG."""

    def __init__(self, rules=(), seed=0):
        self.rules = list(rules)
        self.seed = seed
        for index, rule in enumerate(self.rules):
            # string seeds hash via sha512: stable across processes
            rule.rng = random.Random("%s/%d" % (seed, index))

    @classmethod
    def parse(cls, spec, seed=0):
        """Build a plan from the textual rule format above."""
        rules = []
        for clause in spec.replace("\n", ";").split(";"):
            clause = clause.strip()
            if not clause or clause.startswith("#"):
                continue
            rules.append(cls._parse_rule(clause))
        return cls(rules, seed=seed)

    @staticmethod
    def _parse_rule(clause):
        words = clause.split()
        if len(words) < 2:
            raise ValueError("fault rule needs '<site> <kind>': %r"
                             % clause)
        site, kind = words[0], words[1]
        kw = {}
        for word in words[2:]:
            key, sep, value = word.partition("=")
            if not sep:
                raise ValueError("bad fault option %r" % word)
            if key == "n":
                kw["count"] = None if value == "*" else int(value)
            elif key == "skip":
                kw["skip"] = int(value)
            elif key == "errno":
                number = getattr(errors_mod, value, None)
                if not isinstance(number, int):
                    raise ValueError("unknown errno %r" % value)
                kw["errno"] = number
            elif key == "delay":
                kw["delay_us"] = int(float(value) * 1_000_000)
            elif key == "host":
                kw["host"] = value
            elif key == "target":
                kw["target"] = value
            elif key == "peer":
                kw["peer"] = value
            else:
                raise ValueError("unknown fault option %r" % key)
        return FaultRule(site, kind, **kw)

    def fired(self):
        """(site, kind, fired) for every rule that acted — the chaos
        tests compare this tuple across VMs."""
        return tuple((r.site, r.kind, r.fired)
                     for r in self.rules if r.fired)

    def __repr__(self):
        return "FaultPlan(%r, seed=%r)" % (self.rules, self.seed)
