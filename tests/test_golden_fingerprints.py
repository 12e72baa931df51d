"""Golden fingerprints: the daemon pipelines replay byte for byte.

The other determinism tests check the driver against the reference
scan, and compiled traces against the interpreter, inside one
checkout.  This file pins runs against *recorded* digests instead, so a refactor of the daemons' shared plumbing (report
framing, restart-ack polling, counter bookkeeping) that shifts a
single syscall, wire byte, counter or virtual microsecond fails here.

Each scenario runs with every trace category enabled and is reduced
to four sha-256 digests:

* ``trace`` — the tracer's JSONL render;
* ``perf`` — ``perf.snapshot()`` as sorted-key JSON;
* ``consoles`` — every host's console, in host order;
* ``clocks`` — every host's virtual clock, in host order.

The digests were recorded from :func:`fingerprint` before the daemons'
plumbing was shared.  A mismatch means the simulation changed, not
that the table needs refreshing: a refactor that should not move
virtual time must leave every digest alone.  A change that moves a
scenario on purpose re-records only the digests it moves, in a
dedicated commit whose message names each moved digest and why; every
other digest stays byte-identical.  A new scenario gets its digests
recorded the same way, on the commit before the change it guards.
"""

import hashlib
import json

import pytest

from repro.core.api import MigrationSite
from repro.costmodel import CostModel
from repro.obs.tracer import Tracer
from repro.programs.guest import cpuhog
from repro.programs.guest.libasm import program
from tests import test_faults, test_migledger_sweep as sweep
from tests.conftest import start_counter
from tests.test_recovery import FAST_KNOBS, _job_meta


@pytest.fixture(autouse=True)
def trace_everything(monkeypatch):
    """Every scenario records all categories, whatever its helper
    asks the tracer for."""
    enable = Tracer.enable
    monkeypatch.setattr(Tracer, "enable",
                        lambda self, *categories: enable(self))


def _sha(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def fingerprint(site):
    cluster = site.cluster
    hosts = cluster.hosts()
    return {
        "trace": _sha(cluster.tracer.to_jsonl()),
        "perf": _sha(json.dumps(cluster.perf.snapshot(),
                                sort_keys=True)),
        "consoles": _sha(json.dumps([site.console(h) for h in hosts])),
        "clocks": _sha(json.dumps(
            [cluster.machine(h).clock.now_us for h in hosts])),
    }


# -- the scenarios ----------------------------------------------------------


def _loadd(spec, **kwargs):
    return lambda: test_faults._loadd_scenario(spec, **kwargs)[0]


def _statd(spec, **kwargs):
    return lambda: test_faults._statd_scenario(spec, **kwargs)[0]


def _migrate_daemon_ledger():
    """One ``migrate -d`` with the ledger on, no faults."""
    site = sweep._site()
    victim = sweep._start_victim(site)
    handle = site.migrate(victim.pid, "brick", "schooner",
                          typed_on="tanker", use_daemon=True,
                          wait_resumed=False)
    site.run_until(lambda: handle.exited, max_steps=120_000_000)
    sweep._drain(site, 3.0)
    return site


def _loadd_ledger_move():
    """One loadd move with the ledger on, no faults."""
    return sweep._loadd_move()[0]


def _ledger_restage():
    """The orchestrator dies at the DUMPED advance; ``recoveryd -m``
    restages the job from the chunk-store archive."""
    site = sweep._site()
    victim = sweep._start_victim(site)
    site.cluster.inject_faults("ledger.advance crash n=1", seed=77)
    handle = site.migrate(victim.pid, "brick", "schooner",
                          typed_on="tanker", use_daemon=True,
                          wait_resumed=False)
    site.run_until(
        lambda: handle.exited or not site.machine("tanker").running,
        max_steps=120_000_000)
    sweep._drain(site, 3.0)
    sweep._heal_and_sweep(site)
    return site


def _ckptd_recover():
    """ckptd checkpoints a counter on brick, brick crashes, and
    recoveryd on schooner restages the latest round."""
    site = MigrationSite(costs=CostModel(**FAST_KNOBS))
    site.cluster.tracer.enable()
    site.run_quiet()
    site.machine("brador").fs.makedirs("/tmp/ckpt", mode=0o777)
    victim = start_counter(site)
    site.type_at("brick", "one\n")
    site.run_until(lambda: site.console("brick").count("> ") >= 2)
    site.machine("brick").spawn(
        "/bin/ckptd", ["ckptd", str(victim.pid), "2", "2",
                       "/n/brador/tmp/ckpt/job1"], uid=100, cwd="/tmp")
    site.run_until(lambda: _job_meta(site)[1].get("round", -1) >= 0,
                   max_steps=10_000_000)
    site.cluster.crash_host("brick")
    recoveryd = site.machine("schooner").spawn(
        "/bin/recoveryd", ["recoveryd", "-i", "1", "-n", "30",
                           "/n/brador/tmp/ckpt"], uid=100, cwd="/tmp")
    site.run_until(lambda: recoveryd.exited, max_steps=20_000_000)
    site.run_quiet(max_steps=20_000_000)
    site.type_at("schooner", "two\n")
    site.run_until(lambda: "r=3 s=3 k=3" in site.console("schooner"),
                   max_steps=10_000_000)
    return site


def _hog_storm():
    """The 8-host eager cpuhog storm at smoke size: 32 hogs dumped at
    once mid-loop, each restarted one host to the right over NFS."""
    names = ["w%d" % i for i in range(8)]
    site = MigrationSite(workstations=names, server=None, daemons=False)
    site.cluster.tracer.enable()
    hogs = [(names[k % 8], site.start(names[k % 8], "/bin/cpuhog",
                                      ["cpuhog", "5000"], uid=100))
            for k in range(32)]
    site.run(until_us=150_000.0)
    dumps = [site.start(host, "/bin/dumpproc",
                        ["dumpproc", "-p", str(hog.pid)], uid=100)
             for host, hog in hogs]
    site.run_until(lambda: all(d.exited for d in dumps),
                   max_steps=200_000_000)
    for k, (host, hog) in enumerate(hogs):
        site.start(names[(k + 1) % 8], "/bin/restart",
                   ["restart", "-p", str(hog.pid), "-h", host], uid=100)
    site.run(max_steps=200_000_000)
    return site


def _lazy_hog():
    """A cpuhog carrying an untouched 64 KB buffer, lazily restarted:
    its chunks stay pending, so it finishes on lazy-variant traces."""
    costs = CostModel().with_overrides(incremental_dumps=True,
                                       lazy_restart=True)
    site = MigrationSite(costs)
    site.cluster.tracer.enable()
    site.run_quiet()
    aout = program(cpuhog.BODY,
                   cpuhog.DATA + "bigbuf: .space 65536\n").aout
    for name in ("brick", "schooner"):
        site.machine(name).install_aout("bighog", aout)
    handle = site.start("brick", "/bin/bighog", ["bighog", "30000"])
    site.run(until_us=site.cluster.wall_time_us() + 100_000)
    site.dumpproc("brick", handle.pid)
    moved = site.restart("schooner", handle.pid, from_host="brick")
    site.run_until(lambda: moved.exited)
    return site


SCENARIOS = {
    "loadd-report-loss": _loadd("loadd.send fail n=*"),
    "loadd-delayed-reports": _loadd("loadd.recv delay n=4 delay=0.4"),
    "loadd-host-crash": _loadd("loadd.send crash n=1 target=schooner"),
    "loadd-partition-heal": _loadd(
        "loadd.send partition n=1 host=brick peer=schooner",
        rounds=12, heal_after_us=6_000_000),
    "statd-report-loss": _statd("statd.send fail n=*"),
    "statd-spool-delay": _statd("statd.spool delay n=2 delay=0.4"),
    "statd-server-crash": _statd("statd.send crash n=1 target=brador",
                                 rounds=10),
    "loadd-ledger-move": _loadd_ledger_move,
    "migrate-d-ledger": _migrate_daemon_ledger,
    "ledger-restage": _ledger_restage,
    "ckptd-recover": _ckptd_recover,
    "hog-storm": _hog_storm,
    "lazy-hog": _lazy_hog,
}

GOLDEN = {
    "ckptd-recover": {
        "trace":
            "a328b0c8bc3fabc8106e108df510faf5d925e04dbf54e3607a1230aabc95504d",
        "perf":
            "c80daaa73a61528d4e26e2de7730eebeb22d034342615d83eb99603da0d18ff3",
        "consoles":
            "1ac3c099a1e7dba1a3523c94a702156bee2a5eebfed93730a1aba23a6020add7",
        "clocks":
            "d42833899837fc3919390b7d17ebad49a6b73041080f69d298f56ac80588841c",
    },
    "hog-storm": {
        "trace":
            "2452d6f664f6d99241dc27ca358464817fd434adb195123af7914a427d4731c1",
        "perf":
            "751b81928a755514af214eda099349ed0d0b11a83d981e0f590c83aef3bc4443",
        "consoles":
            "2da9775f5e317bc90f642d37b705bde6361e911367babb79054d8a5a5984ce35",
        "clocks":
            "01f8630a1bf9ad3118c6c87237c3b79e352933505ec4a40c5573befd022a6241",
    },
    "lazy-hog": {
        "trace":
            "42050334648b514d8b76d134ffe6c81f345b58f55ca179eaad54cee9bcc980d2",
        "perf":
            "01e5429e840e76c10e7f99446e23989434b1598a8f525e36cde37608ba9ca566",
        "consoles":
            "ccd86817d90b9dfd893f9a67982f579ba192f9d5e655a28cfcc62bdd7b191bdd",
        "clocks":
            "09844ac3fb3a9205fa9bf5fd4c0b34c30ce9a6eca33cdca73555ea67de36bb34",
    },
    "ledger-restage": {
        "trace":
            "8cd09b9da6f704f170ba3ca4cf6814873065b83fd2c4e52cb09cf82431a4fb3e",
        "perf":
            "d6c97c7930f2980129516e3e75a68343bb4d3117fe2cc6eafc3476cb486ac71a",
        "consoles":
            "de13f19eba2329d247f76309043321c428c917a63529b9c91b4304ca8eb8773b",
        "clocks":
            "196cabd1f1fd9e509796d34f9f09d2372c2796fb21d31d882cfa0f036c429b5b",
    },
    "loadd-delayed-reports": {
        "trace":
            "17a288f019b3126a7e4688959d93a57ad96f9305d49a38bffb2aa1c850507925",
        "perf":
            "9f8674b8be809e3aee15a520f3ab3f466b1398fa47838c40c901533dcac627a1",
        "consoles":
            "2cf33d1c206efa4eb0cab4052a3ae2a922b6f36ef135eb377bda0b79ec1f307a",
        "clocks":
            "4903083a2254ba4596adb8348a68f5d43d159a5f9946b477b39aa049eb7451de",
    },
    "loadd-host-crash": {
        "trace":
            "06cc56d3830ce648343e3c280b7c2941631946c9e1f0272a5d9a6dbd9d9ef40b",
        "perf":
            "d1116c81e235709c33d7e1c36cc94db2aea53d80d940c07b034def057ff047ff",
        "consoles":
            "39623ca591e0c65aedf53f332da7505aec1330ee8d66b88be88fcd96b3d6ca57",
        "clocks":
            "e86f188dfae2a5be853b73e035e48fa8f9f86572f1d2c7a7a048b84535c35802",
    },
    "loadd-ledger-move": {
        "trace":
            "8a162964b8a9be19c89b49d56add7c3caa9f30073c76fa6b5fce9ed334108308",
        "perf":
            "15be4c4ade87322f1508358f4ca84a5b4e9630108ac8ef130bd1389861f0a742",
        "consoles":
            "f47f16327e2c8312b96adfd1fed4c2c70648cd6d3c30d42005fc2eea28de1a28",
        "clocks":
            "1989090f17e33fad7bd29f94c91e1d39f6acdba30b8e158104d48158f7d82a9f",
    },
    "loadd-partition-heal": {
        "trace":
            "beebc12698977eae57d31c85ca51a9f4b14b55066cb8f2732fc641b3fffa0d07",
        "perf":
            "3cb4b69cf2c82ecc6d834a1a39e56449c70a66e62d536ae01fe8183460ba2d54",
        "consoles":
            "326b86ebd17a56eb4394cb14bc504086e1fbdc719f3a3249cbc80bdaf0ae2c66",
        "clocks":
            "1dc059307a29dbc0fc9c237a8cfcd9d80bfba70c2bd6b926feceae3181952762",
    },
    "loadd-report-loss": {
        "trace":
            "ba6d86a2b8a099260768fdb377d2730cbf4a6df6977b752503db3ebee9188fe5",
        "perf":
            "16b1c048711c541c593950a4d0321acfb38ea35412374690d8ff6b13c8665c09",
        "consoles":
            "39623ca591e0c65aedf53f332da7505aec1330ee8d66b88be88fcd96b3d6ca57",
        "clocks":
            "f67c6ab47689089e446d1365d781fdf5cddd9533f7fcf44c4834e84903606901",
    },
    "migrate-d-ledger": {
        "trace":
            "431d58f88739405abe9feae8ca3c341392e293c37e9ee0a4ca115a8f58b35eb9",
        "perf":
            "1bceb1a0f9f3d186f613d4add334b7be390d67346b56c5d59893584ad503841e",
        "consoles":
            "f868adc9e5ba8fb94bd557e7efb0469742eed7164a25c95319e14ef9748dea01",
        "clocks":
            "adfc99103eb6f5fca22680b3450fcd651e060b1f7051c244eb14b1d3ab881a49",
    },
    "statd-report-loss": {
        "trace":
            "0b1ff17c7720cd2bfc8f7d3ffb8c466b38e2b019c9f0eaac62b81e198f275f73",
        "perf":
            "df58f163c320d00ede6477f66774a3e3aa534de9f45ce228d31850441788a727",
        "consoles":
            "39623ca591e0c65aedf53f332da7505aec1330ee8d66b88be88fcd96b3d6ca57",
        "clocks":
            "19ddf537a3d6689167ae96b8bb9e58c914be020258a0236e31ee678988559120",
    },
    "statd-server-crash": {
        "trace":
            "069afe88ee96e47fb51efe69f7f7d657c9d09b6c3e1cee3ffe57f676649f5114",
        "perf":
            "e75c999493bd4cebaa06b5fbce89e693ab0b06bd38dfa2bf086f2ad75da6fb0f",
        "consoles":
            "39623ca591e0c65aedf53f332da7505aec1330ee8d66b88be88fcd96b3d6ca57",
        "clocks":
            "96c216a89bb56be904d1d624d0262371e3c45012b10a1e1c51f18eaa1119d672",
    },
    "statd-spool-delay": {
        "trace":
            "773641e9dc42c92fd4def1eafa88adb3e50da1e902adb38b5f7836a4e6e61678",
        "perf":
            "3545ccc3d7a878981bf407612a31520080cda6d2118c73136d0e307416906468",
        "consoles":
            "39623ca591e0c65aedf53f332da7505aec1330ee8d66b88be88fcd96b3d6ca57",
        "clocks":
            "4b855b25e861718f325d96ad9435686ab8ecf05e461c8ddefaef8a7bfa8a74d2",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_recorded_fingerprint(name):
    assert fingerprint(SCENARIOS[name]()) == GOLDEN[name]



def test_hog_storm_vm_counters():
    """The VM counters behind hog-storm's ``perf`` digest, spelled out.
    Every quantum ends in compiled code: a budget below a trace's entry
    block runs a tail trace, charged on its first use like any other."""
    perf = _hog_storm().cluster.perf
    assert {name: getattr(perf, name) for name in (
        "vm_instructions", "blocks_compiled", "traces_linked",
        "instructions_decoded", "reg_spills")} == {
        "vm_instructions": 1926240, "blocks_compiled": 63,
        "traces_linked": 48, "instructions_decoded": 334,
        "reg_spills": 5056}
    assert round(perf.decode_hit_rate(), 6) == 0.999827
