"""Golden fingerprints: the daemon pipelines replay byte for byte.

The other determinism tests compare the scan engine against the fast
engine inside one checkout.  This file pins runs against *recorded*
digests instead, so a refactor of the daemons' shared plumbing (report
framing, restart-ack polling, counter bookkeeping) that shifts a
single syscall, wire byte, counter or virtual microsecond fails here.

Each scenario runs on the fast engine with every trace category
enabled and is reduced to four sha-256 digests:

* ``trace`` — the tracer's JSONL render;
* ``perf`` — ``perf.snapshot()`` as sorted-key JSON;
* ``consoles`` — every host's console, in host order;
* ``clocks`` — every host's virtual clock, in host order.

The digests were recorded from :func:`fingerprint` before the daemons'
plumbing was shared, and are never edited: a mismatch means the
simulation changed, not that the table needs refreshing.  A new
scenario gets its digests recorded the same way, on the commit before
the change it guards.
"""

import hashlib
import json

import pytest

from repro.core.api import MigrationSite
from repro.costmodel import CostModel
from repro.obs.tracer import Tracer
from tests import test_faults, test_migledger_sweep as sweep
from tests.conftest import start_counter
from tests.test_recovery import FAST_KNOBS, _job_meta

ENGINE = "fast"


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
    return lambda: test_faults._loadd_scenario(ENGINE, spec,
                                               **kwargs)[0]


def _statd(spec, **kwargs):
    return lambda: test_faults._statd_scenario(ENGINE, spec,
                                               **kwargs)[0]


def _migrate_daemon_ledger():
    """One ``migrate -d`` with the ledger on, no faults."""
    site = sweep._site(ENGINE)
    victim = sweep._start_victim(site)
    handle = site.migrate(victim.pid, "brick", "schooner",
                          typed_on="tanker", use_daemon=True,
                          wait_resumed=False)
    site.run_until(lambda: handle.exited, max_steps=120_000_000)
    sweep._drain(site, 3.0)
    return site


def _ledger_restage():
    """The orchestrator dies at the DUMPED advance; ``recoveryd -m``
    restages the job from the chunk-store archive."""
    site = sweep._site(ENGINE)
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
    site = MigrationSite(costs=CostModel(**FAST_KNOBS), engine=ENGINE)
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
    "migrate-d-ledger": _migrate_daemon_ledger,
    "ledger-restage": _ledger_restage,
    "ckptd-recover": _ckptd_recover,
}

GOLDEN = {
    "ckptd-recover": {
        "trace":
            "cb20e52b9f5fbcedba7f4e755907fe3640cf84c0a3d8fb137df98790fae62b5c",
        "perf":
            "f189ac0d68d82a23260e9e8b68bbe9067614476cf06a3920e9aec71884b77446",
        "consoles":
            "1ac3c099a1e7dba1a3523c94a702156bee2a5eebfed93730a1aba23a6020add7",
        "clocks":
            "0d35c82371803b315e26d074c19eeef059e2a151b095d43af751c95f475bf752",
    },
    "ledger-restage": {
        "trace":
            "1162199eb12a5896e6c79c51226fb8180f9e751deab5cfdc795d4f22837ead52",
        "perf":
            "31a89bded8c4e7216e15ae14177bd0be59cec6fb0e41254d4531fa8c608d8417",
        "consoles":
            "de13f19eba2329d247f76309043321c428c917a63529b9c91b4304ca8eb8773b",
        "clocks":
            "196cabd1f1fd9e509796d34f9f09d2372c2796fb21d31d882cfa0f036c429b5b",
    },
    "loadd-delayed-reports": {
        "trace":
            "345948d331375332efe82147cc6b3169d0e9931f4719dc0d6c61da27954f0987",
        "perf":
            "7339ef4aaba003396ae8decdd224b5c74a3a8716d0b9a5e902538e0436c153ea",
        "consoles":
            "2cf33d1c206efa4eb0cab4052a3ae2a922b6f36ef135eb377bda0b79ec1f307a",
        "clocks":
            "c2a47e9c617ba0c1c20d03df702961409d3cfcc01cad85fdeb519ecfdb510f03",
    },
    "loadd-host-crash": {
        "trace":
            "06cc56d3830ce648343e3c280b7c2941631946c9e1f0272a5d9a6dbd9d9ef40b",
        "perf":
            "2ac8affff03f36e55cd7c4e2c289e49cc621ade1acb5a94f0e392fa461b10004",
        "consoles":
            "39623ca591e0c65aedf53f332da7505aec1330ee8d66b88be88fcd96b3d6ca57",
        "clocks":
            "e86f188dfae2a5be853b73e035e48fa8f9f86572f1d2c7a7a048b84535c35802",
    },
    "loadd-partition-heal": {
        "trace":
            "8f78d993ac14b26589d0062b337f55486658cfc2d2a0eaf83705b85cadbbd829",
        "perf":
            "7f24572c6c40b38d7164719607fca5ef5d496f24db1893c96c00fe5e4e044a2d",
        "consoles":
            "0554ea4ff6efd33341e3097b6140f151ecf7e61ea1aa9c4ba2e20d033c2d135b",
        "clocks":
            "2fa803d2e091df918095bbcd2e6d45eaf50e1fa6a45a4b7c90f3319559b2f6b2",
    },
    "loadd-report-loss": {
        "trace":
            "ba6d86a2b8a099260768fdb377d2730cbf4a6df6977b752503db3ebee9188fe5",
        "perf":
            "83600df548e3fa6529362cab8d9cfc964318cee462bd028d4cf6027755969037",
        "consoles":
            "39623ca591e0c65aedf53f332da7505aec1330ee8d66b88be88fcd96b3d6ca57",
        "clocks":
            "f67c6ab47689089e446d1365d781fdf5cddd9533f7fcf44c4834e84903606901",
    },
    "migrate-d-ledger": {
        "trace":
            "431d58f88739405abe9feae8ca3c341392e293c37e9ee0a4ca115a8f58b35eb9",
        "perf":
            "a3a80a8af0a61e8ad4491070cf4cec8d3ba74f320a178b280d5da79d7fc34df4",
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

