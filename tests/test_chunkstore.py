"""Incremental content-addressed dumps and lazy copy-on-reference restart.

Covers the chunk store itself, the chunked dump formats, the
dirty-page baseline reuse that makes re-migrations cheap, the lazy
fault-in path, and the failure modes (corrupt manifest at dump time,
missing chunk at restart).  Every cluster-level scenario runs under
``scan_checked``, so the driver steps exactly as the reference scan
would — incremental mode may never depend on how the cluster is
driven.
"""

import random

import pytest

from repro.costmodel import CostModel
from repro.core.api import MigrationSite
from repro.core.formats import (ChunkManifest, StackInfo,
                                pack_chunked_aout, unpack_chunked_aout,
                                stack_is_chunked)
from repro.errors import UnixError
from repro.kernel.cred import Credentials
from repro.kernel.signals import SigState
from repro.machine import Cluster
from repro.programs.exitcodes import EX_RESTPROC
from repro.store import ChunkStore, DIGEST_BYTES, chunk_digest
from repro.vm.aout import AOutHeader, AOUT_FLAG_CHUNKED
from repro.vm.image import (ProcessImage, Registers, SegmentationFault,
                            PAGE_BYTES)

from tests.conftest import scan_checked, start_counter


# -- manifest / format round-trips ------------------------------------------


def _random_manifest(rng, length=None):
    chunk_bytes = rng.choice([1, 7, 64, 1024, 4096])
    if length is None:
        length = rng.choice([0, 1, chunk_bytes - 1 or 1, chunk_bytes,
                             chunk_bytes + 1, 10 * chunk_bytes + 3])
    count = -(-length // chunk_bytes)
    digests = [bytes(rng.randrange(256) for __ in range(DIGEST_BYTES))
               for __ in range(count)]
    return ChunkManifest(chunk_bytes, length, digests)


def test_manifest_roundtrip_property():
    rng = random.Random(1234)
    for __ in range(50):
        manifest = _random_manifest(rng)
        assert ChunkManifest.unpack(manifest.pack()) == manifest
        assert manifest.packed_size() == len(manifest.pack())
        total = sum(manifest.chunk_size(i)
                    for i in range(len(manifest.digests)))
        assert total == manifest.length


def test_chunked_aout_roundtrip():
    rng = random.Random(99)
    for __ in range(20):
        text_man = _random_manifest(rng)
        data_man = _random_manifest(rng)
        header = AOutHeader(1, text_man.length, data_man.length, 0,
                            entry=4096)
        blob = pack_chunked_aout(header, text_man, data_man)
        got_header, got_text, got_data = unpack_chunked_aout(blob)
        assert got_header.flags & AOUT_FLAG_CHUNKED
        assert (got_text, got_data) == (text_man, data_man)
        assert (got_header.text_size, got_header.data_size) == \
            (text_man.length, data_man.length)


def test_chunked_stack_info_roundtrip():
    rng = random.Random(7)
    manifest = _random_manifest(rng, length=3000)
    info = StackInfo(Credentials(100, 100), b"",
                     Registers(), SigState(),
                     stack_manifest=manifest)
    assert info.stack_size == 3000
    blob = info.pack()
    assert stack_is_chunked(blob)
    back = StackInfo.unpack(blob)
    assert back.stack_manifest == manifest
    assert back.stack == b"" and back.stack_size == 3000
    # peek_header serves both layouts identically
    cred, size = StackInfo.peek_header(blob)
    assert (cred.uid, size) == (100, 3000)


def test_manifest_rejects_corruption():
    manifest = _random_manifest(random.Random(3), length=5000)
    blob = manifest.pack()
    with pytest.raises(UnixError):  # bad magic
        ChunkManifest.unpack(b"\xff\xff" + blob[2:])
    with pytest.raises(UnixError):  # count / length mismatch
        doctored = bytearray(blob)
        doctored[10] ^= 0x01  # count field
        ChunkManifest.unpack(bytes(doctored))
    with pytest.raises(UnixError):  # truncated digest list
        ChunkManifest.unpack(blob[:-1])
    with pytest.raises(UnixError):  # zero chunk size
        ChunkManifest(0, 10, [])
    with pytest.raises(UnixError):  # digest width
        ChunkManifest(1024, 10, [b"xx"])
    with pytest.raises(UnixError):  # inline stack AND manifest
        StackInfo(Credentials(1, 1), b"abc", Registers(), SigState(),
                  stack_manifest=manifest)


# -- the store itself -------------------------------------------------------


def test_chunkstore_put_get_dedup_and_remote_fetch():
    cluster = Cluster()
    brick = cluster.add_machine("brick")
    schooner = cluster.add_machine("schooner")
    store = cluster.chunk_store
    blob = bytes(range(200))
    digest = store.digest(brick.kernel, blob)
    assert digest == chunk_digest(blob)

    assert store.put(brick.kernel, digest, blob) is True
    assert store.put(brick.kernel, digest, blob) is False  # dedup
    assert cluster.perf.chunk_dedup_hits == 1
    assert store.holders(digest) == {"brick"}

    # a local get does not cross the network
    assert store.get(brick.kernel, digest) == blob
    assert cluster.perf.chunk_remote_fetches == 0
    # a remote get does, and caches write-behind
    assert store.get(schooner.kernel, digest) == blob
    assert cluster.perf.chunk_remote_fetches == 1
    assert store.holders(digest) == {"brick", "schooner"}
    assert store.get(schooner.kernel, digest) == blob
    assert cluster.perf.chunk_remote_fetches == 1  # now local

    with pytest.raises(UnixError):
        store.get(brick.kernel, b"\x00" * DIGEST_BYTES)  # missing


# -- lazy copy-on-reference at the image level ------------------------------


def test_image_lazy_chunks_fault_in_on_touch():
    image = ProcessImage()
    base = image.data_base
    fetched = []

    def fetch(digest, size):
        fetched.append(digest)
        return digest * (size // len(digest))

    drained = []
    image.add_lazy_chunks(
        [(base, PAGE_BYTES, b"A" * 8), (base + PAGE_BYTES, PAGE_BYTES,
                                        b"B" * 8)],
        fetch=fetch, on_drained=lambda: drained.append(True))
    assert image._lazy is not None and not fetched
    # touching the second page pulls only its chunk
    assert image.read_u8(base + PAGE_BYTES + 5) == ord("B")
    assert fetched == [b"B" * 8] and not drained
    # the first touch of the remaining page drains the image
    assert image.read_u8(base) == ord("A")
    assert image._lazy is None and drained == [True]
    # a lazy fill is not a guest store: pages stay clean
    assert not any(image.dirty_pages)


def test_image_lazy_fetch_failure_is_a_segfault():
    image = ProcessImage()
    base = image.data_base

    def fetch(digest, size):
        raise UnixError(5, "gone")

    image.add_lazy_chunks([(base, 64, b"x" * 8)], fetch=fetch)
    with pytest.raises(SegmentationFault):
        image.read_u8(base)


def test_image_copy_drains_pending_chunks():
    image = ProcessImage()
    base = image.data_base
    image.add_lazy_chunks([(base, 16, b"y" * 8)],
                          fetch=lambda d, n: b"z" * n)
    clone = image.copy()
    assert clone._lazy is None and image._lazy is None
    assert clone.read_bytes(base, 16) == b"z" * 16


# -- cluster scenarios, checked against the reference scan -----------------


def _incremental_site(lazy=False, faults=None):
    costs = CostModel().with_overrides(incremental_dumps=True,
                                       lazy_restart=lazy)
    site = MigrationSite(costs, faults=faults)
    site.run_quiet()
    return site


def _bounce(lazy):
    """Migrate brick -> schooner, then straight back, typing at each
    destination so the process keeps its terminal across both hops."""
    site = _incremental_site(lazy=lazy)
    site.cluster.tracer.enable("dump", "restart", "chunk")
    handle = start_counter(site)
    mh = site.migrate(handle.pid, "brick", "schooner",
                      typed_on="schooner", uid=100)
    assert mh.exit_status == 0
    moved = site.find_restarted("schooner")
    assert moved is not None and moved.is_vm()
    perf = site.cluster.perf
    first = perf.chunk_bytes_written
    mh2 = site.migrate(moved.pid, "schooner", "brick",
                       typed_on="brick", uid=100)
    assert mh2.exit_status == 0
    assert site.find_restarted("brick") is not None
    second = perf.chunk_bytes_written - first
    # registers, static data and stack all survived two hops
    site.type_at("brick", "one\n")
    site.type_at("brick", "two\n")
    site.run_until(lambda: "r=3 s=3 k=3" in site.console("brick"))
    return site, first, second


def _fingerprint(site):
    perf = site.cluster.perf
    return (site.cluster.wall_time_us(), perf.chunk_puts,
            perf.chunk_dedup_hits, perf.chunks_clean_skipped,
            perf.chunk_gets, perf.chunk_remote_fetches,
            perf.chunk_bytes_written, perf.chunk_bytes_fetched,
            perf.lazy_faults)


def test_remigration_dedup_and_engine_identity():
    """An immediate re-migration re-writes (almost) nothing.

    Between the restart and the second dump the counter executes no
    new input, so every page matches the baseline the restart
    installed: the second dump skips all of its chunks and charges
    zero chunk-store bytes — far beyond the >= 5x requirement.  (With
    intervening execution the saving is bounded by how many pages the
    program dirties; the latency benchmark measures that shape on a
    data-heavy image.)
    """
    site, first, second = scan_checked(lambda: _bounce(lazy=False))
    assert first > 0
    assert second * 5 <= first
    assert site.cluster.perf.chunks_clean_skipped > 0


def test_lazy_restart_faults_in_and_engine_identity():
    site, __, __ = scan_checked(lambda: _bounce(lazy=True))
    assert site.cluster.perf.lazy_faults > 0
    # the deferred-transfer span closed once the last chunk landed
    spans = [e for e in site.cluster.tracer.events
             if e["cat"] == "restart" and e["name"] == "fault_in"]
    assert any(e.get("span") == "E" and e.get("ok") for e in spans)


def test_corrupt_chunk_manifest_fails_dump_and_victim_survives():
    """_verify_dump re-parses what was written: a corrupted chunked
    a.out (its manifests) is caught, the partial dump is removed, and
    the victim keeps running."""
    def run():
        site = _incremental_site(faults="dump.write.aout corrupt n=1")
        handle = start_counter(site)
        status = site.dumpproc("brick", handle.pid, check=False)
        assert status != 0
        assert not handle.exited  # the dump failed, the victim lives
        kernel = site.machine("brick").kernel
        for path in ("/usr/tmp/a.out%d" % handle.pid,
                     "/usr/tmp/stack%d" % handle.pid):
            with pytest.raises(UnixError):
                kernel.kread_file(handle.proc, path)
        assert site.cluster.faults.fired
        # the typed line still reaches the living process
        site.type_at("brick", "one\n")
        site.run_until(lambda: "r=2" in site.console("brick"))
    scan_checked(run)


def test_missing_chunk_restart_fails_cleanly():
    """A store.get failure at restart exits EX_RESTPROC without a
    half-restored process; once the fault rule is spent, the kept
    dump restarts fine and the store is still consistent."""
    def run():
        site = _incremental_site(faults="store.get fail n=1 errno=EIO")
        handle = start_counter(site)
        site.dumpproc("brick", handle.pid)
        rh = site.machine("schooner").spawn(
            "/bin/restart",
            ["restart", "-p", str(handle.pid), "-h", "brick", "-k"],
            uid=100, cwd="/tmp")
        site.run_until(lambda: rh.exited or rh.proc.is_vm())
        assert rh.exited and rh.exit_status == EX_RESTPROC
        assert site.find_restarted("schooner") is None
        rh2 = site.restart("schooner", handle.pid, from_host="brick",
                           uid=100)
        assert rh2.proc.is_vm()
    scan_checked(run)


# -- lazy images run compiled traces ----------------------------------------


def _bighog_site():
    """A lazy-restart site with ``bighog``: the cpuhog carrying a 64 KB
    buffer it never touches, so its chunks stay pending for good."""
    from repro.programs.guest import cpuhog
    from repro.programs.guest.libasm import program
    site = _incremental_site(lazy=True)
    aout = program(cpuhog.BODY,
                   cpuhog.DATA + "bigbuf: .space 65536\n").aout
    for name in ("brick", "schooner"):
        site.machine(name).install_aout("bighog", aout)
    return site


def test_lazy_restart_runs_compiled_traces(monkeypatch, interpreter,
                                          fresh_code_caches):
    """Regression guard: a lazily restarted image must not fall back to
    interpreter-only execution while chunks are pending.  The
    lazy-variant cache entry holds compiled traces and the
    hog's instructions run through them; virtual time matches an
    interpreter-only run, which compiles nothing."""
    from repro.programs.guest.cpuhog import expected_checksum
    from repro.vm import cpu as cpu_module
    from repro.vm.predecode import INTERP
    compile_trace = cpu_module.compile_trace
    traced = []  # instructions retired inside lazy-variant traces

    def counting(model, image, entry, lazy=False, tail=None):
        fn, ndecoded, nlinked = compile_trace(model, image, entry,
                                              lazy=lazy, tail=tail)
        if not lazy or fn is INTERP:
            return fn, ndecoded, nlinked

        def trace(*args):
            result = fn(*args)
            traced.append(result[0])
            return result
        trace.__dict__.update(fn.__dict__)
        return trace, ndecoded, nlinked

    monkeypatch.setattr(cpu_module, "compile_trace", counting)
    def run():
        site = _bighog_site()
        handle = site.start("brick", "/bin/bighog", ["bighog", "60000"])
        site.run(until_us=site.cluster.wall_time_us() + 100_000)
        site.dumpproc("brick", handle.pid)
        restart = site.restart("schooner", handle.pid, from_host="brick")
        image = restart.proc.image.image
        perf = site.cluster.perf
        before = perf.vm_instructions
        del traced[:]
        site.run(until_us=site.cluster.wall_time_us() + 200_000)
        ran = perf.vm_instructions - before
        assert image._lazy is not None and not restart.exited
        if site.machine("schooner").cpu.use_predecode:
            __, lazy, blocks, __ = image._decode_cache
            assert lazy
            assert any(block is not INTERP for block in blocks.values())
            assert sum(traced) >= 0.9 * ran > 0
        else:
            assert not traced
        site.run_until(lambda: restart.exited)
        assert ("checksum=%d" % expected_checksum(60000)) \
            in site.console("schooner")
        return _fingerprint(site)
    assert interpreter(run) == scan_checked(run)


# -- the sysctl0 polling knobs ----------------------------------------------


def test_dump_poll_interval_knob_drives_real_time():
    """dumpproc reads its poll interval from the cost model; a
    shorter sleep shows up directly in migration real time."""
    from repro.bench.figures import _kill_via_dumpproc
    slow_real, __ = _kill_via_dumpproc(poll_sleep=1)
    fast_real, __ = _kill_via_dumpproc(poll_sleep=0.05)
    assert fast_real < slow_real


def test_defaults_keep_chunk_machinery_cold():
    """With the knobs off nothing chunk-related runs at all."""
    site = MigrationSite()
    site.run_quiet()
    handle = start_counter(site)
    mh = site.migrate(handle.pid, "brick", "schooner",
                      typed_on="schooner", uid=100)
    assert mh.exit_status == 0
    perf = site.cluster.perf
    assert perf.chunk_puts == perf.chunk_gets == 0
    assert perf.chunk_bytes_written == perf.lazy_faults == 0
    assert len(site.cluster.chunk_store) == 0
