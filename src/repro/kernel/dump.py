"""The ``SIGDUMP`` dump writer (and the ``SIGQUIT`` core writer).

"Implementing the SIGDUMP signal is simply a matter of dumping the
appropriate data from the kernel structures onto disk.  The code is
similar to that of ... SIGQUIT, which causes a process to terminate
dumping a subset of the information we dump for our new signal."

The dump runs in the context of the process being dumped — it is the
*victim* that spends the CPU and I/O time writing the three files,
which is why ``dumpproc`` must wait (sleeping a second at a time) for
``a.outXXXXX`` to appear: "it has to wait until the kernel switches
its context to that of the process being dumped".
"""

from repro.errors import UnixError, EIO
from repro.fs.paths import joinpath
from repro.kernel.constants import DUMPDIR, NOFILE
from repro.kernel.filetable import FPIPE, FSOCKET
from repro.vm.aout import build_aout
from repro.vm.image import PAGE_BYTES, PAGE_SHIFT


def _baseline_entry(base, manifest):
    """The ``chunk_baseline`` record a manifest leaves on an image."""
    return {"base": base, "length": manifest.length,
            "chunk_bytes": manifest.chunk_bytes,
            "digests": manifest.digests}


def lazy_records(manifest, base):
    """``(start, size, digest)`` triples for copy-on-reference fill."""
    return [(base + i * manifest.chunk_bytes, manifest.chunk_size(i),
             digest) for i, digest in enumerate(manifest.digests)]


class DumpSupport:
    """Mixin: process dumping (self is the Kernel)."""

    def dump_process(self, proc):
        """Write the three restart files for ``proc``.

        Returns True on success.  Native system programs have no
        machine image to dump; for them the signal degenerates to a
        plain terminate (and dumpproc will time out waiting for the
        a.out file), which is logged.
        """
        from repro.core.formats import dump_file_names, migration_id
        # sys_dump_ledger arms exactly one dump: consume the arming up
        # front, success or failure, so a later plain dump of a
        # surviving process can never re-archive into a stale
        # (possibly already reaped) record directory
        arming = getattr(proc, "ledger_dir", None)
        proc.ledger_dir = None
        if not proc.is_vm():
            self.log("SIGDUMP: pid %d (%s) is not dumpable"
                     % (proc.pid, proc.command))
            return False
        image = proc.image.image
        aout_path, files_path, stack_path = dump_file_names(proc.pid)
        # a migration is keyed by where the dump was taken
        mig = migration_id(self.hostname, proc.pid)
        self.tracer.span_begin("dump", "dump", mig, self.machine,
                               pid=proc.pid)

        incremental = self.costs.incremental_dumps
        text_man = data_man = stack_man = None
        written = []
        try:
            if incremental:
                aout_blob, text_man, data_man = \
                    self._build_chunked_aout(proc, image)
            else:
                aout_blob = self._build_aout_dump(image)
            files_blob = self._build_files_info(proc).pack()
            if incremental:
                stack_info, stack_man = \
                    self._build_chunked_stack_info(proc)
                stack_blob = stack_info.pack()
            else:
                stack_blob = self._build_stack_info(proc).pack()
            # formatting kernel structures into each file costs CPU
            self.charge(3 * self.costs.dump_pack_us, proc=proc)
            inodes = {}
            for site, path, blob, mode in (
                    ("dump.write.aout", aout_path, aout_blob, 0o700),
                    ("dump.write.files", files_path, files_blob, 0o600),
                    ("dump.write.stack", stack_path, stack_blob, 0o600)):
                self.fault_check(site, path)
                blob = self.fault_filter(site, blob, path)
                inodes[path] = self.kwrite_file(proc, path, blob,
                                                mode=mode)
                written.append(path)
            self._verify_dump(inodes[aout_path], inodes[files_path],
                              inodes[stack_path])
            if arming:
                # a ledgered dump (dumpproc -L) is also archived
                # through the chunk store, inside the same
                # all-or-nothing window: no archive, no dump
                self._archive_dump(proc, arming,
                                   (aout_blob, files_blob, stack_blob))
        except UnixError as err:
            # all-or-nothing: a partial dump is worse than none
            for path in written:
                self._kunlink_quiet(proc, path)
            self.log("SIGDUMP: dump of pid %d failed: %s"
                     % (proc.pid, err))
            self.tracer.span_end("dump", "dump", mig, self.machine,
                                 ok=False, pid=proc.pid)
            return False
        if incremental:
            # the dump is the image's new baseline: a further re-dump
            # only pays for pages dirtied from here on
            image.chunk_baseline = {
                "text": _baseline_entry(image.text_base, text_man),
                "data": _baseline_entry(image.data_base, data_man),
                "stack": _baseline_entry(image.regs.sp, stack_man),
            }
            image.clear_dirty()
        proc.dumped = True
        self.machine.cluster.perf.metrics.inc("dumps",
                                              host=self.hostname)
        self.tracer.span_end("dump", "dump", mig, self.machine,
                             ok=True, pid=proc.pid)
        self.log("SIGDUMP: pid %d dumped to %s/{a.out,files,stack}%d"
                 % (proc.pid, DUMPDIR, proc.pid))
        return True

    def _verify_dump(self, aout_inode, files_inode, stack_inode):
        """Read back the three just-written inodes and parse them.

        Catches write-path corruption while the victim still exists,
        so the dump can fail (and the victim survive) rather than
        shipping a dump nobody can restart.  The blocks just written
        are still in the buffer cache, so the inspection is pure
        in-memory work — it charges nothing, keeping the calibrated
        SIGDUMP timings (Figure 2) untouched.  Parsing goes through
        ``memoryview``s of the inode data: the check never duplicates
        the (potentially segment-sized) file contents, it only copies
        the small typed fields it actually inspects.
        """
        from repro.core.formats import (FilesInfo, StackInfo,
                                        unpack_chunked_aout)
        from repro.vm.aout import AOutHeader, AOUT_FLAG_CHUNKED, check_length
        views = [memoryview(aout_inode.data),
                 memoryview(files_inode.data),
                 memoryview(stack_inode.data)]
        try:
            aout_view, files_view, stack_view = views
            header = AOutHeader.unpack(aout_view)
            if header.flags & AOUT_FLAG_CHUNKED:
                # validates both manifests against the header sizes
                unpack_chunked_aout(aout_view)
            else:
                check_length(header, len(aout_view))
            FilesInfo.unpack(files_view)
            StackInfo.unpack(stack_view)
        finally:
            # exported views of a bytearray block later resizes (e.g.
            # a truncating rewrite of the same dump file) — drop them
            # deterministically, not when the GC gets around to it
            for view in views:
                view.release()

    def _archive_dump(self, proc, arming, blobs):
        """Archive the three dump blobs into a ledger record directory.

        Each blob is chunked into the cluster chunk store (which
        survives host crashes *and* reboots) and described by a
        :class:`~repro.core.formats.ChunkManifest` file in ``recdir``
        on the file server; the ``dump.ok`` commit marker is written
        strictly last, so a record directory either holds a complete,
        restorable archive or no usable one at all.  Any failure
        unlinks the partial archive and propagates — the surrounding
        all-or-nothing dump then fails too and the victim survives.
        ``arming`` is ``(recdir, cred)`` from dump_ledger(): the files
        are written under the armer's credentials, not the victim's.
        """
        recdir, cred = arming
        from repro.core.formats import (ChunkManifest, OK_NAME,
                                        ledger_archive_names)
        store = self.machine.cluster.chunk_store
        chunk_bytes = max(1, int(self.costs.dump_chunk_bytes))
        written = []
        victim_cred, proc.user.cred = proc.user.cred, cred
        try:
            self._archive_record_check(proc, recdir)
            for path, blob in zip(ledger_archive_names(recdir), blobs):
                digests = []
                for start in range(0, len(blob), chunk_bytes):
                    chunk = blob[start:start + chunk_bytes]
                    digest = store.digest(self, chunk)
                    store.put(self, digest, chunk)
                    digests.append(digest)
                manifest = ChunkManifest(chunk_bytes, len(blob), digests)
                self.fault_check("ledger.archive", path)
                self.charge(self.costs.dump_pack_us, proc=proc)
                self.kwrite_file(proc, path, manifest.pack(), mode=0o644)
                written.append(path)
            # the commit marker goes last, and only if nobody reaped
            # the record while we archived
            self._archive_record_check(proc, recdir)
            ok_path = "%s/%s" % (recdir, OK_NAME)
            self.fault_check("ledger.archive", ok_path)
            self.kwrite_file(proc, ok_path, b"ok\n", mode=0o644)
        except UnixError:
            for path in written:
                self._kunlink_quiet(proc, path)
            raise
        finally:
            proc.user.cred = victim_cred
        self.machine.cluster.perf.ml_archives += 1
        if self.tracer.enabled:
            self.tracer.emit("dump", "archive", self.machine,
                             pid=proc.pid)

    def _archive_record_check(self, proc, recdir):
        """An archive is only meaningful under a live ledger record.

        A recovery sweep that aborted the intent has reaped the
        record directory; committing an archive into it afterwards
        would leak the manifests with nobody left to restart the
        job.  Checked before the first manifest and again before the
        ``dump.ok`` commit marker — failing here fails the whole
        all-or-nothing dump, so the victim survives at home instead.
        """
        from repro.core.formats import REC_NAME
        from repro.errors import ENOENT
        try:
            self.namei(proc, "%s/%s" % (recdir, REC_NAME))
        except UnixError:
            raise UnixError(ENOENT,
                            "ledger record gone: %s" % recdir)

    def _kunlink_quiet(self, proc, path):
        """Best-effort unlink during failure cleanup."""
        try:
            self.sys_unlink(proc, path)
        except UnixError:
            pass

    def _build_aout_dump(self, image):
        """An executable from the live text and data segments.

        The result "can be executed as an ordinary program ... similar
        to running the original program from the beginning, except
        that all static variables will be initialised to the values
        that they had when the process was killed" — the free undump
        utility.  The entry point is therefore the *original* one.
        """
        text = image.text_bytes()
        data = image.data_bytes()
        self.charge(self.costs.copy_byte_us * (len(text) + len(data)))
        return build_aout(image.machine_id, text, data, bss_size=0,
                          entry=image.entry,
                          text_base=image.text_base)

    def _build_files_info(self, proc):
        from repro.core.formats import (FdEntry, FilesInfo, FD_FILE,
                                        FD_SOCKET, FD_SOCKET_BOUND,
                                        FD_UNUSED)
        entries = []
        for fd in range(NOFILE):
            open_file = proc.user.ofile[fd]
            if open_file is None:
                entries.append(FdEntry(FD_UNUSED))
            elif open_file.ftype in (FSOCKET, FPIPE):
                sock = open_file.socket
                if (self.costs.migrate_listening_sockets
                        and sock is not None
                        and sock.bound_port is not None):
                    # section 9 extension: a service endpoint can be
                    # re-established on the destination
                    entries.append(FdEntry(
                        FD_SOCKET_BOUND, port=sock.bound_port,
                        listening=sock.listening))
                else:
                    # "no extra information is kept in the case of a
                    # socket"
                    entries.append(FdEntry(FD_SOCKET))
            else:
                entries.append(FdEntry(FD_FILE,
                                       path=open_file.name or "",
                                       flags=open_file.flags,
                                       offset=open_file.offset))
        tty = proc.user.tty
        tty_flags = tty.get_flags() if tty is not None \
            and hasattr(tty, "get_flags") else 0
        return FilesInfo(hostname=self.hostname,
                         cwd=proc.user.cwd_name or "/",
                         entries=entries, tty_flags=tty_flags)

    def _build_stack_info(self, proc):
        from repro.core.formats import StackInfo
        image = proc.image.image
        stack = image.stack_bytes()
        self.charge(self.costs.copy_byte_us * len(stack))
        return StackInfo(cred=proc.user.cred.copy(), stack=stack,
                         registers=image.regs.copy(),
                         sigstate=proc.user.sig.copy())

    # -- incremental (content-addressed) dumps ---------------------------

    def _chunk_region(self, proc, image, region, base, length):
        """Chunk one memory region into the store; returns a manifest.

        When the image carries a matching baseline (it was restored
        from a chunked dump, or dumped once already), chunks whose
        pages are all clean reuse the baseline digest without being
        read, copied, digested or stored — that skip is the entire
        saving of an incremental re-dump.  It also never materialises
        chunks still pending copy-on-reference fill: an untouched
        lazy chunk is clean by definition and its digest is already
        in the manifest the restore came from.
        """
        from repro.core.formats import ChunkManifest
        store = self.machine.cluster.chunk_store
        costs = self.costs
        chunk_bytes = max(PAGE_BYTES,
                          (int(costs.dump_chunk_bytes) // PAGE_BYTES)
                          * PAGE_BYTES)
        perf = self.machine.cluster.perf
        baseline = (image.chunk_baseline or {}).get(region)
        reuse = (baseline is not None
                 and baseline["base"] == base
                 and baseline["length"] == length
                 and baseline["chunk_bytes"] == chunk_bytes)
        dirty = image.dirty_pages
        digests = []
        for index in range(-(-length // chunk_bytes)):
            start = index * chunk_bytes
            size = min(chunk_bytes, length - start)
            if reuse:
                first = (base + start) >> PAGE_SHIFT
                last = (base + start + size - 1) >> PAGE_SHIFT
                if not any(dirty[first:last + 1]):
                    digests.append(baseline["digests"][index])
                    perf.chunks_clean_skipped += 1
                    continue
            chunk = image.read_bytes(base + start, size)
            self.charge(costs.copy_byte_us * size, proc=proc)
            digest = store.digest(self, chunk)
            store.put(self, digest, chunk)
            digests.append(digest)
        return ChunkManifest(chunk_bytes, length, digests)

    def _build_chunked_aout(self, proc, image):
        """The manifest-bearing a.outXXXXX of an incremental dump."""
        from repro.core.formats import pack_chunked_aout
        from repro.vm.aout import AOutHeader
        text_man = self._chunk_region(proc, image, "text",
                                      image.text_base, image.text_size)
        data_len = max(image.data_size + image.bss_size,
                       image.brk - image.data_base)
        data_man = self._chunk_region(proc, image, "data",
                                      image.data_base, data_len)
        header = AOutHeader(image.machine_id, text_man.length,
                            data_man.length, 0, image.entry)
        return pack_chunked_aout(header, text_man, data_man), \
            text_man, data_man

    def _build_chunked_stack_info(self, proc):
        from repro.core.formats import StackInfo
        image = proc.image.image
        stack_man = self._chunk_region(proc, image, "stack",
                                       image.regs.sp, image.stack_size)
        info = StackInfo(cred=proc.user.cred.copy(),
                         stack_manifest=stack_man,
                         registers=image.regs.copy(),
                         sigstate=proc.user.sig.copy())
        return info, stack_man

    # -- restore-side chunk plumbing (exec and rest_proc) ----------------

    def fetch_manifest(self, manifest):
        """Fetch and assemble a manifest's chunks (eager restore)."""
        parts = []
        store = self.machine.cluster.chunk_store
        for index, digest in enumerate(manifest.digests):
            blob = store.get(self, digest)
            if len(blob) != manifest.chunk_size(index):
                raise UnixError(EIO, "chunk size does not match "
                                "its manifest")
            parts.append(blob)
        return b"".join(parts)

    def chunk_lazy_fetch(self, digest, size):
        """Copy-on-reference fetch of one chunk at first touch.

        Installed as the image's lazy-fetch hook; charges the I/O to
        whoever is touching the memory, which by construction is the
        restored process itself (its own stores, loads and syscall
        copyin/copyout are the only paths into its image).
        """
        perf = self.machine.cluster.perf
        perf.lazy_faults += 1
        blob = self.machine.cluster.chunk_store.get(self, digest)
        if len(blob) != size:
            raise UnixError(EIO, "chunk size does not match its manifest")
        if self.tracer.enabled:
            self.tracer.emit("chunk", "fault", self.machine,
                             digest=digest.hex(), bytes=size)
        return blob

    # -- SIGQUIT-style core dumps (the baseline of Figure 2) --------------------

    #: stand-in for the u-area pages at the front of a 4.2BSD core
    CORE_HEADER_SIZE = 1024

    def write_core(self, proc):
        """Write a classic ``core`` file in the current directory."""
        if not proc.is_vm():
            return False
        image = proc.image.image
        data = image.data_bytes()
        stack = image.stack_bytes()
        blob = (b"\x00" * self.CORE_HEADER_SIZE) + data + stack
        self.charge(self.costs.copy_byte_us * len(blob))
        core_path = joinpath(proc.user.cwd_name or "/", "core")
        try:
            self.kwrite_file(proc, core_path, blob, mode=0o600)
        except UnixError as err:
            self.log("core dump of pid %d failed: %s" % (proc.pid, err))
            return False
        self.log("pid %d dumped core (%d bytes)" % (proc.pid, len(blob)))
        return True
