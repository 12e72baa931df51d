"""Terminals.

A :class:`Terminal` models one console or window: an input queue, an
output transcript, and the sgtty mode flags that ``dumpproc`` saves
and ``restart`` re-establishes ("terminal modes such as raw ... or
noecho ... are preserved, so that visual applications such as screen
editors can be restarted properly").

An rsh connection's stdio is *not* a terminal — ``isatty`` is False
and mode changes are impossible — which is why the paper's ``migrate``
cannot preserve terminal modes when it must run ``restart`` remotely.
That stand-in lives in :mod:`repro.net.remote`, the protocol rsh and
migrationd share; this module only defines the interface it mimics.
"""

from repro.kernel.constants import (TTY_DEFAULT_FLAGS, TF_ECHO, TF_RAW,
                                    TF_CBREAK, TF_CRMOD)


class Terminal:
    """One terminal (or window)."""

    def __init__(self, name="console"):
        self.name = name
        self.flags = TTY_DEFAULT_FLAGS
        self._input = bytearray()
        self.output = bytearray()  #: everything written to the screen
        self.on_input = None  #: callback invoked when input arrives

    def isatty(self):
        return True

    # -- modes ----------------------------------------------------------------

    def get_flags(self):
        return self.flags

    def set_flags(self, flags):
        self.flags = flags & 0xFFFF

    def is_raw(self):
        return bool(self.flags & TF_RAW)

    def is_cbreak(self):
        return bool(self.flags & TF_CBREAK)

    def echoes(self):
        return bool(self.flags & TF_ECHO)

    def reset_modes(self):
        self.flags = TTY_DEFAULT_FLAGS

    # -- input ----------------------------------------------------------------

    def feed(self, text):
        """Type characters at the terminal (harness side)."""
        data = text.encode("latin-1") if isinstance(text, str) else text
        if self.flags & TF_CRMOD:
            data = data.replace(b"\r", b"\n")
        self._input.extend(data)
        if self.echoes():
            self.output.extend(data)
        if self.on_input is not None:
            self.on_input(self)

    def input_available(self):
        """True if a read() would make progress under current modes."""
        if not self._input:
            return False
        if self.is_raw() or self.is_cbreak():
            return True
        return b"\n" in self._input

    def read(self, nbytes):
        """Take up to ``nbytes`` from the queue, honouring the modes.

        Returns ``None`` when a read would block (the kernel turns
        that into a sleep on this terminal).
        """
        if not self.input_available():
            return None
        if self.is_raw() or self.is_cbreak():
            take = min(nbytes, len(self._input))
        else:
            line_end = self._input.index(b"\n") + 1
            take = min(nbytes, line_end)
        data = bytes(self._input[:take])
        del self._input[:take]
        return data

    # -- output ---------------------------------------------------------------

    def write(self, data):
        if isinstance(data, str):
            data = data.encode("latin-1")
        if self.flags & TF_CRMOD and not self.is_raw():
            data = data.replace(b"\n", b"\r\n")
        self.output.extend(data)
        return len(data)

    def output_text(self):
        """The transcript as text, with CR-NL folded back to NL."""
        return bytes(self.output).replace(b"\r\n", b"\n").decode(
            "latin-1")

    def clear_output(self):
        del self.output[:]

    def __repr__(self):
        return "Terminal(%s, flags=0o%o)" % (self.name, self.flags)
