"""The guest-side assembly library.

:data:`PRELUDE` defines equates for every syscall number, the open
flags, ioctl requests, tty flags and common signals — generated from
the same tables the kernel uses, so the two sides cannot drift.

:data:`STDLIB` provides the routines every guest program wants:

``strlen``   a0 = string → d0 = length           (clobbers d0, a1)
``puts``     a0 = string → written to fd 1       (clobbers d0-d3, a1)
``putnum``   d2 = value  → decimal to fd 1       (clobbers d0-d5, a1, a2)
``exit``     d2 = status → never returns

Programs append ``STDLIB`` to their text and ``STDLIB_DATA`` to their
data section.
"""

from repro.kernel.constants import (O_APPEND, O_CREAT, O_EXCL, O_RDONLY,
                                    O_RDWR, O_TRUNC, O_WRONLY,
                                    TIOCGETP, TIOCSETP, TF_CBREAK,
                                    TF_CRMOD, TF_ECHO, TF_RAW)
from repro.kernel.signals import (SIGDUMP, SIGHUP, SIGINT, SIGKILL,
                                  SIGQUIT, SIGTERM, SIGUSR1, SIGUSR2)
from repro.kernel.syscalls import NR


def _equates():
    lines = []
    for name, number in sorted(NR.items(), key=lambda kv: kv[1]):
        lines.append("SYS_%s = %d" % (name, number))
    flags = {
        "O_RDONLY": O_RDONLY, "O_WRONLY": O_WRONLY, "O_RDWR": O_RDWR,
        "O_APPEND": O_APPEND, "O_CREAT": O_CREAT, "O_TRUNC": O_TRUNC,
        "O_EXCL": O_EXCL,
        "TIOCGETP": TIOCGETP, "TIOCSETP": TIOCSETP,
        "TF_ECHO": TF_ECHO, "TF_RAW": TF_RAW, "TF_CBREAK": TF_CBREAK,
        "TF_CRMOD": TF_CRMOD,
        "SIGHUP": SIGHUP, "SIGINT": SIGINT, "SIGQUIT": SIGQUIT,
        "SIGKILL": SIGKILL, "SIGTERM": SIGTERM, "SIGUSR1": SIGUSR1,
        "SIGUSR2": SIGUSR2, "SIGDUMP": SIGDUMP,
    }
    for name, value in flags.items():
        lines.append("%s = %d" % (name, value))
    return "\n".join(lines) + "\n"


PRELUDE = _equates()

STDLIB = """
; ---------------------------------------------------------------
; guest standard library (see repro/programs/guest/libasm.py)
; ---------------------------------------------------------------
strlen: move  a0, a1
strlen_loop:
        movb  (a1), d0
        beq   strlen_done
        add   #1, a1
        bra   strlen_loop
strlen_done:
        move  a1, d0
        sub   a0, d0
        rts

puts:   jsr   strlen
        move  d0, d3
        move  a0, d2
        move  #SYS_write, d0
        move  #1, d1
        trap
        rts

putnum: lea   lib_numbuf_end, a1
        move  d2, d4
        tst   d4
        bge   putnum_digits
        neg   d4
putnum_digits:
        move  d4, d5
        mod   #10, d5
        add   #'0', d5
        sub   #1, a1
        movb  d5, (a1)
        div   #10, d4
        tst   d4
        bne   putnum_digits
        tst   d2
        bge   putnum_write
        sub   #1, a1
        movb  #'-', (a1)
putnum_write:
        lea   lib_numbuf_end, a2
        move  a2, d3
        sub   a1, d3
        move  a1, d2
        move  #SYS_write, d0
        move  #1, d1
        trap
        rts

exit:   move  #SYS_exit, d0
        move  d2, d1
        trap
        halt            ; not reached

; itoa: d2 = value, a0 = destination buffer (decimal + NUL)
;       clobbers d0, d3, d4, d5, a1, a2; a0 left past the NUL
itoa:   lea   lib_numbuf_end, a1
        move  d2, d4
        tst   d4
        bge   itoa_digits
        neg   d4
itoa_digits:
        move  d4, d5
        mod   #10, d5
        add   #'0', d5
        sub   #1, a1
        movb  d5, (a1)
        div   #10, d4
        tst   d4
        bne   itoa_digits
        tst   d2
        bge   itoa_copy
        sub   #1, a1
        movb  #'-', (a1)
itoa_copy:
        lea   lib_numbuf_end, a2
itoa_copy_loop:
        move  a1, d3
        cmp   a2, d3
        bge   itoa_done
        movb  (a1), d5
        movb  d5, (a0)
        add   #1, a0
        add   #1, a1
        bra   itoa_copy_loop
itoa_done:
        movb  #0, (a0)
        rts

; atoi: a0 = string -> d0 = value (stops at first non-digit)
;       clobbers d0, d1, a0
atoi:   move  #0, d0
atoi_loop:
        movb  (a0), d1
        beq   atoi_done
        cmp   #'0', d1
        blt   atoi_done
        cmp   #'9', d1
        bgt   atoi_done
        mul   #10, d0
        sub   #'0', d1
        add   d1, d0
        add   #1, a0
        bra   atoi_loop
atoi_done:
        rts

; the rest of "libc": real 1987 binaries linked in crt0, stdio and
; friends whether they used them or not; this block gives guest
; executables (and therefore a.outXXXXX dumps) a realistic text size
lib_rest_of_libc:
        .space 1600
"""

STDLIB_DATA = """
lib_numbuf:     .space 16
lib_numbuf_end:
"""


#: (source, cpu) -> Assembled: every host installs the same a.out, as
#: every workstation in the paper execs one installed binary, so each
#: distinct program is assembled once per process
_PROGRAMS = {}


def program(body_text, body_data="", cpu="mc68010"):
    """Assemble a guest program: prelude + body + stdlib.

    The result is memoized by ``(body_text, body_data, cpu)`` (the
    prelude and stdlib are fixed) and shared between callers, so
    treat it as read-only (``.aout`` is immutable ``bytes``; leave
    ``.symbols`` alone).  :func:`repro.vm.assembler.assemble` itself
    is not memoized.
    """
    key = (body_text, body_data, cpu)
    assembled = _PROGRAMS.get(key)
    if assembled is None:
        from repro.vm.assembler import assemble
        source = (PRELUDE + "        .text\n" + body_text + STDLIB
                  + "        .data\n" + body_data + STDLIB_DATA)
        assembled = _PROGRAMS[key] = assemble(source, cpu=cpu)
    return assembled


def _clear_programs():
    """Forget every memoized program (tests and cold-start benches)."""
    _PROGRAMS.clear()
