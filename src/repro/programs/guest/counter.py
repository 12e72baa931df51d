"""The paper's section 6.2 test program.

"The program increments and prints three counters (a register, a
static variable allocated on the data segment and a variable allocated
on the stack).  On each iteration it inputs a line and appends it to
an output file."

Small, but it verifies the whole mechanism: the register counter
survives only if registers are restored, the static counter only if
the data segment is dumped into the a.out, the stack counter only if
the stack is restored, and the output file only if open files are
reopened with the right flags and offset.  It is "always killed after
its first prompt for input" in the Figure 2/3/4 measurements — i.e.
while blocked reading the terminal.
"""

from repro.programs.guest.libasm import program

BODY = """
start:  move  #SYS_open, d0
        move  #outname, d1
        move  #O_WRONLY + O_CREAT + O_APPEND, d2
        move  #420, d3              ; 0644
        trap
        move  d0, d7                ; output fd lives in d7
        push  #0                    ; the stack counter
        move  #0, d6                ; the register counter

loop:   add   #1, d6
        add   #1, static_ctr
        move  (sp), d5
        add   #1, d5
        move  d5, (sp)

        lea   msg_r, a0
        jsr   puts
        move  d6, d2
        jsr   putnum
        lea   msg_s, a0
        jsr   puts
        move  static_ctr, d2
        jsr   putnum
        lea   msg_k, a0
        jsr   puts
        move  (sp), d2
        jsr   putnum
        lea   msg_nl, a0
        jsr   puts

        lea   prompt, a0
        jsr   puts
        move  #SYS_read, d0
        move  #0, d1
        move  #linebuf, d2
        move  #128, d3
        trap
        tst   d0
        ble   done                  ; EOF (or error): finish up
        move  d0, d3                ; append the line to the file
        move  #linebuf, d2
        move  #SYS_write, d0
        move  d7, d1
        trap
        bra   loop

done:   move  #0, d2
        jsr   exit
"""

DATA = """
static_ctr: .word 0
outname:    .asciz "counter.out"
msg_r:      .asciz "r="
msg_s:      .asciz " s="
msg_k:      .asciz " k="
msg_nl:     .asciz "\\n"
prompt:     .asciz "> "
linebuf:    .space 128
"""


def counter_aout(cpu="mc68010"):
    return program(BODY, DATA, cpu=cpu).aout
