"""A CPU-bound job: the load-balancing workload.

Section 8: "CPU bound jobs can be moved from busy nodes of the network
to others that are idle."  This program spins through ``argv[1]``
iterations of integer busywork, accumulating a checksum, then prints
it — so a test can verify that migrating the job mid-run does not
change the result.  Every ``PROGRESS_EVERY`` iterations it rewrites a
one-line progress file, giving the load balancer something to watch.

``expected_checksum`` is the host-side oracle for that result.  It is
closed-form: gcd(7, 123) = 1, so ``(7i + 3) mod 123`` takes every value
0..122 exactly once in any 123 consecutive iterations, and the sum is
whole periods of 7503 plus a short tail.  A checker therefore adds no
host time, whatever the iteration count.
"""

from repro.programs.guest.libasm import program

#: iterations between progress-file updates
PROGRESS_EVERY = 20000

BODY = """
start:  move  (sp), d3              ; argc
        cmp   #2, d3
        blt   hog_default
        move  8(sp), a0             ; argv[1]
        jsr   atoi
        move  d0, d6                ; total iterations
        bra   hog_go
hog_default:
        move  #100000, d6
hog_go: move  #0, d7                ; iteration counter

hog_loop:
        add   #1, d7
        move  d7, d5                ; busywork: ((i*7)+3) mod 123
        mul   #7, d5
        add   #3, d5
        mod   #123, d5
        add   d5, checksum
        move  d7, d5                ; progress marker every N iterations
        mod   #%(progress)d, d5
        tst   d5
        bne   hog_next
        jsr   progress
hog_next:
        cmp   d6, d7
        blt   hog_loop

        lea   msg_done, a0
        jsr   puts
        move  checksum, d2
        jsr   putnum
        lea   msg_nl, a0
        jsr   puts
        move  #0, d2
        jsr   exit

; rewrite the progress file with the current iteration count
; (the fd lives in memory: itoa clobbers every scratch register)
progress:
        move  #SYS_creat, d0
        move  #progname, d1
        move  #420, d2              ; 0644
        trap
        tst   d0
        blt   progress_out
        move  d0, progfd
        lea   pbuf, a0
        move  d7, d2
        jsr   itoa
        lea   pbuf, a0
        jsr   strlen
        move  d0, d3
        move  #pbuf, d2
        move  #SYS_write, d0
        move  progfd, d1
        trap
        move  #SYS_close, d0
        move  progfd, d1
        trap
progress_out:
        rts
""" % {"progress": PROGRESS_EVERY}

DATA = """
checksum:  .word 0
progfd:    .word 0
progname:  .asciz "hog.progress"
pbuf:      .space 16
msg_done:  .asciz "checksum="
msg_nl:    .asciz "\\n"
"""


def cpuhog_aout(cpu="mc68010"):
    return program(BODY, DATA, cpu=cpu).aout


def expected_checksum(iterations):
    """What the program should print for a given iteration count.

    The term ``(7i + 3) mod 123`` repeats every 123 iterations and hits
    each residue once per period, so the sum is ``iterations // 123``
    periods of 7503 (= 0 + 1 + ... + 122) plus the first
    ``iterations % 123`` terms: O(123) host work for any count.  The
    guest adds modulo 2**32, so masking once at the end gives the same
    word as masking at every step; the word is then read as signed.
    """
    if iterations <= 0:
        return 0
    periods, rest = divmod(iterations, 123)
    total = periods * 7503 + sum((i * 7 + 3) % 123
                                 for i in range(1, rest + 1))
    total &= 0xFFFFFFFF
    if total & 0x80000000:
        total -= 1 << 32
    return total
