(** Monotonic clock shared by the tracer, its scope timers and the
    server's queue-wait accounting.

    [Unix.gettimeofday] is wall time: an NTP step between enqueue and
    drain can make a queue wait negative or wildly skewed, and two
    processes comparing wall timestamps inherit both of their clocks'
    steps.  CLOCK_MONOTONIC never jumps and is consistent across all
    threads and processes of one machine, so durations are always
    non-negative and a client trace merges onto the same timeline as
    the server it talked to (same-host runs; cross-host merges are
    only as aligned as the hosts' clocks). *)

val now_ns : unit -> int
(** Nanoseconds since an unspecified fixed epoch (boot, on Linux).
    Monotone non-decreasing within a process and across processes on
    one machine; 62 bits cover ~146 years, so subtraction never
    overflows in practice. *)
