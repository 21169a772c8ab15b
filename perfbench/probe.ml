(* The benchmark's own clock and process counters (perfbench_stubs.c). *)

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns" "perfbench_now_ns_untagged"
[@@noalloc]
(** CLOCK_MONOTONIC in nanoseconds. *)

external rusage : unit -> int * int = "perfbench_rusage"
(** Process user+system CPU microseconds, and peak RSS in KiB. *)

external nproc : unit -> int = "perfbench_nproc"

external pin_to_cpu : int -> bool = "perfbench_pin_to_cpu"
(** Restrict the calling thread, and the threads it creates after, to one
    CPU. *)

external cpu_model : unit -> string = "perfbench_cpu_model"
external invariant_tsc : unit -> bool = "perfbench_invariant_tsc"
