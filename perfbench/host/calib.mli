(** Host-speed calibration.

    The benchmark's host clocks run on a shared machine whose effective
    speed moves with its neighbours' load (on the 2-vCPU reference VM,
    the same lap took anywhere from 1x to 1.8x its quiet time, with CPU
    time equal to wall time, so the process was slowed, not descheduled).
    A fixed, program-independent kernel timed next to every measured lap
    and set-up tracks that speed; dividing by it expresses host times in
    reference-host units.

    The kernel is compiled with fixed flags (see this library's [dune])
    and uses no Stdlib container, so build-flag changes made for the
    simulator do not reach it. A compiler upgrade still speeds or slows
    both alike, so its effect on the simulator is not measured by
    calibrated times. *)

val reference_ns : int
(** About the duration of {!time}'s kernel on the quiet reference host
    (2-vCPU Intel Xeon VM), so that calibrated times read close to quiet
    wall-clock times. Host times are reported as
    [measured * reference_ns / calibration]. *)

val time : unit -> int
(** Run the calibration kernel once (262,000 steps of a small
    register-machine interpreter, under 2 ms on a quiet host;
    allocation-free) and return its host nanoseconds. *)

val scale : int -> int -> float
(** [scale before after] is the factor [reference_ns / mean(before,
    after)] applied to a measurement taken between two calibrations. *)
