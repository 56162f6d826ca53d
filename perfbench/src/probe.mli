(** The benchmark's outside-in tracer.

    Spans are recorded from the benchmark's own code, around calls into
    each layer's public functions: every {!Twindrivers.World} entry call
    the workload makes, every native routine (wrapped at its stable
    address through {!Td_cpu.Native.register}: [__svm_*] routines count
    as the svm layer, the rest as kernel support) and every NIC's MMIO
    register page (wrapped in dom0 space and in any hypervisor map-window
    page that aliases it). Nothing inside the program changes, so a traced
    run executes the same simulated instruction stream as an untraced one.

    While {!on} is false every wrapper is a direct call. The recording
    path allocates nothing on the OCaml heap, apart from growing the
    per-operation latency sample buffers. *)

type t

type kind =
  | Transmit  (** {!Twindrivers.World.transmit} / [transmit_from] *)
  | Pump
  | Inject_rx
  | Tick
  | Create_guest
  | Destroy_guest
  | Svm  (** [__svm_*] native routines *)
  | Support  (** every other native routine: kernel support *)
  | Mmio  (** NIC register-page reads and writes *)

val world_ops : kind list
(** The six {!Twindrivers.World} entry kinds, in report order. *)

val kind_name : kind -> string
(** Metric prefix: ["world.transmit"], ..., ["svm.native"],
    ["kernel.support"], ["nic.mmio"]. *)

val create : unit -> t
val on : t -> bool

val instrument : t -> Twindrivers.World.t -> unit
(** Wrap the world's native routines and NIC register pages, turn
    recording on and enable {!Td_obs} (metrics reset, trace ring sized
    for {!drain}). Call once, after warm-up. *)

val set_frame : t -> int -> unit
(** Frame id stamped on spans opened from now on. *)

val drain : t -> unit
(** Fold the {!Td_obs.Trace} ring into the probe's event counts and clear
    it. Call between laps; fails if the ring overflowed since the last
    drain (a count would be lost). *)

val grant_copies : t -> int
(** [Grant_copy] trace events seen by {!drain}. *)

(** {2 Traced World entry points} *)

val transmit : t -> Twindrivers.World.t -> nic:int -> payload:string -> bool

val transmit_from :
  t -> Twindrivers.World.t -> guest:int -> payload:string -> bool

val inject_rx :
  t -> Twindrivers.World.t -> guest:int -> nic:int -> payload:string -> unit

val pump : t -> Twindrivers.World.t -> unit
val tick : t -> Twindrivers.World.t -> unit
val create_guest : t -> Twindrivers.World.t -> int
val destroy_guest : t -> Twindrivers.World.t -> guest:int -> unit

(** {2 Aggregates} *)

val count : t -> kind -> int
(** Closed spans of [kind]. *)

val total_ns : t -> kind -> int
val self_ns : t -> kind -> int
(** Span time minus the time covered by its child spans. *)

val top_ns : t -> int
(** Time covered by outermost spans. *)

val spans : t -> int
val depth : t -> int
(** Spans currently open (0 between calls). *)

val percentile_ns : t -> kind -> float -> int
(** Nearest-rank percentile of one World entry kind's span durations;
    0 without samples. *)

val write_spans : t -> string -> unit
(** Write the retained span log (the first spans recorded, up to a fixed
    capacity) as tab-separated [kind frame start_ns end_ns depth] lines
    after a [#] header line; times count from {!instrument}. *)
