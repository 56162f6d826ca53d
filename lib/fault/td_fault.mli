(** Deterministic, seeded fault injection for the twin-driver runtime.

    An {!Engine.t} is a plain value owned by one world. Every runtime
    layer that hosts an injection site (the interpreter, the SVM runtime,
    the NIC model, the upcall stub) receives its world's engine when it
    is constructed and asks {!Engine.fire} on its hot path. A disarmed
    engine (no plan) never fires and never draws from a stream, so a run
    without a plan executes exactly the pre-fault instruction stream —
    bit-identical ledgers, wire traffic and traces. Two worlds never
    share an engine, so N worlds (and N parallel shards) inject
    independently.

    Each site class draws from its own xorshift stream seeded from
    [plan.seed], so two runs with the same plan and workload inject the
    same faults at the same points, regardless of how often other sites
    poll. Rates are per-opportunity probabilities (per slow-path miss,
    per interpreted instruction, per doorbell, per asserted interrupt,
    per received frame, per upcall). A rate of [0.] never consults the
    stream, so a zero plan is behaviourally identical to no plan. *)

type site =
  | Svm_wild_access  (** SVM slow path: wild access past the dom0 range *)
  | Interp_bitflip  (** interpreter: register/flag bit-flip *)
  | Nic_stuck_dma  (** NIC model: TX DMA engine wedges mid-ring *)
  | Nic_lost_irq  (** NIC model: asserted interrupt is never delivered *)
  | Nic_corrupt_rx  (** NIC model: RX descriptor corrupted, frame lost *)
  | Upcall_fail  (** upcall path: dom0 fails/times out the upcall *)

val all_sites : site list
val site_name : site -> string
(** Dotted metric suffix, e.g. ["svm_wild_access"]. *)

val site_of_name : string -> site option

type plan = {
  seed : int;
  svm_wild_access : float;
  interp_bitflip : float;
  nic_stuck_dma : float;
  nic_lost_irq : float;
  nic_corrupt_rx : float;
  upcall_fail : float;
}

val zero_plan : plan
(** Seed 0, every rate [0.] — arming it changes nothing. *)

val uniform_plan : ?seed:int -> float -> plan
(** Every site class at the same per-opportunity rate. *)

val rate : plan -> site -> float

module Engine : sig
  type t
  (** An injection engine: an optional plan, its per-site xorshift
      streams, the suspend depth, and the injection/loss counters. *)

  val create : unit -> t
  (** A disarmed engine: it never fires, but still counts
      {!note_lost}. Modules that host a site default to one of these. *)

  val make : plan -> t
  (** {!create} then {!arm}. *)

  val arm : t -> plan -> unit
  (** Install [plan]: streams reseeded from [plan.seed] and every
      counter zeroed, as if the engine were fresh. Everything already
      holding the engine sees the plan from the next opportunity on. *)

  val disarm : t -> unit
  (** Drop the plan. Counters keep their values. *)

  val plan : t -> plan option

  val active : t -> bool
  (** Armed and not {!suspend}ed. *)

  val armed : t -> site -> bool
  (** {!active} and [site]'s rate is above [0.]: {!fire} may inject at
      [site]. A rate-[0.] site never draws from its stream, so code that
      hosts only that site can treat an unarmed engine as absent. *)

  val fire : t -> site -> bool
  (** One injection opportunity at [site]. [true] means the caller must
      inject its fault now; the engine has already counted it, bumped
      [fault.injected] and emitted a [Fault_injected] trace event. Never
      fires when disarmed, suspended, or the site's rate is [0.]. *)

  val pick : t -> site -> int -> int
  (** Deterministic choice in [0, bound) from [site]'s stream — for
      picking which register/bit to flip after {!fire} said yes. *)

  val suspend : t -> (unit -> 'a) -> 'a
  (** Run [f] with injection masked (re-entrant). The supervisor wraps
      recovery and replay in this so restarts always make progress. *)

  val injected : t -> int
  val injected_at : t -> site -> int

  val note_lost : t -> int -> unit
  (** Record frames deliberately dropped (not replayed) by fault
      handling — supervisor drops, stuck-ring discards, corrupt-RX
      losses — and bump [fault.lost_frames]. Counted on a disarmed
      engine too, so recovery from organic aborts stays visible. *)

  val lost_frames : t -> int
  val reset_counters : t -> unit
end
