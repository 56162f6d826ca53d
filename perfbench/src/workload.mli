(** The three workloads, each a seeded generator driving the public
    {!Twindrivers.World} API from one host thread.

    A workload advances in {e units}: one frame for the closed loops
    ([twin-tx], [domU-rx-small]) and one round of per-slot traffic for the
    open-loop [fleet]. Every frame the generator offers is counted as
    attempted; a frame is delivered when it reaches the wire (transmit) or
    the consumer's [rx_pop] byte for byte (receive), and failed when the
    program refuses it, raises, loses it or corrupts it. A transmit is
    lost when the program accepted it but it never reached the wire. The
    measured worlds lose no frame; only [fleet]'s soak world, armed with
    the full fault plan, may. *)

type tally = {
  mutable attempted : int;
  mutable tx_ok : int;  (** transmits the program accepted *)
  mutable tx_bytes : int;  (** wire bytes those accepted frames add *)
  mutable tx_lens : int list;  (** distinct wire lengths of accepted frames *)
  mutable tx_failed : int;  (** transmits refused or raised *)
  mutable rx_ok : int;  (** received payloads that matched byte for byte *)
  mutable rx_bad : int;
      (** received payloads whose sequence number was pending but whose
          bytes differ: delivered corrupted *)
  mutable rx_stray : int;
      (** received payloads carrying no pending sequence number: a
          duplicate, or one whose sequence bytes were corrupted *)
  mutable rx_failed : int;  (** receives that raised or never arrived *)
  mutable churned : int;
}

type t = {
  world : Twindrivers.World.t;
  tally : tally;
  wire0 : int;  (** wire frames before the first unit *)
  wire_bytes0 : int;  (** wire bytes before the first unit *)
  step : unit -> unit;  (** advance one unit *)
  finish : unit -> unit;
      (** pump, tick, shut the world down and drain every received frame;
          outstanding receives then count as failed *)
  extra_checks : unit -> (string * bool) list;
      (** the workload's own output checks, valid after [finish] *)
}

type spec = {
  name : string;
  build : seed:int -> Twindrivers.World.t * int * int;
      (** a warm-ready world, with the host nanoseconds spent in
          [World.create] and in booting further guests *)
  derives_twin : bool;  (** set-up includes [Twin.derive] *)
  start : Probe.t -> seed:int -> Twindrivers.World.t -> t;
  soak : (seed:int -> Twindrivers.World.t) option;
      (** a world like [build]'s with the recovery soak's full fault plan
          armed, whose lost and corrupted frames the traced run counts *)
  setup_reps : int;
  warmup : int;  (** untimed units before the reference segment *)
  reference : int;
      (** units in the reference segment: simulated metrics and allocated
          words are taken over exactly these units *)
  lap : int;  (** units between clock readings; divides [reference] *)
}

val all : smoke:bool -> spec list
val find : smoke:bool -> string -> spec option

val reached : t -> int
(** Frames that reached the wire or came back intact through [rx_pop] so
    far. *)

val delivered : t -> int
(** {!reached} less a transmit detected as corrupted. Final after
    [finish], like everything below. *)

val missing : t -> int
(** Accepted transmits missing from the wire plus receives that raised or
    never arrived. Final after [finish]. *)

val corrupted : t -> int
(** Frames that arrived with wrong bytes: received payloads that failed
    the byte check, plus 1 when the wire bytes show that at least one
    transmit reached the wire with the wrong length (wire frames carry no
    payload check, so that count is a lower bound). *)

val failed : t -> int
(** Refused transmits, {!missing} frames and frames delivered corrupted. *)

val checks : t -> (string * bool) list
(** Named output checks of a measured world: frame accounting,
    conservation after shutdown, the workload's [extra_checks] and every
    frame delivered intact. *)

val soak_checks : t -> (string * bool) list
(** The same for a soak world, where frames may be lost: every frame the
    fault engine counts lost is missing and every stray receive stands
    for a missing one, instead of every frame delivered intact. *)
