(** One benchmark run: set-up, warm-up, the timed window and the output
    checks, untraced ([trace = false], the end-to-end metrics) or traced
    (the per-layer metrics). *)

type metric = { name : string; value : float; unit : string }

type result = {
  correct : bool;  (** every output check held *)
  attempted : int;  (** frames offered after set-up, warm-up included *)
  failed : int;  (** of those, frames refused, raised, lost or corrupted *)
  metrics : metric list;
  checks : (string * bool) list;
  digest : string;
      (** MD5 over the simulated state at the end of the reference
          segment: ledger rows, latency samples, traffic counters *)
}

val end_to_end : (string * string) list
(** End-to-end metric names and units, in report order. *)

val per_layer : (string * string) list
(** Per-layer metric names and units, in report order. *)

val run :
  Workload.spec ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  result
(** Runs the workload for at least [seconds] of timed window (always at
    least its reference segment). A traced run writes its span log to
    [.bench_build/spans-<workload>.tsv] under the working directory. *)

val to_json : result -> string
(** [{"correct", "attempted", "failed", "metrics": {name: {"value",
    "unit"}}}] on one line. *)
