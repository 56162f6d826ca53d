(** The MISA instruction interpreter with cycle accounting.

    Executes assembled programs registered in a {!Code_registry.t} against
    the architectural {!State.t}. Costs are charged per instruction and per
    memory access (TLB and cache models included), so the measured
    native-vs-rewritten driver slowdown is an output of execution, not an
    assumption. Three dispatch engines share one instruction semantics
    ({!Semantics}) and produce bit-identical simulated (cycles, steps);
    the full pipeline is documented in docs/INTERPRETER.md. *)

exception Fault of string
(** Execution fault: unresolved target, call into unmapped code, etc.
    (The same exception as {!Semantics.Fault}.) *)

exception Timeout of int
(** Raised when [max_steps] is exceeded — the resource-hoarding guard the
    paper delegates to VINO-style timeouts (§4.5.2). (The same exception
    as {!Semantics.Timeout}.) *)

type dispatch =
  | Block
      (** resolve the program once per control transfer through a
          generation-stamped block cache, then execute straight-line by
          array index *)
  | Per_step
      (** execute one instruction at a time, fetching each through the
          block cache exactly like a hooked [step] — the per-instruction
          reference mode the other engines are checked against *)
  | Compiled
      (** the default: like [Block], but a hotness counter per block
          entry promotes hot blocks to compiled {!Superblock}s — fused
          closures with static cycle accounting, lazy flags and in-block
          stlb-redundancy elimination. Falls back to the block engine
          for cold, uncompilable or bailed-out entries. *)

type t = {
  state : State.t;
  registry : Code_registry.t;
  natives : Native.t;
  mutable hook : (State.t -> Td_misa.Insn.t -> unit) option;
  mutable hit_sites : (int * (int -> unit)) list;
  mutable dispatch : dispatch;
  mutable bc_gen : int;
  bc_addr : int array;
  bc_prog : Td_misa.Program.t option array;
  bc_idx : int array;
  mutable block_hits : int;
  mutable block_misses : int;
  mutable invalidations : int;
  cc_addr : int array;
  cc_hot : int array;
  cc_blk : Superblock.t option array;
  mutable compile_threshold : int;
  mutable compiled_blocks : int;
  mutable compiled_hits : int;
  mutable compiled_bailouts : int;
  stlb_elided : int ref;
  fault : Td_fault.Engine.t;  (** hosts the [Interp_bitflip] site *)
}
(** Construct only through {!create}; the cache fields are exposed for
    the record type's sake and are not part of the stable API. *)

val create :
  ?hook:(State.t -> Td_misa.Insn.t -> unit) ->
  ?fault:Td_fault.Engine.t ->
  State.t -> Code_registry.t -> Native.t -> t
(** [fault] is the owning world's injection engine, consulted for
    {!Td_fault.Interp_bitflip} (default: a disarmed engine). *)

val set_dispatch : t -> dispatch -> unit

val set_compile_threshold : t -> int -> unit
(** Dispatches of a block entry before it is promoted to compiled form
    (default 8; clamped to at least 1). Only meaningful in [Compiled]
    dispatch; tests lower it to 1 to compile on first entry. A
    superblock traces at most 64 instructions, stitched continuation
    blocks included. *)

val add_hook : t -> (State.t -> Td_misa.Insn.t -> unit) -> unit
(** Compose a per-instruction hook with any already installed (existing
    hooks run first). Hooks fire before the instruction executes, so
    register reads observe pre-execution state. Use this instead of
    assigning [hook] directly, so two hooks (e.g. two profilers) do not
    clobber each other. Installing any hook forces the per-instruction
    slow path (see {!call}) and flushes the block and compiled caches. *)

val add_hit_site : t -> disp:int -> (int -> unit) -> unit
(** [add_hit_site t ~disp credit] registers an inline stlb probe's hit
    site: every [xor disp(base), reg] with a resolved displacement equal
    to [disp] (an stlb's base + 4) calls [credit] with [reg]'s pre-xor
    value just before the instruction executes, on every dispatch engine
    — compiled superblocks included, so hit sites do not force the slow
    path. The first site registered for a displacement wins. Flushes the
    block and compiled caches, so no block compiled earlier can skip a
    credit. *)

val ret_sentinel : int
(** Pseudo return address marking the bottom of a simulated call; popping
    it ends {!call}. *)

val call : ?max_steps:int -> t -> entry:int -> args:int list -> int
(** [call t ~entry ~args] pushes [args] (cdecl, right-to-left), invokes the
    routine at code address [entry] and runs to completion; returns [EAX].
    [ESP] must already point to a valid stack. Default [max_steps] is
    1_000_000. The budget is charged per executed instruction and per
    [rep] string element, so a corrupted huge ECX times out rather than
    spinning forever. With a hook installed or a fault plan that arms
    the [interp_bitflip] site ({!Td_fault.Engine.armed}), execution takes
    the per-instruction slow path regardless of the dispatch mode;
    otherwise it proceeds a basic block — or a compiled superblock — at a
    time, hit sites ({!add_hit_site}) included. Simulated cycles, steps
    and metrics are identical on every path, only host wall-clock
    differs. *)

val exec_insn : t -> Td_misa.Insn.t -> unit
(** Execute one instruction (for tests); [state.pc] must identify it. *)

(* engine introspection (the [interp] bench) *)

val block_hits : t -> int
val block_misses : t -> int

val invalidations : t -> int
(** Whole-cache flushes (block cache and compiled cache together)
    triggered by a registry generation change
    ({!Code_registry.register} / {!Code_registry.replace}). *)

val compiled_blocks : t -> int
(** Superblocks compiled (promotions). *)

val compiled_hits : t -> int
(** Dispatches served by running a compiled superblock. *)

val compiled_bailouts : t -> int
(** Dispatches that found a compiled superblock but fell back to the
    block engine (pair slot set on entry, or not enough fuel left for a
    worst-case pass). *)

val stlb_elided : t -> int
(** stlb translations skipped inside compiled superblocks (same base
    register, same page: the translated frame is reused while the TLB
    and cache models still observe the access). *)

val publish_metrics : t -> unit
(** Export the engine counters as [interp.block_hits] /
    [interp.block_misses] / [interp.invalidations] /
    [interp.compiled_blocks] / [interp.compiled_hits] /
    [interp.compiled_bailouts] / [interp.stlb_elided] gauges. Called
    explicitly by the interp benchmark — never during normal runs, so
    the registry snapshot embedded in every Measure result stays
    bit-identical with pre-engine exports. *)
