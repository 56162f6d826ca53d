(** Superblock compilation: hot straight-line regions of MISA code
    lowered to a single fused OCaml closure.

    A superblock starts at a basic-block head and is stitched through
    unconditional [Jmp]/fallthrough edges up to a size cap; conditional
    branches become side exits, and calls, returns, indirect jumps and
    [Hlt] end the trace just before themselves. The closure aggregates
    issue-cycle/step accounting statically, skips provably-dead flag
    computation, and memoises stlb translations within a run (same base
    register, same page → reuse the translated frame) — all without
    changing the simulated (cycles, steps), which stay bit-identical
    with per-step execution. See docs/INTERPRETER.md. *)

type t

val entry_pc : t -> int
(** Code address of the first instruction of the trace. *)

val max_steps : t -> int
(** Instructions executed by a worst-case (full straight-through) pass;
    the caller must hold at least this much fuel before {!run}. *)

val compile :
  natives:Native.t ->
  costs:Cost_model.t ->
  elided:int ref ->
  hit_site:(Td_misa.Insn.t -> (Td_misa.Reg.t * (int -> unit)) option) ->
  cap:int ->
  Td_misa.Program.t ->
  int ->
  t option
(** [compile ~natives ~costs ~elided ~hit_site ~cap prog idx] lowers the
    trace starting at instruction [idx] of [prog], following at most
    [cap] instructions. [elided] is bumped once per stlb translation
    skipped at run time (the [interp.stlb_elided] gauge). An instruction
    for which [hit_site] returns [Some (r, credit)] calls [credit] with
    [r]'s value just before it executes. Returns [None] when
    the first instruction is itself a terminator the closure cannot
    fuse — the caller should never retry that address. *)

val run : t -> State.t -> unit
(** Execute the block. Preconditions (the interpreter bails out to the
    per-block engine otherwise): [State.pc] is the block's entry,
    [pair_slot] is clear, and [fuel >= max_steps]. On a fault the
    cycles/steps/fuel of the prefix through the faulting instruction are
    charged and [pc] is restored to it, exactly as per-step execution
    would, before the exception is re-raised. *)
