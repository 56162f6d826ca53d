(* The calibration kernel is a small register-machine interpreter: a
   pattern match per instruction, loads and stores through an
   open-addressing table standing in for page lookups, and an indirect
   call per hook. That is the simulator's own mix of work, so neighbour
   load slows it in about the same proportion — a hashtable-and-array
   kernel tracked it markedly worse. The table is the kernel's own, not
   Stdlib's [Hashtbl], so a change to the standard library does not move
   it. Every call starts from the same registers and memory, so it
   executes the same instruction sequence each time; nothing allocates,
   and its few kilobytes of data are built once at start-up. *)

type insn =
  | Add of int * int
  | Load of int * int
  | Store of int * int
  | Jump_if_odd of int * int
  | Hook of int

let nregs = 8
let pages = 1 lsl 12
let prog_size = 256
let iters = 262_000
let regs = Array.make nregs 0

(* page table: linear probing over twice as many slots as pages *)
let slots = 2 * pages
let keys = Array.make slots (-1)
let vals = Array.make slots 0

let rec probe key i =
  let k = Array.unsafe_get keys i in
  if k = key || k < 0 then i else probe key ((i + 1) land (slots - 1))

let slot key = probe key (((key * 0x9E37_79B1) lsr 9) land (slots - 1))

let store key v =
  let i = slot key in
  keys.(i) <- key;
  vals.(i) <- v

let load key = vals.(slot key)

let reset () =
  Array.iteri (fun i _ -> regs.(i) <- i + 1) regs;
  for p = 0 to pages - 1 do
    store (p * 4096) p
  done

let prog =
  let x = ref 12345 in
  let r bound =
    x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
    (!x lsr 8) mod bound
  in
  Array.init prog_size (fun _ ->
      match r 5 with
      | 0 -> Add (r nregs, r nregs)
      | 1 -> Load (r nregs, r nregs)
      | 2 -> Store (r nregs, r nregs)
      | 3 -> Jump_if_odd (r nregs, r prog_size)
      | _ -> Hook (r 4))

let hooks = Array.init 4 (fun k v -> (v lxor (k + 1)) land 0xFFFF)
let page_of r = (regs.(r) land (pages - 1)) * 4096

let kernel () =
  reset ();
  let pc = ref 0 in
  for _ = 1 to iters do
    (match Array.unsafe_get prog !pc with
    | Add (a, b) -> regs.(a) <- (regs.(a) + regs.(b)) land 0xFF_FFFF
    | Load (a, b) -> regs.(a) <- load (page_of b)
    | Store (a, b) -> store (page_of b) (regs.(a) land 0xFFF)
    | Jump_if_odd (a, target) -> if regs.(a) land 1 = 1 then pc := target - 1
    | Hook k -> regs.(k) <- hooks.(k) regs.(k));
    pc := (!pc + 1) land (prog_size - 1)
  done;
  regs.(0)

let reference_ns = 1_500_000

let time () =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  Clock.now_ns () - t0

let scale before after =
  float_of_int reference_ns /. (float_of_int (before + after) /. 2.0)
