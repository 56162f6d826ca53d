(** Simulated physical memory: a pool of 4 KiB page frames.

    A single [t] models the machine's RAM and is shared by all address
    spaces — exactly what lets the hypervisor driver instance and the dom0
    driver instance see a {e single} copy of the driver data. *)

type frame = int
(** Physical frame number. *)

exception Bad_frame of { frame : int }
(** Access to a frame that is not allocated — a dangling DMA address or
    a forged grant. Typed so the layer that knows the offending domain
    can contain and attribute it instead of crashing the simulation. *)

exception Out_of_frames of { capacity : int }
(** The frame pool is exhausted. *)

type t

val create : ?frames:int -> unit -> t
(** Fresh memory with the given capacity (default 65536 frames = 256 MiB). *)

val alloc_frame : t -> frame
(** Allocate a zeroed frame: the most recently freed one if any (LIFO),
    else the next never-used number, starting at 1. Raises
    {!Out_of_frames} when memory is exhausted. *)

val free_frame : t -> frame -> unit
(** No-op on a frame that is not allocated. *)

val frames_allocated : t -> int

val page : t -> frame -> bytes
(** The backing buffer of an allocated frame. Exposed for block copies
    and for the interpreter's compiled superblocks, which cache the
    buffer of a just-translated page so repeated accesses through the
    same base register skip the page-table walk.

    Stability: a frame gets its own buffer on its first write or [page]
    call (until then it reads as zeros without one), and from then on
    that buffer is the frame's memory for as long as the frame stays
    allocated — every read, write and DMA through any address space goes
    to it. Freeing the frame detaches it; a later {!alloc_frame} of the
    same number starts again from zeros, so a stale holder never sees the
    new owner's data. Raises {!Bad_frame} on an unallocated, freed or
    negative frame. *)

val read : t -> frame -> int -> Td_misa.Width.t -> int
(** [read mem f off w] reads a little-endian value of width [w] at byte
    offset [off] of frame [f]. The access must not cross the frame
    boundary. *)

val write : t -> frame -> int -> Td_misa.Width.t -> int -> unit

val read_bytes : t -> frame -> int -> int -> bytes
val write_bytes : t -> frame -> int -> bytes -> unit

val fill : t -> frame -> char -> unit
