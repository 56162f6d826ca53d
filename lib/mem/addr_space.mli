(** Virtual address spaces: per-domain page tables over shared physical
    memory, plus device (MMIO) pages.

    Accesses may be unaligned and may straddle a page boundary (the Intel
    ISA permits this; the paper maps {e two} consecutive pages per stlb miss
    for exactly this reason) — straddling accesses are split here. *)

type device = {
  dev_read : int -> Td_misa.Width.t -> int;
      (** [dev_read offset width] — offset within the page *)
  dev_write : int -> Td_misa.Width.t -> int -> unit;
}

type mapping = Frame of Phys_mem.frame | Device of device

exception Page_fault of { space : string; addr : int }

exception Heap_exhausted of { space : string; requested : int }
(** The bump allocator's region is spent. Typed (and attributed to the
    owning space's name) so a guest whose driver leaks its way through
    the heap aborts that driver instance instead of the simulation. *)

type t
(** A page table over the 2{^ 20} vpages of the 32-bit space,
    [0 <= vpage < Layout.addr_limit / Layout.page_size]. *)

val create : name:string -> Phys_mem.t -> t
val name : t -> string
val phys : t -> Phys_mem.t

val map : t -> vpage:int -> Phys_mem.frame -> unit
(** Map (or re-map) [vpage]. Raises [Invalid_argument], naming the
    space, for a vpage outside the table. *)

val map_device : t -> vpage:int -> device -> unit
(** As {!map}, for a device page. *)

val unmap : t -> vpage:int -> unit
(** No-op on an unmapped or out-of-range vpage. *)

val lookup : t -> vpage:int -> mapping option
(** Allocation-free: returns the option {!map} stored. A vpage outside
    the table is unmapped, so accesses there raise {!Page_fault}. *)

val is_mapped : t -> vpage:int -> bool
val frame_of_vpage : t -> vpage:int -> Phys_mem.frame option
(** [None] for unmapped or device pages. *)

val mapped_pages : t -> int

val alloc_page : t -> vpage:int -> Phys_mem.frame
(** Allocate a fresh frame and map it at [vpage]. *)

val alloc_region : t -> vaddr:int -> pages:int -> unit
(** Back [pages] consecutive pages starting at [vaddr] with fresh frames. *)

val read : t -> int -> Td_misa.Width.t -> int
(** Virtual read; splits page-straddling accesses. Raises {!Page_fault} on
    unmapped pages. *)

val write : t -> int -> Td_misa.Width.t -> int -> unit

val read_block : t -> int -> int -> bytes
val write_block : t -> int -> bytes -> unit

val iter_frames : t -> (vpage:int -> Phys_mem.frame -> unit) -> unit
(** Visit every frame-backed mapping in ascending [vpage] order (device
    pages are skipped). The order is the table's own layout, so bulk
    teardown reproduces bit-identically. [f] must not map or unmap
    pages of [t]. *)

val release : t -> unit
(** Destroy the space's contents: return every backing frame to the
    physical allocator (in ascending vpage order), drop all mappings
    (device pages included) and forget the heap. The space itself stays
    usable for a fresh {!heap_init}. Frames still mapped elsewhere (e.g.
    a granted page a backend has not unmapped) must be unmapped there
    first — this is the last step of domain destruction. *)

val heap_init : t -> base:int -> limit:int -> unit
(** Initialise the bump allocator for kernel-heap virtual addresses. *)

val heap_alloc : t -> int -> int
(** [heap_alloc t bytes] reserves (and maps) a fresh, page-padded region and
    returns its virtual address. Raises {!Heap_exhausted} when the heap
    region is spent, [Invalid_argument] before {!heap_init}. *)
