(** Seeded input generation. Every input the benchmark hands the program
    — payload bytes, fleet pacing, churn victims, the fault plan's seed —
    is derived from the [--seed] argument through this module, so the
    same seed always produces the same inputs. *)

type t
(** A xorshift32 stream. *)

val make : int -> t
(** [make seed] mixes [seed] into a non-zero stream state; nearby seeds
    give unrelated streams. *)

val below : t -> int -> int
(** Next draw, uniform-ish in [0, bound). *)

val key : t -> int
(** A 30-bit payload key drawn from the stream. *)

val payload : key:int -> seq:int -> int -> string
(** [payload ~key ~seq len] is a [len]-byte payload ([len >= 8]) whose
    first 8 bytes hold [seq] little-endian and whose remaining bytes are a
    function of [(key, seq, index)]. *)

val seq : string -> int
(** The sequence number in a payload's first 8 bytes, unchecked; [-1] for
    a payload shorter than 8 bytes. Allocation-free. *)

val check : key:int -> string -> int
(** The sequence number carried by a payload built with the same [key],
    after comparing every byte against what {!payload} would produce;
    [-1] for a payload that is too short or differs in any byte.
    Allocation-free. *)
