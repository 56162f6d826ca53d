(** Receive-side scaling: deterministic Toeplitz hashing of the
    connection 4-tuple onto rx queues, as MSI-X multi-queue NICs do it.

    Everything here is a pure function of the seed and the packet
    bytes — no global state, no [Random] — so the same (seed, flow)
    pair selects the same queue on every run, every host, and under
    every shard count. The sharded simulation's deterministic merge
    ({!Mq}) relies on exactly this. *)

type tuple = {
  src_ip : int;
  dst_ip : int;
  src_port : int;
  dst_port : int;
}

type t

val key_bytes : int
(** 40, the classic Toeplitz key length. *)

val default_seed : int
(** 0x2A8F: the NIC model's demux and the {!Mq} front are both keyed
    from it, so they steer a flow onto the same queue. *)

val of_seed : int -> t
(** Expand a small seed into the 40-byte hash key (xorshift stream;
    seed 0 is remapped to a fixed non-zero constant). *)

val key : t -> string
(** The expanded key bytes, for inspection. *)

val hash : t -> tuple -> int
(** 32-bit Toeplitz hash over the big-endian 12-byte
    (src ip, dst ip, src port, dst port) input. *)

val queue_of_hash : int -> queues:int -> int
(** Hardware-style indirection: the low 7 hash bits index a 128-entry
    table holding the identity spread over [queues]. *)

val tuple_of_frame : string -> tuple
(** Parse the 4-tuple out of an Ethernet frame (IPv4 TCP/UDP at offset
    14). Non-IP or truncated frames fall back to a deterministic
    pseudo-tuple over the leading bytes so every frame still demuxes to
    a stable queue. *)

val tuple_of_payload : string -> tuple
(** Same, for a bare IP packet with no Ethernet header — the form
    {!World.transmit} payloads take. *)

val queue_of_frame : t -> queues:int -> string -> int
val queue_of_payload : t -> queues:int -> string -> int

val ipv4_udp_payload : ?len:int -> tuple -> string
(** Build a minimal IPv4/UDP packet carrying the given 4-tuple, padded
    to [len] bytes (default 64, minimum 28). Benches and tests use this
    to make flows whose steering is identical whether the tuple is read
    from the payload ({!queue_of_payload}, the {!Mq} front) or from the
    frame after Ethernet encapsulation would be stripped. *)
