(** The four system configurations evaluated in the paper (§6). *)

type t =
  | Native_linux  (** bare-metal Linux: kernel + original driver *)
  | Xen_dom0  (** the driver domain itself doing the I/O on Xen *)
  | Xen_domU  (** unoptimised guest: netfront / netback / bridge *)
  | Xen_twin  (** guest with the TwinDrivers hypervisor driver *)

val name : t -> string
val all : t list
val of_string : string -> t option

(** What the supervisor does when a driver instance aborts (SVM fault,
    page fault, watchdog timeout, failed upcall). *)
type recovery =
  | Fail_stop
      (** the default: the abort propagates as
          {!World.Driver_aborted} and the NIC stays quarantined. *)
  | Restart
      (** quarantine, tear down the twin instance, reload + re-init from
          shadow state; in-flight TX frames are dropped and counted in
          [fault.lost_frames]. *)
  | Restart_replay
      (** like [Restart], but the frame whose transmit aborted is
          replayed once on the fresh instance ([fault.replayed]). *)

val recovery_name : recovery -> string
val recovery_of_string : string -> recovery option
val all_recoveries : recovery list

(** Everything about a world beyond its configuration and shape: the
    one record {!World.create} takes. Each field's default is in
    {!default_tuning}; a field that only applies to some configurations
    is ignored by the others. *)
type tuning = {
  map_window_pages : int;
      (** SVM mapped-page window size in pages (two per mapped pair);
          smaller windows reclaim cold pairs sooner. Xen_twin only. *)
  notify_batch : int;
      (** TX/RX event notifications coalesced per hypercall / virtual
          interrupt (1 = kick every frame, the paper's baseline; must be
          [>= 1]). Flushed on ring pressure, {!World.pump} and
          {!World.tick}. Batching changes only when notifications are
          sent, never the frame payloads or their order. *)
  recovery : recovery;  (** driver supervisor policy on abort. *)
  doorbell : bool;
      (** Give each I/O channel a shared doorbell page with NAPI-style
          adaptive mode switching (see {!Xen_netio.doorbell_cfg}); a
          polling direction falls back to interrupts after 3 empty tick
          windows and drains at most 16 frames per visit. Xen_domU
          only. *)
  poll_entry_kicks : int;
      (** Notification boundaries per tick window before a direction
          switches from interrupts to polling; [<= 0] pins always-poll.
          Ignored unless [doorbell]. *)
  quota : Td_xen.Quota.limits option;
      (** Per-domain resource quotas (map-window pages, grant entries and
          maps, upcall/notification/doorbell rates, rx deliveries,
          grant-copy bytes), enforced against every domain except dom0.
          [None] builds no engine and every check is a no-op. The engine
          belongs to the world (it lives on the world's hypervisor), so
          N worlds — and N parallel shards — enforce independently. *)
  fault_plan : Td_fault.plan option;
      (** Fault-injection plan for this world's own engine, armed once
          the driver has booted so boot is never perturbed. [None] leaves
          the engine disarmed and nothing is injected. *)
  queues : int;
      (** tx/rx ring pairs per NIC (MSI-X style). Queue 0 keeps the
          legacy register block and INTx cause bits. With more queues
          the device steers rx frames with the RSS demux and raises one
          interrupt vector per queue. *)
  shards : int;
      (** OCaml domains used by {!Mq} to advance independent
          (guest, queue) execution contexts in parallel (1 =
          sequential). The merged cycle ledger is bit-identical for any
          shard count — sharding changes host wall-clock only. The RSS
          demux is keyed from the fixed {!Td_nic.Rss.default_seed}. *)
  shard : int;
      (** This world's index as one (guest, queue) execution context of
          a sharded simulation ({!Mq} sets it per context; must be
          [>= 0]). It selects the world's stlb partition (32 KiB tables
          packed between [Layout.stlb_base] and the hypervisor scratch
          page, partition [shard mod 32]) and the per-queue doorbell
          words of its I/O channels. Shard 0 is a plain world. *)
  upcall_set : string list;
      (** Fast-path support routines demoted to upcalls — the Figure 10
          experiment. Xen_twin only. *)
  pool_entries : int;
      (** Size of the hypervisor's preallocated sk_buff pool. Xen_twin
          only. *)
  costs : Td_xen.Sys_costs.t;
      (** Calibrated system-path cycle costs the world charges; the
          sensitivity experiment scales them. *)
  spill_everything : bool;
      (** Rewriter ablation: always spill instead of taking scratch
          registers from the liveness analysis (footnote 3). Xen_twin
          only. *)
  rewrite_style : Td_rewriter.Rewrite.style;
      (** Rewriter ablation: the inline fast path (the paper's design)
          or one shared helper. Xen_twin only. *)
  cache_probes : bool;
      (** Rewriter extension: within a basic block, a later access
          through the same unmodified registers less than a page further
          on reuses the earlier probe's translation. Xen_twin only. *)
  map_pairs : bool;
      (** SVM maps two consecutive pages per stlb miss, as the paper
          prescribes; [false] maps one, the DESIGN.md ablation that
          makes page-straddling accesses fault. Xen_twin only. *)
}

val default_tuning : tuning
(** Full 16 MB window, batch 1, fail-stop, doorbell off with 8 entry
    kicks, no quotas or fault plan, one queue and one shard (index 0),
    no demoted upcalls, a 1,024-entry pool, {!Td_xen.Sys_costs.default},
    and the {!Td_rewriter.Twin.derive} defaults (liveness scratch,
    inline fast path, no probe caching) with paired mappings. *)
