(* Every interpreter engine credits the inline stlb probe's hits: a
   default domU-twin world under Compiled, Block and Per_step dispatch
   counts the same [stlb.hit], emits the same trace, reclaims the same
   map-window pairs and charges the same ledger — over generated frame
   sequences, in both directions. *)

open Twindrivers

type outcome = {
  hits : int;
  events : Td_obs.Trace.event list;
  reclaims : int;
  ledger : int list;
  frames : int * int;
  compiled_blocks : int;
}

let trace_capacity = 1 lsl 18

let run ?window ~dir mode sizes =
  Td_obs.Control.with_enabled @@ fun () ->
  Td_obs.Metrics.reset_all ();
  Td_obs.Trace.set_capacity trace_capacity;
  let w =
    match window with
    | None -> World.create ~nics:1 Config.Xen_twin
    | Some pages ->
        (* a small pool pins few pages, leaving the rest to the clock *)
        World.create ~nics:1
          ~tuning:
            {
              Config.default_tuning with
              Config.map_window_pages = pages;
              pool_entries = 96;
            }
          Config.Xen_twin
  in
  Td_cpu.Interp.set_dispatch (World.interp w) mode;
  List.iteri
    (fun i n ->
      let payload = String.init n (fun j -> Char.chr ((i + j) land 0xFF)) in
      (match dir with
      | `Tx -> ignore (World.transmit w ~nic:0 ~payload)
      | `Rx -> World.inject_rx w ~nic:0 ~payload);
      if i mod 8 = 7 then World.pump w)
    sizes;
  World.pump w;
  if Td_obs.Trace.emitted () > trace_capacity then
    Alcotest.fail "trace ring overflowed";
  let o =
    {
      hits = Td_obs.Metrics.counter_value "stlb.hit";
      events = List.map (fun r -> r.Td_obs.Trace.event) (Td_obs.Trace.records ());
      reclaims =
        (match World.svm w with
        | Some rt -> Td_svm.Runtime.window_reclaims rt
        | None -> 0);
      ledger =
        List.map (Td_xen.Ledger.total (World.ledger w)) Td_xen.Ledger.categories;
      frames =
        ( World.wire_tx_frames w + World.delivered_rx_frames w,
          World.wire_tx_bytes w + World.delivered_rx_bytes w );
      compiled_blocks = Td_cpu.Interp.compiled_blocks (World.interp w);
    }
  in
  Td_obs.Trace.set_capacity 4096;
  o

let hit_events o =
  List.filter_map
    (function Td_obs.Trace.Stlb_hit { addr } -> Some addr | _ -> None)
    o.events

let same a b =
  a.hits = b.hits
  && hit_events a = hit_events b
  && a.events = b.events && a.reclaims = b.reclaims && a.ledger = b.ledger
  && a.frames = b.frames

(* The 96-entry pool pins about 290 window pages; a window a few pairs
   larger keeps the clock reclaiming throughout the traffic, so which
   pairs survive depends on the referenced bits the hit credits set. *)
let small_window = 294

let engines_agree ?window ~dir sizes =
  let c = run ?window ~dir Td_cpu.Interp.Compiled sizes in
  let b = run ?window ~dir Td_cpu.Interp.Block sizes in
  let p = run ?window ~dir Td_cpu.Interp.Per_step sizes in
  if not (same c b && same c p) then
    QCheck.Test.fail_reportf
      "engines disagree: stlb.hit %d/%d/%d, reclaims %d/%d/%d" c.hits b.hits
      p.hits c.reclaims b.reclaims p.reclaims;
  if c.compiled_blocks = 0 then
    QCheck.Test.fail_report "default twin world compiled no superblock";
  if c.hits = 0 then QCheck.Test.fail_report "no inline stlb hit credited";
  (match window with
  | Some _ when c.reclaims = 0 ->
      QCheck.Test.fail_report "small window never reclaimed"
  | _ -> ());
  true

let frame_sizes = QCheck.(list_of_size Gen.(int_range 8 24) (int_range 64 1500))

let prop ?window ~dir name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:3 frame_sizes (engines_agree ?window ~dir))

let suite =
  [
    prop ~dir:`Tx "twin tx: engines credit identical stlb hits";
    prop ~dir:`Rx "twin rx: engines credit identical stlb hits";
    prop ~window:small_window ~dir:`Tx
      "twin tx, small window: identical reclaims";
    prop ~window:small_window ~dir:`Rx
      "twin rx, small window: identical reclaims";
  ]
