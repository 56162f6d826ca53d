(* Map-window reclaim, straddle poisoning, multi-frame delivery and
   notification-batch equivalence. *)

open Td_mem
open Td_misa
open Td_svm

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let small_window_runtime m ~window_pages =
  let rt =
    Runtime.create_hypervisor ~window_pages ~dom0:m.Harness.dom0
      ~hyp:m.Harness.hyp ()
  in
  Runtime.register_natives rt m.Harness.natives;
  rt

(* a working set several times the window size soaks steadily: cold pairs
   are reclaimed and every translation still reads the right bytes *)
let test_soak_reclaim () =
  let m = Harness.make_machine () in
  let window_pages = 64 in
  let rt = small_window_runtime m ~window_pages in
  let pages = 256 in
  let base = Addr_space.heap_alloc m.Harness.dom0 (pages * Layout.page_size) in
  for i = 0 to pages - 1 do
    Addr_space.write m.Harness.dom0
      (base + (i * Layout.page_size) + 16)
      Width.W32 (0xA000 + i)
  done;
  for _round = 1 to 3 do
    for i = 0 to pages - 1 do
      let t = Runtime.translate rt (base + (i * Layout.page_size) + 16) in
      check int_c "value survives reclaim" (0xA000 + i)
        (Addr_space.read m.Harness.hyp t Width.W32)
    done
  done;
  check bool_c "reclaims happened" true (Runtime.window_reclaims rt > 0);
  check bool_c "window stays bounded" true
    (Runtime.window_pages_in_use rt <= window_pages)

let test_soak_keeps_pinned_pages () =
  let m = Harness.make_machine () in
  let rt = small_window_runtime m ~window_pages:64 in
  let pinned = Addr_space.heap_alloc m.Harness.dom0 64 in
  Addr_space.write m.Harness.dom0 pinned Width.W32 0xBEEF;
  let mapped = Runtime.persistent_map rt pinned in
  let pages = 256 in
  let base = Addr_space.heap_alloc m.Harness.dom0 (pages * Layout.page_size) in
  for i = 0 to pages - 1 do
    ignore (Runtime.translate rt (base + (i * Layout.page_size)))
  done;
  check bool_c "soak reclaimed around the pin" true
    (Runtime.window_reclaims rt > 0);
  check int_c "pinned mapping unchanged" mapped (Runtime.translate rt pinned);
  check int_c "pinned data intact" 0xBEEF
    (Addr_space.read m.Harness.hyp mapped Width.W32)

let test_all_pinned_fails_loudly () =
  let m = Harness.make_machine () in
  let rt = small_window_runtime m ~window_pages:4 in
  (* two slots, both pinned: the next miss must fail with a clear error,
     not spin in the clock sweep *)
  let a = Addr_space.heap_alloc m.Harness.dom0 Layout.page_size in
  let b = Addr_space.heap_alloc m.Harness.dom0 Layout.page_size in
  ignore (Runtime.persistent_map rt a);
  ignore (Runtime.persistent_map rt b);
  let c = Addr_space.heap_alloc m.Harness.dom0 Layout.page_size in
  check bool_c "exhaustion raises" true
    (match Runtime.translate rt c with
    | exception Failure msg ->
        (* the message must name the pinning, not the old hard 16 MB cap *)
        String.length msg > 0
    | _ -> false)

(* a mapped page whose dom0 successor does not exist must fault on a
   straddling access instead of silently reading a single-page mapping *)
let test_straddle_boundary_faults () =
  let m = Harness.make_machine () in
  let rt = Harness.hyp_runtime m in
  (* one isolated page: the next dom0 page is unmapped *)
  let page = 0xC600_0000 in
  Addr_space.alloc_region m.Harness.dom0 ~vaddr:page ~pages:1;
  Addr_space.write m.Harness.dom0 (page + 0xFFC) Width.W32 0x11223344;
  let t = Runtime.translate rt (page + 0xFFC) in
  check int_c "last word of the page reads fine" 0x11223344
    (Addr_space.read m.Harness.hyp t Width.W32);
  check bool_c "straddling read faults" true
    (match Addr_space.read m.Harness.hyp (t + 2) Width.W32 with
    | exception Runtime.Fault _ -> true
    | _ -> false);
  check bool_c "straddling write faults" true
    (match Addr_space.write m.Harness.hyp (t + 2) Width.W32 0 with
    | exception Runtime.Fault _ -> true
    | _ -> false)

(* several frames arriving before one pump must all reach the consumer —
   the regression the rx queue fixes *)
let payload_tag i = Printf.sprintf "pkt-%02d-%s" i (String.make 56 'x')

let drain w =
  let rec go acc =
    match Twindrivers.World.rx_pop w with
    | None -> List.rev acc
    | Some p -> go (p :: acc)
  in
  go []

let test_multi_frame_pump cfg () =
  let open Twindrivers in
  let w = World.create ~nics:1 cfg in
  let n = 5 in
  for i = 0 to n - 1 do
    World.inject_rx w ~nic:0 ~payload:(payload_tag i)
  done;
  World.pump w;
  check int_c "all frames delivered" n (World.delivered_rx_frames w);
  check int_c "no queue drops" 0 (World.rx_drops w);
  let got = drain w in
  check int_c "all frames popped" n (List.length got);
  List.iteri
    (fun i p -> check Alcotest.string "payload in order" (payload_tag i) p)
    got

(* batching only changes when notifications fire, never the bytes: the
   received payload stream and the wire transmit stream must be identical
   between batch=1 and batch=8 *)
let run_traffic ~batch cfg =
  let open Twindrivers in
  let tuning = { Config.default_tuning with Config.notify_batch = batch } in
  let w = World.create ~nics:1 ~tuning cfg in
  for i = 0 to 10 do
    ignore (World.transmit w ~nic:0 ~payload:(payload_tag i));
    World.inject_rx w ~nic:0 ~payload:(payload_tag i);
    if i mod 4 = 3 then World.pump w
  done;
  World.pump w;
  (drain w, World.wire_tx_frames w, World.wire_tx_bytes w)

let test_batch_identical cfg () =
  let rx1, txf1, txb1 = run_traffic ~batch:1 cfg in
  let rx8, txf8, txb8 = run_traffic ~batch:8 cfg in
  check int_c "same wire frames" txf1 txf8;
  check int_c "same wire bytes" txb1 txb8;
  check (Alcotest.list Alcotest.string) "same rx payload stream" rx1 rx8

(* observability: reclaim, invalidation and the inline-probe hits are all
   visible as counters/trace events when enabled *)
let test_obs_counters () =
  Td_obs.Control.enable ();
  Fun.protect ~finally:Td_obs.Control.disable (fun () ->
      Td_obs.Metrics.reset_all ();
      Td_obs.Trace.clear ();
      let m = Harness.make_machine () in
      let rt = small_window_runtime m ~window_pages:64 in
      let va = Addr_space.heap_alloc m.Harness.dom0 64 in
      ignore (Runtime.translate rt va);
      Runtime.invalidate_page rt va;
      check bool_c "stlb.invalidate counted" true
        (Td_obs.Metrics.counter_value "stlb.invalidate" >= 1);
      check bool_c "stlb.invalidate traced" true
        (Td_obs.Trace.exists (function
          | Td_obs.Trace.Stlb_invalidate _ -> true
          | _ -> false));
      let pages = 256 in
      let base =
        Addr_space.heap_alloc m.Harness.dom0 (pages * Layout.page_size)
      in
      for i = 0 to pages - 1 do
        ignore (Runtime.translate rt (base + (i * Layout.page_size)))
      done;
      check bool_c "svm.window_reclaim counted" true
        (Td_obs.Metrics.counter_value "svm.window_reclaim" > 0);
      check bool_c "window_reclaim traced" true
        (Td_obs.Trace.exists (function
          | Td_obs.Trace.Window_reclaim _ -> true
          | _ -> false)))

(* the interpreter's hit sites credit inline fast-path hits, so a twin
   transmit run shows far more stlb.hit than the handful the host-side
   translate calls used to account for *)
let test_inline_hits_credited () =
  Td_obs.Control.enable ();
  Fun.protect ~finally:Td_obs.Control.disable (fun () ->
      let open Twindrivers in
      let w = World.create ~nics:1 Config.Xen_twin in
      World.reset_measurement w;
      let payload = String.make 1500 'x' in
      for i = 0 to 19 do
        ignore (World.transmit w ~nic:0 ~payload);
        if i mod 8 = 7 then World.pump w
      done;
      World.pump w;
      check bool_c "inline hits counted" true
        (Td_obs.Metrics.counter_value "stlb.hit" > 50))

let suite =
  [
    Alcotest.test_case "soak: reclaim under pressure" `Quick test_soak_reclaim;
    Alcotest.test_case "soak: pinned pages survive" `Quick
      test_soak_keeps_pinned_pages;
    Alcotest.test_case "all-pinned window fails loudly" `Quick
      test_all_pinned_fails_loudly;
    Alcotest.test_case "straddle at dom0 boundary faults" `Quick
      test_straddle_boundary_faults;
    Alcotest.test_case "multi-frame pump (Linux)" `Quick
      (test_multi_frame_pump Twindrivers.Config.Native_linux);
    Alcotest.test_case "multi-frame pump (domU-twin)" `Quick
      (test_multi_frame_pump Twindrivers.Config.Xen_twin);
    Alcotest.test_case "batch stream identical (domU)" `Quick
      (test_batch_identical Twindrivers.Config.Xen_domU);
    Alcotest.test_case "batch stream identical (domU-twin)" `Quick
      (test_batch_identical Twindrivers.Config.Xen_twin);
    Alcotest.test_case "reclaim/invalidate observability" `Quick
      test_obs_counters;
    Alcotest.test_case "inline stlb hits credited" `Quick
      test_inline_hits_credited;
  ]
