(* Regression tests over the reproduced results themselves: the paper's
   headline claims, asserted with tolerant bounds so that calibration
   drift or a rewriter regression fails loudly. *)

open Twindrivers

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let tx cfg = Measure.run_transmit ~packets:300 (World.create ~nics:5 cfg)
let rx cfg = Measure.run_receive ~packets:300 (World.create ~nics:5 cfg)

let between lo hi v = v >= lo && v <= hi

let test_fig5_headline () =
  let twin = tx Config.Xen_twin and domu = tx Config.Xen_domU in
  let linux = tx Config.Native_linux in
  let speedup = Measure.speedup twin domu in
  check bool_c
    (Printf.sprintf "tx speedup %.2f in [2.0, 2.8] (paper 2.41)" speedup)
    true
    (between 2.0 2.8 speedup);
  let vs_linux = Measure.speedup twin linux in
  check bool_c
    (Printf.sprintf "twin/linux %.2f in [0.55, 0.85] (paper 0.64)" vs_linux)
    true
    (between 0.55 0.85 vs_linux);
  (* ordering must hold strictly *)
  let dom0 = tx Config.Xen_dom0 in
  check bool_c "ordering domU < twin < dom0 < linux" true
    (domu.Measure.cpu_limited_mbps < twin.Measure.cpu_limited_mbps
    && twin.Measure.cpu_limited_mbps < dom0.Measure.cpu_limited_mbps
    && dom0.Measure.cpu_limited_mbps < linux.Measure.cpu_limited_mbps)

let test_fig6_headline () =
  let twin = rx Config.Xen_twin and domu = rx Config.Xen_domU in
  let speedup = Measure.speedup twin domu in
  check bool_c
    (Printf.sprintf "rx speedup %.2f in [1.8, 2.6] (paper 2.17)" speedup)
    true
    (between 1.8 2.6 speedup)

let test_fig7_twin_shape () =
  let w = World.create ~nics:1 Config.Xen_twin in
  let r = Measure.run_transmit ~packets:200 w in
  let get c = List.assoc c r.Measure.breakdown in
  (* the defining property: no driver-domain work on the data path *)
  check bool_c "twin dom0 column is zero" true (get Td_xen.Ledger.Dom0 = 0.0);
  check bool_c "driver cycles present" true (get Td_xen.Ledger.Driver > 500.);
  let wd = World.create ~nics:1 Config.Xen_domU in
  let rd = Measure.run_transmit ~packets:200 wd in
  check bool_c "twin total under half of domU total (paper: 9972 vs 21159)"
    true
    (r.Measure.cycles_per_packet < 0.55 *. rd.Measure.cycles_per_packet)

let test_slowdown_band () =
  let rep = Experiments.rewrite_report ~packets:200 () in
  check bool_c
    (Printf.sprintf "slowdown %.2f in the paper's 2-3.5x band"
       rep.Experiments.slowdown)
    true
    (between 2.0 3.5 rep.Experiments.slowdown);
  check bool_c "memory fraction near the paper's ~25%" true
    (between 0.20 0.40 rep.Experiments.memory_fraction)

let test_table1_exact () =
  let t = Experiments.table1_fast_path () in
  check int_c "exactly ten fast-path routines" 10
    (List.length t.Experiments.fast_path_called);
  List.iter
    (fun n ->
      check bool_c (n ^ " is one of the paper's ten") true
        (List.mem n Td_kernel.Support.fast_path_names))
    t.Experiments.fast_path_called

let test_fig10_cliff () =
  (* the first upcall must cost more than half the throughput *)
  let base = tx Config.Xen_twin in
  let one =
    Measure.run_transmit ~packets:300
      (World.create ~nics:5
         ~tuning:
           {
             Config.default_tuning with
             Config.upcall_set = [ "dma_map_single" ];
           }
         Config.Xen_twin)
  in
  check bool_c "one upcall halves throughput (paper: 3902 -> 1638)" true
    (one.Measure.cpu_limited_mbps < 0.6 *. base.Measure.cpu_limited_mbps);
  check bool_c "but it still beats the unoptimised guest's receive" true
    (one.Measure.cpu_limited_mbps > 0.)

(* Ablations and the cost-sensitivity grid pinned to the exact values
   they produce: the rewriter-ablation rows and the grid are each driven
   by one Config.tuning field, so a field that stops reaching its
   component moves a row. *)
let test_tuning_experiments_pinned () =
  let exact = Alcotest.float 0. in
  List.iter2
    (fun (label, mbps) a ->
      check Alcotest.string "row" label a.Experiments.label;
      check exact label mbps a.Experiments.tx_cpu_scaled_mbps)
    [
      ("inline fast path (paper)", 0x1.bdb807e17b214p+11 (* 3565.75 *));
      ("probe caching (extension)", 0x1.b9509ebfee011p+11 (* 3530.52 *));
      ("always-spill", 0x1.8895328755bcep+11 (* 3140.66 *));
      ("shared helper", 0x1.a8204d7ae4877p+11 (* 3393.01 *));
      ("single-page mapping", 0x1.bdb807e17b214p+11 (* 3565.75 *));
    ]
    (Experiments.ablations ());
  List.iter2
    (fun (switch, kernel, speedup) p ->
      let cell = Printf.sprintf "switch x%g, kernel x%g" switch kernel in
      check exact (cell ^ " switch") switch p.Experiments.switch_scale;
      check exact (cell ^ " kernel") kernel p.Experiments.kernel_scale;
      check exact cell speedup p.Experiments.tx_speedup)
    [
      (0.5, 0.75, 0x1.0a25df72f8e14p+1 (* 2.08 *));
      (0.5, 1.0, 0x1.04d994e7b807ap+1 (* 2.04 *));
      (0.5, 1.5, 0x1.fc0f73d2e33efp+0 (* 1.98 *));
      (1.0, 0.75, 0x1.3596ba94c1194p+1 (* 2.42 *));
      (1.0, 1.0, 0x1.29c88089d7613p+1 (* 2.33 *));
      (1.0, 1.5, 0x1.1a7310bb381bep+1 (* 2.21 *));
      (2.0, 0.75, 0x1.86a809a692c08p+1 (* 3.05 *));
      (2.0, 1.0, 0x1.6f6e31466d9c5p+1 (* 2.87 *));
      (2.0, 1.5, 0x1.50c6cf30a9882p+1 (* 2.63 *));
      (4.0, 0.75, 0x1.0a6f4289bd582p+2 (* 4.16 *));
      (4.0, 1.0, 0x1.ebf013d4378dbp+1 (* 3.84 *));
      (4.0, 1.5, 0x1.b45cf488ca189p+1 (* 3.41 *));
    ]
    (Experiments.sensitivity ())

(* The tuning fields whose effect the pinned rows cannot show reach the
   component they configure: the single-page row equals the baseline on
   this driver, so map_pairs is checked on the SVM window itself. *)
let test_tuning_fields_reach_components () =
  let twin tuning = World.create ~nics:1 ~tuning Config.Xen_twin in
  let w =
    twin
      {
        Config.default_tuning with
        Config.pool_entries = 96;
        shard = 3;
        upcall_set = [ "spin_trylock" ];
      }
  in
  check int_c "pool_entries sizes the skb pool" 96
    (Td_kernel.Skb_pool.size (Option.get (World.pool w)));
  let rt = Option.get (World.svm w) in
  check int_c "shard selects the stlb partition"
    (Td_mem.Layout.stlb_base
    + (3 * Td_mem.Layout.stlb_entries * Td_mem.Layout.stlb_entry_bytes))
    (Td_svm.Stlb.vaddr (Td_svm.Runtime.stlb rt));
  check int_c "World.shard" 3 (World.shard w);
  ignore (World.transmit w ~nic:0 ~payload:(String.make 200 'u'));
  check bool_c "upcall_set demotes to upcalls" true
    (Td_kernel.Support.total_upcalls (World.support w) > 0);
  (* a straddling read through the successor of a freshly mapped page:
     served with paired mappings, a fault without *)
  let straddles tuning =
    let w = twin tuning in
    let page_size = Td_mem.Layout.page_size in
    let page =
      Td_mem.Layout.page_base
        (Td_kernel.Kmem.alloc (World.kmem w) (3 * page_size) + page_size)
    in
    let rt = Option.get (World.svm w) in
    let mapped = Td_svm.Runtime.translate rt page in
    let xen = Option.get (World.cpu_state w).Td_cpu.State.hyp_space in
    match Td_mem.Addr_space.read xen (mapped + page_size) Td_misa.Width.W32 with
    | (_ : int) -> true
    | exception Td_svm.Runtime.Fault _ -> false
  in
  check bool_c "paired mapping serves the successor page" true
    (straddles Config.default_tuning);
  check bool_c "map_pairs = false poisons the successor page" false
    (straddles { Config.default_tuning with Config.map_pairs = false })

let suite =
  [
    Alcotest.test_case "fig5 headline" `Slow test_fig5_headline;
    Alcotest.test_case "fig6 headline" `Slow test_fig6_headline;
    Alcotest.test_case "fig7 twin shape" `Slow test_fig7_twin_shape;
    Alcotest.test_case "slowdown band" `Slow test_slowdown_band;
    Alcotest.test_case "table1 exact" `Slow test_table1_exact;
    Alcotest.test_case "fig10 cliff" `Slow test_fig10_cliff;
    Alcotest.test_case "tuning experiments pinned" `Slow
      test_tuning_experiments_pinned;
    Alcotest.test_case "tuning fields reach their components" `Quick
      test_tuning_fields_reach_components;
  ]
