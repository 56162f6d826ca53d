open Twindrivers
module Ledger = Td_xen.Ledger
module Interp = Td_cpu.Interp

type metric = { name : string; value : float; unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  checks : (string * bool) list;
  digest : string;
}

(* ---- counter snapshots ---- *)

let obs_counters =
  [|
    "xen.hypercall";
    "xen.virq";
    "skb.alloc";
    "skb.pool.alloc";
    "nic.dma.read_bytes";
    "nic.dma.write_bytes";
    "stlb.hit";
    "stlb.miss";
  |]

let obs_index name =
  let rec go i = if obs_counters.(i) = name then i else go (i + 1) in
  go 0

type snap = {
  words : float;  (** minor + major - promoted: words the process allocated *)
  promoted : float;
  minor_gcs : int;
  major_gcs : int;
  top_heap_words : int;
  attempted : int;
  delivered : int;
  cycles : int;
  by_category : int array;  (** [Ledger.categories] order *)
  steps : int;
  block_hits : int;
  block_misses : int;
  compiled_hits : int;
  compiled_bailouts : int;
  compiled_blocks : int;
  stlb_elided : int;
  svm_misses : int;
  svm_collisions : int;
  svm_reclaims : int;
  upcalls : int;
  suppressed : int;
  mode_switches : int;
  switches : int;
  throttled : int;
  injected : int;
  recoveries : int;
  lost : int;
  obs : int array;  (** [obs_counters] order; zero while obs is off *)
  grant_copies : int;
  svm_calls : int;
  support_calls : int;
  mmio_accesses : int;
}

let snap probe (d : Workload.t) =
  let minor, promoted, major = Gc.counters () in
  let gc = Gc.quick_stat () in
  let w = d.Workload.world in
  let led = World.ledger w in
  let it = World.interp w in
  let svm f = match World.svm w with Some rt -> f rt | None -> 0 in
  {
    words = minor +. major -. promoted;
    promoted;
    minor_gcs = gc.Gc.minor_collections;
    major_gcs = gc.Gc.major_collections;
    top_heap_words = gc.Gc.top_heap_words;
    attempted = d.Workload.tally.Workload.attempted;
    delivered = Workload.reached d;
    cycles = Ledger.grand_total led;
    by_category =
      Array.of_list (List.map (Ledger.total led) Ledger.categories);
    steps = (World.cpu_state w).Td_cpu.State.steps;
    block_hits = Interp.block_hits it;
    block_misses = Interp.block_misses it;
    compiled_hits = Interp.compiled_hits it;
    compiled_bailouts = Interp.compiled_bailouts it;
    compiled_blocks = Interp.compiled_blocks it;
    stlb_elided = Interp.stlb_elided it;
    svm_misses = svm Td_svm.Runtime.misses;
    svm_collisions = svm Td_svm.Runtime.collisions;
    svm_reclaims = svm Td_svm.Runtime.window_reclaims;
    upcalls = Td_kernel.Support.total_upcalls (World.support w);
    suppressed = World.netio_suppressed_hypercalls w;
    mode_switches = World.netio_mode_switches w;
    switches =
      (match World.hypervisor w with
      | Some h -> Td_xen.Hypervisor.switches h
      | None -> 0);
    throttled = World.quota_throttled w;
    injected = World.fault_injected w;
    recoveries = World.recoveries w;
    lost = World.fault_lost w;
    obs =
      (if Td_obs.Control.enabled () then
         Array.map Td_obs.Metrics.counter_value obs_counters
       else Array.make (Array.length obs_counters) 0);
    grant_copies = Probe.grant_copies probe;
    svm_calls = Probe.count probe Probe.Svm;
    support_calls = Probe.count probe Probe.Support;
    mmio_accesses = Probe.count probe Probe.Mmio;
  }

(* every simulated quantity a reader could compare goes into the digest,
   so equal digests mean the simulated runs matched *)
let digest (d : Workload.t) =
  let w = d.Workload.world and ta = d.Workload.tally in
  let led = World.ledger w in
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter
    (fun (c, v) -> add "%s=%d;" (Ledger.category_name c) v)
    (Ledger.snapshot led);
  List.iter (fun (dom, v) -> add "%s=%d;" dom v) (Ledger.domain_snapshot led);
  List.iter
    (fun (tag, dir) ->
      add "%s:%d" tag (Ledger.latency_count led dir);
      List.iter
        (fun p ->
          match Ledger.latency_percentile led dir p with
          | None -> add "/-"
          | Some v -> add "/%.0f" v)
        [ 50.; 99.; 99.9 ];
      add ";")
    [ ("tx", `Tx); ("rx", `Rx) ];
  add "wire=%d/%d;rx=%d/%d;" (World.wire_tx_frames w) (World.wire_tx_bytes w)
    (World.delivered_rx_frames w)
    (World.delivered_rx_bytes w);
  add "attempted=%d;tx_ok=%d;tx_failed=%d;rx_ok=%d;rx_bad=%d;rx_stray=%d;churned=%d;"
    ta.Workload.attempted ta.Workload.tx_ok ta.Workload.tx_failed
    ta.Workload.rx_ok ta.Workload.rx_bad ta.Workload.rx_stray ta.Workload.churned;
  add "steps=%d;throttled=%d;faults=%d;recoveries=%d;"
    (World.cpu_state w).Td_cpu.State.steps
    (World.quota_throttled w) (World.fault_injected w) (World.recoveries w);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- running ---- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type setup = {
  total_s : float;
  create_s : float;
  guests_s : float;
  raw_s : float;  (** [total_s] uncalibrated *)
}

(* Build [reps] worlds from a collected heap, time each (calibrated, see
   {!Calib}) and keep the last. Back-to-back builds vary widely on a
   shared host, so the median is reported. *)
let setup (spec : Workload.spec) ~seed =
  let totals = ref [] and creates = ref [] and guests = ref [] and raws = ref [] in
  let last = ref None in
  for _ = 1 to spec.Workload.setup_reps do
    last := None;
    Gc.full_major ();
    let before = Calib.time () in
    let t0 = Clock.now_ns () in
    let w, create_ns, guests_ns = spec.Workload.build ~seed in
    let total_ns = Clock.now_ns () - t0 in
    let scale = Calib.scale before (Calib.time ()) in
    let s ns = float_of_int ns *. 1e-9 *. scale in
    totals := s total_ns :: !totals;
    raws := (float_of_int total_ns *. 1e-9) :: !raws;
    creates := s create_ns :: !creates;
    guests := s guests_ns :: !guests;
    last := Some w
  done;
  ( Option.get !last,
    {
      total_s = median !totals;
      create_s = median !creates;
      guests_s = median !guests;
      raw_s = median !raws;
    } )

let derive_s () =
  median
    (List.init 5 (fun _ ->
         let t0 = Clock.now_ns () in
         ignore (Td_rewriter.Twin.derive (Td_driver.E1000_driver.source ()));
         float_of_int (Clock.now_ns () - t0) *. 1e-9))

(* The timed window's clock: each lap's raw host µs per frame and, in an
   untraced run, the same scaled by the calibrations taken on either side
   of it. Traced runs skip calibration, so their wall time is spans plus
   the benchmark's own bookkeeping. *)
type window = {
  calibrated : bool;
  mutable elapsed : int;  (** summed raw lap nanoseconds *)
  mutable calib : int;  (** the latest calibration *)
  mutable raw_rates : float list;  (** raw µs per frame, one per lap *)
  mutable rates : float list;  (** calibrated µs per frame, one per lap *)
}

let new_window ~calibrated =
  {
    calibrated;
    elapsed = 0;
    calib = (if calibrated then Calib.time () else 0);
    raw_rates = [];
    rates = [];
  }

(* Run [units] in laps of [lap], reading the clock around each lap only
   and draining the probe's trace ring between laps. *)
let run_laps win probe (d : Workload.t) ~units ~lap =
  for _ = 1 to units / lap do
    let frames0 = d.Workload.tally.Workload.attempted in
    let t0 = Clock.now_ns () in
    for _ = 1 to lap do
      d.Workload.step ()
    done;
    let ns = Clock.now_ns () - t0 in
    let frames = d.Workload.tally.Workload.attempted - frames0 in
    win.elapsed <- win.elapsed + ns;
    let raw = float_of_int ns *. 1e-3 /. float_of_int frames in
    win.raw_rates <- raw :: win.raw_rates;
    if win.calibrated then begin
      let calib = Calib.time () in
      win.rates <- (raw *. Calib.scale win.calib calib) :: win.rates;
      win.calib <- calib
    end;
    if Probe.on probe then Probe.drain probe
  done

type segment = {
  s0 : snap;
  s1 : snap;
  ns : int;
  raw_us_per_frame : float;  (** median over the segment's laps *)
  digest : string;
}

(* Warm up, then run the reference segment. The segment starts from an
   empty minor heap and a fresh major cycle, so its GC counters depend on
   its own allocations only, not on what the process did before. *)
let reference win probe (spec : Workload.spec) (d : Workload.t) ~before =
  for _ = 1 to spec.Workload.warmup do
    d.Workload.step ()
  done;
  Gc.full_major ();
  before ();
  let s0 = snap probe d in
  let ns0 = win.elapsed and laps0 = List.length win.raw_rates in
  run_laps win probe d ~units:spec.Workload.reference ~lap:spec.Workload.lap;
  let s1 = snap probe d in
  let n = List.length win.raw_rates - laps0 in
  let laps = List.filteri (fun i _ -> i < n) win.raw_rates in
  {
    s0;
    s1;
    ns = win.elapsed - ns0;
    raw_us_per_frame = median laps;
    digest = digest d;
  }

(* Keep running laps until the timed window (reference included) covers
   [seconds]. *)
let extend win probe (spec : Workload.spec) d ~seconds =
  let target = int_of_float (seconds *. 1e9) in
  while win.elapsed < target do
    run_laps win probe d ~units:spec.Workload.lap ~lap:spec.Workload.lap
  done

let sim_equal a b =
  a.cycles = b.cycles && a.by_category = b.by_category
  && a.delivered = b.delivered && a.attempted = b.attempted
  && a.steps = b.steps

(* ---- metrics ---- *)

let end_to_end =
  [
    ("host_us_per_frame", "us");
    ("alloc_words_per_frame", "words");
    ("peak_heap_mb", "MB");
    ("sim_cycles_per_frame", "cycles");
    ("setup_s", "s");
  ]

let op_metrics =
  List.concat_map
    (fun k ->
      let n = Probe.kind_name k in
      [ (n ^ ".us_p50", "us"); (n ^ ".us_p99", "us"); (n ^ ".samples", "count") ])
    Probe.world_ops

let category_metric c =
  Printf.sprintf "xen.sim_cycles.%s_per_frame"
    (match c with
    | Ledger.Dom0 -> "dom0"
    | Ledger.DomU -> "domU"
    | Ledger.Xen -> "xen"
    | Ledger.Driver -> "driver")

let per_layer =
  op_metrics
  @ [
      ("world.self_us_per_frame", "us");
      ("world.self_share", "ratio");
      ("cpu.insn_per_frame", "insn");
      ("cpu.sim_minsn_per_host_s", "Minsn/s");
      ("cpu.block_misses_per_frame", "count");
      ("cpu.compiled_hits_per_frame", "count");
      ("cpu.compiled_hit_ratio", "ratio");
      ("cpu.compiled_blocks", "count");
      ("cpu.compiled_bailouts", "count");
      ("cpu.stlb_elided_per_frame", "count");
      ("svm.native.calls_per_frame", "count");
      ("svm.native.us_per_frame", "us");
      ("svm.misses_per_frame", "count");
      ("svm.collisions_per_frame", "count");
      ("svm.window_reclaims", "count");
      ("svm.stlb_hit_ratio", "ratio");
      ("kernel.support.calls_per_frame", "count");
      ("kernel.support.us_per_frame", "us");
      ("kernel.upcalls_per_frame", "count");
      ("kernel.skb_allocs_per_frame", "count");
      ("kernel.netio.suppressed_hypercalls_per_frame", "count");
      ("kernel.netio.mode_switches", "count");
      ("nic.mmio.accesses_per_frame", "count");
      ("nic.mmio.us_per_frame", "us");
      ("nic.dma_bytes_per_frame", "bytes");
      ("xen.world_switches_per_frame", "count");
      ("xen.hypercalls_per_frame", "count");
      ("xen.virqs_per_frame", "count");
      ("xen.grant_copies_per_frame", "count");
      ("xen.quota_throttled_share", "ratio");
    ]
  @ List.map (fun c -> (category_metric c, "cycles")) Ledger.categories
  @ [
      ("fault.injected", "count");
      ("fault.recoveries", "count");
      ("fault.lost_frames", "count");
      ("fault.soak.failed_frames", "count");
      ("fault.soak.lost_frames", "count");
      ("fault.soak.unattributed_frames", "count");
      ("fault.soak.corrupted_frames", "count");
      ("host.raw_us_per_frame", "us");
      ("rewriter.derive_s", "s");
      ("setup.world_create_s", "s");
      ("setup.guests_s", "s");
      ("setup.raw_s", "s");
      ("mem.frames_allocated", "frames");
      ("mem.dom0_mapped_pages", "pages");
      ("gc.minor_collections_per_kframe", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_words_per_frame", "words");
      ("trace.overhead_ratio", "ratio");
      ("trace.alloc_ratio", "ratio");
      ("trace.spans", "count");
    ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if b = 0.0 then 0.0 else a /. b

let with_units table values =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some value -> { name; value; unit }
      | None -> invalid_arg ("perfbench: metric not computed: " ^ name))
    table

let end_to_end_values ~setup ~(seg : segment) ~win =
  let frames = seg.s1.attempted - seg.s0.attempted in
  let delivered = seg.s1.delivered - seg.s0.delivered in
  [
    ("host_us_per_frame", median win.rates);
    ("alloc_words_per_frame", (seg.s1.words -. seg.s0.words) /. float_of_int frames);
    ( "peak_heap_mb",
      float_of_int (seg.s1.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
    ("sim_cycles_per_frame", ratio (seg.s1.cycles - seg.s0.cycles) delivered);
    ("setup_s", setup.total_s);
  ]

let per_layer_values probe ~setup ~derive ~(plain : segment) ~soak
    ~(traced : segment) ~wall_ns ~window_frames ~(world : World.t) =
  let a = traced.s0 and b = traced.s1 in
  let frames = b.attempted - a.attempted in
  let delivered = b.delivered - a.delivered in
  let per x y = ratio (y - x) frames in
  let obs name = b.obs.(obs_index name) - a.obs.(obs_index name) in
  let us_per_frame ns = float_of_int ns *. 1e-3 /. float_of_int window_frames in
  let us ns = float_of_int ns *. 1e-3 in
  let ops =
    List.concat_map
      (fun k ->
        let n = Probe.kind_name k in
        [
          (n ^ ".us_p50", us (Probe.percentile_ns probe k 50.0));
          (n ^ ".us_p99", us (Probe.percentile_ns probe k 99.0));
          (n ^ ".samples", float_of_int (Probe.count probe k));
        ])
      Probe.world_ops
  in
  let world_self =
    List.fold_left (fun acc k -> acc + Probe.self_ns probe k) 0 Probe.world_ops
  in
  let dispatches =
    b.compiled_hits - a.compiled_hits + (b.block_hits - a.block_hits)
    + (b.block_misses - a.block_misses)
  in
  let probes = obs "stlb.hit" + obs "stlb.miss" in
  let pa = plain.s0 and pb = plain.s1 in
  let plain_frames = pb.attempted - pa.attempted in
  let categories =
    List.mapi
      (fun i c ->
        (category_metric c, ratio (b.by_category.(i) - a.by_category.(i)) delivered))
      Ledger.categories
  in
  let dom0 = World.dom0_space world in
  ops
  @ [
      ("world.self_us_per_frame", us_per_frame world_self);
      ("world.self_share", ratio world_self wall_ns);
      ("cpu.insn_per_frame", per a.steps b.steps);
      ( "cpu.sim_minsn_per_host_s",
        fratio (float_of_int (pb.steps - pa.steps)) (float_of_int plain.ns *. 1e-3) );
      ("cpu.block_misses_per_frame", per a.block_misses b.block_misses);
      ("cpu.compiled_hits_per_frame", per a.compiled_hits b.compiled_hits);
      ("cpu.compiled_hit_ratio", ratio (b.compiled_hits - a.compiled_hits) dispatches);
      ("cpu.compiled_blocks", float_of_int b.compiled_blocks);
      ("cpu.compiled_bailouts", float_of_int (b.compiled_bailouts - a.compiled_bailouts));
      ("cpu.stlb_elided_per_frame", per a.stlb_elided b.stlb_elided);
      ("svm.native.calls_per_frame", per a.svm_calls b.svm_calls);
      ("svm.native.us_per_frame", us_per_frame (Probe.self_ns probe Probe.Svm));
      ("svm.misses_per_frame", per a.svm_misses b.svm_misses);
      ("svm.collisions_per_frame", per a.svm_collisions b.svm_collisions);
      ("svm.window_reclaims", float_of_int (b.svm_reclaims - a.svm_reclaims));
      ("svm.stlb_hit_ratio", ratio (obs "stlb.hit") probes);
      ("kernel.support.calls_per_frame", per a.support_calls b.support_calls);
      ( "kernel.support.us_per_frame",
        us_per_frame (Probe.self_ns probe Probe.Support) );
      ("kernel.upcalls_per_frame", per a.upcalls b.upcalls);
      ( "kernel.skb_allocs_per_frame",
        ratio (obs "skb.alloc" + obs "skb.pool.alloc") frames );
      ( "kernel.netio.suppressed_hypercalls_per_frame",
        per a.suppressed b.suppressed );
      ("kernel.netio.mode_switches", float_of_int (b.mode_switches - a.mode_switches));
      ("nic.mmio.accesses_per_frame", per a.mmio_accesses b.mmio_accesses);
      ("nic.mmio.us_per_frame", us_per_frame (Probe.self_ns probe Probe.Mmio));
      ( "nic.dma_bytes_per_frame",
        ratio (obs "nic.dma.read_bytes" + obs "nic.dma.write_bytes") frames );
      ("xen.world_switches_per_frame", per a.switches b.switches);
      ("xen.hypercalls_per_frame", ratio (obs "xen.hypercall") frames);
      ("xen.virqs_per_frame", ratio (obs "xen.virq") frames);
      ("xen.grant_copies_per_frame", per a.grant_copies b.grant_copies);
      ("xen.quota_throttled_share", per a.throttled b.throttled);
    ]
  @ categories
  @ [
      ("fault.injected", float_of_int (b.injected - a.injected));
      ("fault.recoveries", float_of_int (b.recoveries - a.recoveries));
      ("fault.lost_frames", float_of_int (b.lost - a.lost));
    ]
  @ soak
  @ [
      ("host.raw_us_per_frame", plain.raw_us_per_frame);
      ("rewriter.derive_s", derive);
      ("setup.world_create_s", setup.create_s);
      ("setup.guests_s", setup.guests_s);
      ("setup.raw_s", setup.raw_s);
      ( "mem.frames_allocated",
        float_of_int
          (Td_mem.Phys_mem.frames_allocated (Td_mem.Addr_space.phys dom0)) );
      ("mem.dom0_mapped_pages", float_of_int (Td_mem.Addr_space.mapped_pages dom0));
      ( "gc.minor_collections_per_kframe",
        1000.0 *. ratio (pb.minor_gcs - pa.minor_gcs) plain_frames );
      ("gc.major_collections", float_of_int (pb.major_gcs - pa.major_gcs));
      ( "gc.promoted_words_per_frame",
        (pb.promoted -. pa.promoted) /. float_of_int plain_frames );
      ("trace.overhead_ratio", ratio traced.ns plain.ns);
      ( "trace.alloc_ratio",
        fratio (b.words -. a.words) (pb.words -. pa.words) );
      ("trace.spans", float_of_int (Probe.spans probe));
    ]

(* ---- the two kinds of run ---- *)

let untraced (spec : Workload.spec) ~seed ~seconds =
  let probe = Probe.create () in
  let w, st = setup spec ~seed in
  let d = spec.Workload.start probe ~seed w in
  let win = new_window ~calibrated:true in
  let seg = reference win probe spec d ~before:ignore in
  extend win probe spec d ~seconds;
  Printf.eprintf "raw host us/frame, median over laps: %.3f\n" (median win.raw_rates);
  d.Workload.finish ();
  let values = end_to_end_values ~setup:st ~seg ~win in
  (d, seg, with_units end_to_end values, [])

let spans_path (spec : Workload.spec) =
  let dir = ".bench_build" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir ("spans-" ^ spec.Workload.name ^ ".tsv")

(* Warm-up and reference segment of the workload's soak world, shut down
   so its frame accounting is final: frames failed, of the missing ones
   those the fault engine counts lost and the others, and the corrupted.
   Workloads without a soak world report zeros. *)
let soak (spec : Workload.spec) ~seed =
  let values ~failed ~lost ~missing ~corrupted =
    List.map
      (fun (name, n) -> (name, float_of_int n))
      [
        ("fault.soak.failed_frames", failed);
        ("fault.soak.lost_frames", lost);
        ("fault.soak.unattributed_frames", missing - lost);
        ("fault.soak.corrupted_frames", corrupted);
      ]
  in
  match spec.Workload.soak with
  | None -> (values ~failed:0 ~lost:0 ~missing:0 ~corrupted:0, [])
  | Some build ->
      let w = build ~seed in
      let d = spec.Workload.start (Probe.create ()) ~seed w in
      for _ = 1 to spec.Workload.warmup + spec.Workload.reference do
        d.Workload.step ()
      done;
      d.Workload.finish ();
      Printf.eprintf
        "fault soak: %d attempted, %d failed, %d missing (%d counted lost by \
         the fault engine), %d corrupted\n"
        d.Workload.tally.Workload.attempted (Workload.failed d)
        (Workload.missing d) (World.fault_lost w) (Workload.corrupted d);
      ( values ~failed:(Workload.failed d) ~lost:(World.fault_lost w)
          ~missing:(Workload.missing d) ~corrupted:(Workload.corrupted d),
        List.map
          (fun (name, ok) -> ("fault soak: " ^ name, ok))
          (Workload.soak_checks d) )

let traced (spec : Workload.spec) ~seed ~seconds =
  (* the untraced reference segment the traced one must reproduce; its
     world then shuts down, so its frame accounting is final *)
  let plain, st, plain_checks =
    let plain_probe = Probe.create () in
    let w, st = setup spec ~seed in
    let d = spec.Workload.start plain_probe ~seed w in
    let seg = reference (new_window ~calibrated:false) plain_probe spec d ~before:ignore in
    d.Workload.finish ();
    ( seg,
      st,
      List.map (fun (name, ok) -> ("untraced reference: " ^ name, ok)) (Workload.checks d) )
  in
  let derive = if spec.Workload.derives_twin then derive_s () else 0.0 in
  (* each finished world is garbage: collect it before building the next *)
  Gc.full_major ();
  let soak, soak_checks = soak spec ~seed in
  Gc.full_major ();
  let probe = Probe.create () in
  let w, _, _ = spec.Workload.build ~seed in
  let d = spec.Workload.start probe ~seed w in
  let t0 = ref 0 and win = new_window ~calibrated:false in
  let seg =
    reference win probe spec d ~before:(fun () ->
        Probe.instrument probe w;
        t0 := Clock.now_ns ())
  in
  extend win probe spec d ~seconds;
  let wall_ns = Clock.now_ns () - !t0 in
  let window_frames = d.Workload.tally.Workload.attempted - seg.s0.attempted in
  let kinds = Probe.world_ops @ [ Probe.Svm; Probe.Support; Probe.Mmio ] in
  let span_checks =
    [
      ("every span closed", Probe.depth probe = 0);
      ( "no span's children outlast it",
        List.for_all (fun k -> Probe.self_ns probe k >= 0) kinds );
      ("spans lie inside the timed laps", Probe.top_ns probe <= win.elapsed);
    ]
  in
  let values =
    per_layer_values probe ~setup:st ~derive ~plain ~soak ~traced:seg
      ~wall_ns ~window_frames ~world:w
  in
  let path = spans_path spec in
  Probe.write_spans probe path;
  Printf.eprintf "span log: %s\n" path;
  d.Workload.finish ();
  Td_obs.Control.disable ();
  let checks =
    plain_checks @ soak_checks
    @ [
        ( "traced simulated counters = untraced",
          sim_equal plain.s1 seg.s1 && sim_equal plain.s0 seg.s0 );
        ("traced digest = untraced digest", String.equal plain.digest seg.digest);
      ]
    @ span_checks
  in
  (d, seg, with_units per_layer values, checks)

let run spec ~seed ~seconds ~trace =
  Td_obs.Control.disable ();
  let d, seg, metrics, trace_checks =
    if trace then traced spec ~seed ~seconds else untraced spec ~seed ~seconds
  in
  Printf.eprintf
    "frames: %d attempted, %d delivered, %d refused, %d missing (%d counted \
     lost by the fault engine), %d corrupted\n"
    d.Workload.tally.Workload.attempted (Workload.delivered d)
    d.Workload.tally.Workload.tx_failed (Workload.missing d)
    (World.fault_lost d.Workload.world)
    (Workload.corrupted d);
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let checks =
    Workload.checks d @ trace_checks @ [ ("every metric is finite", finite) ]
  in
  {
    correct = List.for_all snd checks;
    attempted = d.Workload.tally.Workload.attempted;
    failed = Workload.failed d;
    metrics;
    checks;
    digest = seg.digest;
  }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json r =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.correct r.attempted r.failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
        (json_float m.value) m.unit)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
