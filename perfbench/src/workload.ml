open Twindrivers

type tally = {
  mutable attempted : int;
  mutable tx_ok : int;
  mutable tx_bytes : int;
  mutable tx_lens : int list;
  mutable tx_failed : int;
  mutable rx_ok : int;
  mutable rx_bad : int;
  mutable rx_stray : int;
  mutable rx_failed : int;
  mutable churned : int;
}

type t = {
  world : World.t;
  tally : tally;
  wire0 : int;
  wire_bytes0 : int;
  step : unit -> unit;
  finish : unit -> unit;
  extra_checks : unit -> (string * bool) list;
}

type spec = {
  name : string;
  build : seed:int -> World.t * int * int;
  derives_twin : bool;
  start : Probe.t -> seed:int -> World.t -> t;
  soak : (seed:int -> World.t) option;
      (** a world armed with the full fault plan, for the traced run *)
  setup_reps : int;
  warmup : int;
  reference : int;
  lap : int;
}

let eth_header = 14

let new_tally () =
  {
    attempted = 0;
    tx_ok = 0;
    tx_bytes = 0;
    tx_lens = [];
    tx_failed = 0;
    rx_ok = 0;
    rx_bad = 0;
    rx_stray = 0;
    rx_failed = 0;
    churned = 0;
  }

let wire d = World.wire_tx_frames d.world - d.wire0
let reached d = wire d + d.tally.rx_ok

(* accepted transmits missing from the wire; final once the world is shut
   down and nothing is staged *)
let tx_lost d = d.tally.tx_ok - wire d
let missing d = tx_lost d + d.tally.rx_failed

let accept (ta : tally) payload =
  let len = String.length payload + eth_header in
  ta.tx_ok <- ta.tx_ok + 1;
  ta.tx_bytes <- ta.tx_bytes + len;
  if not (List.mem len ta.tx_lens) then ta.tx_lens <- len :: ta.tx_lens

(* ---- shared pieces ---- *)

(* Receives in flight, keyed by sequence number: a slot holds [seq + 1]
   until the payload comes back through [rx_pop]. *)
module Pending = struct
  let size = 1 lsl 16

  type p = { slots : int array; mutable live : int }

  let create () = { slots = Array.make size 0; live = 0 }

  let add p (ta : tally) seq =
    let i = seq land (size - 1) in
    if p.slots.(i) <> 0 then begin
      (* 64 Ki frames later it never arrived *)
      ta.rx_failed <- ta.rx_failed + 1;
      p.live <- p.live - 1
    end;
    p.slots.(i) <- seq + 1;
    p.live <- p.live + 1

  let cancel p seq =
    p.slots.(seq land (size - 1)) <- 0;
    p.live <- p.live - 1

  let take p seq =
    let i = seq land (size - 1) in
    if p.slots.(i) = seq + 1 then begin
      p.slots.(i) <- 0;
      p.live <- p.live - 1;
      true
    end
    else false
end

let drain_rx w ~key pending (ta : tally) =
  let rec go () =
    match World.rx_pop w with
    | None -> ()
    | Some payload ->
        let seq = Gen.seq payload in
        if seq >= 0 && Pending.take pending seq then
          if Gen.check ~key payload = seq then ta.rx_ok <- ta.rx_ok + 1
          else ta.rx_bad <- ta.rx_bad + 1
        else ta.rx_stray <- ta.rx_stray + 1;
        go ()
  in
  go ()

(* after shutdown nothing is in flight: every receive still pending was
   lost, or came back with its sequence number corrupted (a stray) *)
let settle pending (ta : tally) =
  ta.rx_failed <- ta.rx_failed + pending.Pending.live;
  Array.fill pending.Pending.slots 0 Pending.size 0;
  pending.Pending.live <- 0

(* [lost] frames missing from the wire, [bytes] bytes in all: could they
   be whole accepted frames? Exact for the one or two frame lengths a
   workload sends. *)
let whole_frames (ta : tally) ~lost ~bytes =
  match List.sort compare ta.tx_lens with
  | [] -> lost = 0 && bytes = 0
  | [ len ] -> bytes = lost * len
  | [ short; long ] ->
      let extra = bytes - (lost * short) in
      extra >= 0 && extra mod (long - short) = 0
      && extra / (long - short) <= lost
  | _ -> invalid_arg "perfbench: more than two transmit frame lengths"

(* Wire frames carry no payload check, so a transmit the program
   corrupted shows only in the byte count: 1 when the bytes missing from
   the wire are not those of whole accepted frames (at least one frame
   reached the wire with the wrong length), else 0. *)
let tx_corrupt d =
  let ta = d.tally in
  let bytes = ta.tx_bytes - (World.wire_tx_bytes d.world - d.wire_bytes0) in
  if whole_frames ta ~lost:(tx_lost d) ~bytes then 0 else 1

let corrupted d = tx_corrupt d + d.tally.rx_bad + d.tally.rx_stray
let delivered d = reached d - tx_corrupt d

let failed d =
  d.tally.tx_failed + missing d + tx_corrupt d + d.tally.rx_bad

let common_checks d =
  let w = d.world and ta = d.tally in
  [
    ("attempted = delivered + failed", ta.attempted = delivered d + failed d);
    ("no more wire frames than accepted transmits", tx_lost d >= 0);
    ("staged_frames = 0 after shutdown", World.staged_frames w = 0);
    ("netio_conserved", World.netio_conserved w);
  ]
  @ d.extra_checks ()

(* the measured worlds: no armed fault destroys a frame, so none fails *)
let checks d =
  common_checks d
  @ [
      ( "every frame is delivered intact",
        failed d = 0 && d.tally.rx_stray = 0 );
    ]

(* a soak world, whose fault plan loses and corrupts frames by design *)
let soak_checks d =
  let ta = d.tally in
  common_checks d
  @ [
      ( "every frame the fault engine counts lost is missing",
        World.fault_lost d.world <= missing d );
      ( "every stray receive stands for a missing one",
        ta.rx_stray <= ta.rx_failed );
    ]

let contained f =
  try f () with World.Driver_aborted _ | World.Nic_quarantined _ -> ()

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.now_ns () - t0)

(* ---- twin-tx: Fig 5's transmit loop on the hypervisor twin ---- *)

let twin_nics = 5

let twin_build ~seed:_ =
  let w, ns = timed (fun () -> World.create ~nics:twin_nics Config.Xen_twin) in
  (w, ns, 0)

let twin_start probe ~seed w =
  let g = Gen.make seed in
  let key = Gen.key g in
  let payloads =
    Array.init twin_nics (fun nic -> Gen.payload ~key ~seq:nic 1500)
  in
  let ta = new_tally () in
  let wire0 = World.wire_tx_frames w and wire_bytes0 = World.wire_tx_bytes w in
  let step () =
    let i = ta.attempted in
    ta.attempted <- i + 1;
    let nic = i mod twin_nics in
    Probe.set_frame probe i;
    let payload = payloads.(nic) in
    if Probe.transmit probe w ~nic ~payload then accept ta payload
    else ta.tx_failed <- ta.tx_failed + 1;
    if i mod 8 = 7 then Probe.pump probe w
  in
  let finish () =
    Probe.pump probe w;
    World.shutdown w
  in
  {
    world = w;
    tally = ta;
    wire0;
    wire_bytes0;
    step;
    finish;
    extra_checks = (fun () -> []);
  }

(* ---- domU-rx-small: 64-byte receives through netback and the bridge ---- *)

let rx_nics = 5
let rx_bytes = 64

let rx_build ~seed:_ =
  let w, ns = timed (fun () -> World.create ~nics:rx_nics Config.Xen_domU) in
  (w, ns, 0)

let rx_start probe ~seed w =
  let g = Gen.make seed in
  let key = Gen.key g in
  let ta = new_tally () in
  let pending = Pending.create () in
  let wire0 = World.wire_tx_frames w and wire_bytes0 = World.wire_tx_bytes w in
  let step () =
    let i = ta.attempted in
    ta.attempted <- i + 1;
    Probe.set_frame probe i;
    Pending.add pending ta i;
    Probe.inject_rx probe w ~guest:0 ~nic:(i mod rx_nics)
      ~payload:(Gen.payload ~key ~seq:i rx_bytes);
    if i mod 4 = 3 then begin
      Probe.pump probe w;
      drain_rx w ~key pending ta
    end
  in
  let finish () =
    Probe.pump probe w;
    World.shutdown w;
    drain_rx w ~key pending ta;
    settle pending ta
  in
  {
    world = w;
    tally = ta;
    wire0;
    wire_bytes0;
    step;
    finish;
    extra_checks = (fun () -> []);
  }

(* ---- fleet: the N-domain open-loop soak ---- *)

let fleet_nics = 4

(* Restart-replay supervision under the recovery soak's plan
   ([Experiments.soak_plan] at 2e-5 per opportunity, scaled per site). *)
let fleet_rate = 2e-5

let soak_plan ~seed =
  {
    Td_fault.seed;
    svm_wild_access = fleet_rate *. 50.0;
    interp_bitflip = fleet_rate /. 500.0;
    nic_stuck_dma = fleet_rate /. 4.0;
    nic_lost_irq = fleet_rate;
    nic_corrupt_rx = fleet_rate;
    upcall_fail = fleet_rate;
  }

(* The measured fleet arms the sites the supervisor recovers from without
   losing a frame (wild SVM accesses, lost interrupts, failed upcalls).
   Stuck TX DMA and corrupted RX descriptors destroy frames by design and
   driver bit-flips can wedge a NIC or corrupt a frame, so those three run
   in the traced run's soak world only, where their losses are counted. *)
let measured_plan ~seed =
  {
    (soak_plan ~seed) with
    Td_fault.interp_bitflip = 0.0;
    nic_stuck_dma = 0.0;
    nic_corrupt_rx = 0.0;
  }

let fleet_tuning plan =
  {
    Config.default_tuning with
    Config.recovery = Config.Restart_replay;
    doorbell = true;
    quota = Some { Td_xen.Quota.default_limits with grant_entries = 512 };
    fault_plan = Some plan;
  }

let fleet_build ~plan ~domains ~seed =
  let tuning = fleet_tuning (plan ~seed:(Gen.key (Gen.make (seed + 1)))) in
  let w, create_ns =
    timed (fun () ->
        World.create ~nics:fleet_nics ~guests:1 ~tuning Config.Xen_domU)
  in
  let (), guests_ns =
    timed (fun () ->
        for _ = 2 to domains do
          ignore (World.create_guest w)
        done)
  in
  (w, create_ns, guests_ns)

let fleet_start ~churn_every ~churn_max probe ~seed w =
  let g = Gen.make seed in
  let key = Gen.key g in
  let bulk = Gen.payload ~key ~seq:(-1) 1500 in
  let rpc = Gen.payload ~key ~seq:(-2) 64 in
  let ta = new_tally () in
  let pending = Pending.create () in
  let rx_seq = ref 0 and round = ref 0 in
  let wire0 = World.wire_tx_frames w and wire_bytes0 = World.wire_tx_bytes w in
  let tx guest payload =
    ta.attempted <- ta.attempted + 1;
    Probe.set_frame probe ta.attempted;
    match Probe.transmit_from probe w ~guest ~payload with
    | true -> accept ta payload
    | false -> ta.tx_failed <- ta.tx_failed + 1
    | exception (World.Driver_aborted _ | World.Nic_quarantined _) ->
        ta.tx_failed <- ta.tx_failed + 1
  in
  let rx guest =
    ta.attempted <- ta.attempted + 1;
    Probe.set_frame probe ta.attempted;
    let seq = !rx_seq in
    incr rx_seq;
    Pending.add pending ta seq;
    match
      Probe.inject_rx probe w ~guest ~nic:(guest mod fleet_nics)
        ~payload:(Gen.payload ~key ~seq 128)
    with
    | () -> ()
    | exception (World.Driver_aborted _ | World.Nic_quarantined _) ->
        Pending.cancel pending seq;
        ta.rx_failed <- ta.rx_failed + 1
  in
  let churn () =
    let live =
      List.filter
        (fun s -> s > 0 && World.guest_alive w ~guest:s)
        (List.init (World.guest_slots w) Fun.id)
    in
    match live with
    | [] -> ()
    | _ ->
        let victim = List.nth live (Gen.below g (List.length live)) in
        Probe.destroy_guest probe w ~guest:victim;
        if World.guest_slots w < 256 then ignore (Probe.create_guest probe w);
        ta.churned <- ta.churned + 1
  in
  let step () =
    incr round;
    for s = 0 to World.guest_slots w - 1 do
      if World.guest_alive w ~guest:s then
        match s mod 3 with
        | 0 -> tx s bulk
        | 1 ->
            (* an 8-frame RPC burst on about one round in four *)
            if Gen.below g 4 = 0 then
              for _ = 1 to 8 do
                tx s rpc
              done
        | _ ->
            (* incast: two wire arrivals converge on this guest *)
            rx s;
            rx s
    done;
    contained (fun () -> Probe.pump probe w);
    contained (fun () -> Probe.tick probe w);
    drain_rx w ~key pending ta;
    if !round mod churn_every = 0 && ta.churned < churn_max then churn ()
  in
  let open_channels () =
    let n = ref 0 in
    for s = 0 to World.guest_slots w - 1 do
      if World.guest_alive w ~guest:s then
        n := !n + if s = 0 then fleet_nics else 1
    done;
    !n
  in
  let finish () =
    contained (fun () -> Probe.pump probe w);
    contained (fun () -> Probe.tick probe w);
    contained (fun () -> World.shutdown w);
    drain_rx w ~key pending ta;
    settle pending ta
  in
  {
    world = w;
    tally = ta;
    wire0;
    wire_bytes0;
    step;
    finish;
    extra_checks =
      (fun () ->
        [
          ( "doorbell pages mapped = open channels",
            World.doorbell_pages_mapped w = open_channels () );
          ("churn cycles completed", ta.churned = churn_max);
        ]);
  }

let all ~smoke =
  let scale full small = if smoke then small else full in
  let domains = scale 200 24 and churn_max = scale 32 2 in
  let fleet_reference = scale 256 8 in
  [
    {
      name = "twin-tx";
      build = twin_build;
      derives_twin = true;
      start = twin_start;
      soak = None;
      setup_reps = scale 9 2;
      warmup = scale 512 64;
      reference = scale 2048 128;
      lap = scale 512 64;
    };
    {
      name = "domU-rx-small";
      build = rx_build;
      derives_twin = false;
      start = rx_start;
      soak = None;
      setup_reps = scale 31 2;
      warmup = scale 2048 64;
      reference = scale 16384 256;
      lap = scale 4096 128;
    };
    {
      name = "fleet";
      build = fleet_build ~plan:measured_plan ~domains;
      derives_twin = false;
      start =
        fleet_start ~churn_every:(fleet_reference / churn_max) ~churn_max;
      soak =
        Some
          (fun ~seed ->
            let w, _, _ = fleet_build ~plan:soak_plan ~domains ~seed in
            w);
      setup_reps = scale 7 2;
      warmup = scale 8 2;
      reference = fleet_reference;
      lap = scale 8 2;
    };
  ]

let find ~smoke name = List.find_opt (fun s -> s.name = name) (all ~smoke)
