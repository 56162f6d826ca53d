(* Fault-injection engine and driver-supervisor tests: deterministic
   seeded injection, zero-plan bit-identity, abort containment,
   shadow-state restoration, quarantine errors, typed guest faults. *)

open Twindrivers

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

let payload = "fault soak frame " ^ String.make 600 'f'

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* arm [w]'s own engine for the duration of [f] *)
let with_plan w plan f =
  let e = World.fault_engine w in
  Td_fault.Engine.arm e plan;
  Fun.protect ~finally:(fun () -> Td_fault.Engine.disarm e) f

let with_tuning_plan plan =
  { Config.default_tuning with Config.fault_plan = Some plan }

(* --- engine: same plan, same stream --- *)

let test_engine_deterministic () =
  let sample seed =
    let e =
      Td_fault.Engine.make
        { (Td_fault.uniform_plan ~seed 0.3) with interp_bitflip = 0.3 }
    in
    List.init 200 (fun _ -> Td_fault.Engine.fire e Td_fault.Interp_bitflip)
  in
  let a = sample 7 and b = sample 7 in
  check bool_c "same seed, same injection sequence" true (a = b);
  check bool_c "some fired" true (List.mem true a);
  check bool_c "some did not" true (List.mem false a);
  let c = sample 8 in
  check bool_c "different seed, different sequence" true (a <> c)

let test_engine_counters () =
  let e = Td_fault.Engine.make (Td_fault.uniform_plan ~seed:3 1.0) in
  ignore (Td_fault.Engine.fire e Td_fault.Nic_corrupt_rx);
  ignore (Td_fault.Engine.fire e Td_fault.Upcall_fail);
  check int_c "two injections counted" 2 (Td_fault.Engine.injected e);
  check int_c "per-site count" 1
    (Td_fault.Engine.injected_at e Td_fault.Nic_corrupt_rx);
  Td_fault.Engine.suspend e (fun () ->
      check bool_c "suspended engine never fires" false
        (Td_fault.Engine.fire e Td_fault.Nic_corrupt_rx));
  Td_fault.Engine.note_lost e 3;
  check int_c "lost frames ledger" 3 (Td_fault.Engine.lost_frames e);
  Td_fault.Engine.reset_counters e;
  check int_c "counters reset" 0 (Td_fault.Engine.injected e)

(* --- zero plan: bit-identical to no plan at all --- *)

let run_workload w =
  for i = 0 to 39 do
    ignore (World.transmit w ~nic:(i mod 2) ~payload);
    World.inject_rx w ~nic:(i mod 2) ~payload;
    if i mod 8 = 7 then World.pump w
  done;
  World.pump w;
  World.tick w;
  ( List.map (fun c -> Td_xen.Ledger.total (World.ledger w) c)
      Td_xen.Ledger.categories,
    World.wire_tx_frames w,
    World.wire_tx_bytes w,
    World.delivered_rx_frames w,
    World.delivered_rx_bytes w )

let test_zero_plan_bit_identical () =
  let baseline = run_workload (World.create ~nics:2 Config.Xen_twin) in
  let zw =
    World.create ~nics:2 ~tuning:(with_tuning_plan Td_fault.zero_plan)
      Config.Xen_twin
  in
  let zeroed = run_workload zw in
  check bool_c "ledger and wire identical under zero plan" true
    (baseline = zeroed);
  check int_c "zero plan injected nothing" 0 (World.fault_injected zw)

(* --- SVM wild access: abort contained, hypervisor survives --- *)

let wild_only = { Td_fault.zero_plan with Td_fault.svm_wild_access = 1.0 }

let test_wild_access_contained () =
  let w = World.create ~nics:2 Config.Xen_twin in
  with_plan w wild_only (fun () ->
      check bool_c "transmit aborts" true
        (match World.transmit w ~nic:0 ~payload with
        | exception World.Driver_aborted reason ->
            (* the injected wild access surfaces as an SVM fault *)
            contains ~sub:"fault" reason || contains ~sub:"injected" reason
        | _ -> false));
  (* fail-stop: the NIC is quarantined, with typed errors *)
  check bool_c "nic quarantined" true (World.is_quarantined w ~nic:0);
  check bool_c "read_stats raises typed error" true
    (match World.read_stats w ~nic:0 with
    | exception World.Nic_quarantined { nic = 0 } -> true
    | _ -> false);
  check bool_c "run_watchdog raises typed error" true
    (match World.run_watchdog w ~nic:0 with
    | exception World.Nic_quarantined { nic = 0 } -> true
    | _ -> false);
  (* containment: the hypervisor and the other NIC keep working *)
  check bool_c "other NIC unaffected" true (World.transmit w ~nic:1 ~payload);
  World.pump w;
  check bool_c "frames still reach the wire" true (World.wire_tx_frames w >= 1)

(* --- recovery: shadow state restored after restart --- *)

let test_recovery_restores_shadow () =
  let tuning = { Config.default_tuning with Config.recovery = Config.Restart } in
  let w = World.create ~nics:2 ~tuning Config.Xen_twin in
  World.run_set_mtu w ~nic:0 ~mtu:1400;
  World.run_set_rx_mode w ~nic:0 ~promisc:true;
  check int_c "shadow captured mtu" 1400 (World.shadow_mtu w ~nic:0);
  check bool_c "shadow captured promisc" true (World.shadow_promisc w ~nic:0);
  (* scribble the netdev's mtu as a corrupted instance would, then force
     an abort so the supervisor restarts and repairs from shadow *)
  Td_kernel.Netdev.set_mtu (World.netdev w ~nic:0) 9999;
  with_plan w wild_only (fun () ->
      check bool_c "restart absorbs the abort" false
        (World.transmit w ~nic:0 ~payload));
  check bool_c "a recovery ran" true (World.recoveries w >= 1);
  check bool_c "all NICs serviceable again" true (World.all_serviceable w);
  check int_c "netdev mtu restored from shadow" 1400
    (Td_kernel.Netdev.mtu (World.netdev w ~nic:0));
  check bool_c "promisc restored via the driver" true
    (World.shadow_promisc w ~nic:0);
  (* the restarted instance still moves packets *)
  check bool_c "transmit works after recovery" true
    (World.transmit w ~nic:0 ~payload);
  World.pump w;
  check bool_c "frame delivered" true (World.wire_tx_frames w >= 1)

let test_replay_policy_delivers () =
  let tuning =
    { Config.default_tuning with Config.recovery = Config.Restart_replay }
  in
  let w = World.create ~nics:1 ~tuning Config.Xen_twin in
  with_plan w wild_only (fun () ->
      (* the abort recovers and the frame is replayed on the fresh twin *)
      check bool_c "replayed transmit succeeds" true
        (World.transmit w ~nic:0 ~payload));
  World.pump w;
  check int_c "replayed frame reached the wire" 1 (World.wire_tx_frames w);
  check bool_c "replay counted" true (World.replayed_frames w >= 1);
  check bool_c "recovery counted" true (World.recoveries w >= 1)

(* --- seeded world soak: reproducible end-to-end --- *)

let test_soak_reproducible () =
  let run () =
    let p =
      Experiments.recovery_soak ~frames:300 ~seed:11
        ~policy:Config.Restart_replay ~rate:0.01 ()
    in
    ( p.Experiments.delivered,
      p.Experiments.injected,
      p.Experiments.recoveries,
      p.Experiments.replayed,
      p.Experiments.lost )
  in
  let a = run () and b = run () in
  check bool_c "same seed, same soak outcome" true (a = b);
  let d, i, r, _, _ = a in
  check bool_c "faults were injected" true (i > 0);
  check bool_c "recoveries happened" true (r > 0);
  check bool_c "most frames delivered" true (d > 200)

let test_soak_availability () =
  let p =
    Experiments.recovery_soak ~frames:500 ~seed:5
      ~policy:Config.Restart_replay ~rate:0.004 ()
  in
  check bool_c "availability >= 99%" true (p.Experiments.availability >= 0.99);
  check bool_c "all NICs serviceable at end" true p.Experiments.serviceable;
  check bool_c "recoveries > 0" true (p.Experiments.recoveries > 0)

(* --- execution faults are typed and recoverable --- *)

(* A corrupted function pointer sends the driver to a misaligned code
   address. That must surface as the typed [Interp.Fault] the supervisor
   contains as an abort — not the bare [Invalid_argument] that
   [Program.index_of_addr] raises internally — and after the supervisor
   reloads a fresh image over the dead instance's range, the same warm
   interpreter must execute the replacement, never a stale cached block. *)
let test_misaligned_jump_recovery_cycle () =
  let open Td_misa in
  let m = Harness.make_machine () in
  let base = Td_mem.Layout.vm_driver_code_base in
  let bad =
    let b = Builder.create "drv" in
    Builder.label b "entry";
    Builder.jmp_ind b (Builder.imm (base + 2));
    Builder.finish b
  in
  let good =
    let b = Builder.create "drv" in
    Builder.label b "entry";
    Builder.movl b (Builder.imm 42) (Builder.reg Reg.EAX);
    Builder.ret b;
    Builder.finish b
  in
  let prog =
    Td_rewriter.Loader.load ~name:"drv" ~source:bad ~base
      ~symbols:Td_rewriter.Loader.empty ~registry:m.Harness.registry
  in
  let st = Harness.dom0_cpu m in
  let interp = Harness.interp_of m st in
  let entry = Program.addr_of_label prog "entry" in
  check bool_c "misaligned jump is a typed interpreter fault" true
    (match Td_cpu.Interp.call interp ~entry ~args:[] with
    | exception Td_cpu.Interp.Fault _ -> true
    | exception Invalid_argument _ -> false
    | _ -> false);
  ignore
    (Td_rewriter.Loader.reload ~name:"drv" ~source:good ~base
       ~symbols:Td_rewriter.Loader.empty ~registry:m.Harness.registry);
  check int_c "reloaded image executes on the warm interpreter" 42
    (Td_cpu.Interp.call interp ~entry ~args:[])

(* --- plans without interpreter bit-flips stay on the compiled tier --- *)

(* Every site but the interpreter's, at rates that fire several times in
   a short restart-replay run. *)
let device_plan =
  {
    Td_fault.seed = 23;
    svm_wild_access = 0.05;
    interp_bitflip = 0.;
    nic_stuck_dma = 0.01;
    nic_lost_irq = 0.05;
    nic_corrupt_rx = 0.02;
    upcall_fail = 0.01;
  }

let plan_run plan dispatch =
  let tuning =
    {
      Config.default_tuning with
      Config.recovery = Config.Restart_replay;
      fault_plan = plan;
    }
  in
  let w = World.create ~nics:2 ~tuning Config.Xen_twin in
  let interp = World.interp w in
  Td_cpu.Interp.set_dispatch interp dispatch;
  let hits0 = Td_cpu.Interp.compiled_hits interp in
  for i = 0 to 119 do
    ignore (World.transmit w ~nic:(i mod 2) ~payload);
    World.inject_rx w ~nic:(i mod 2) ~payload;
    if i mod 8 = 7 then begin
      World.pump w;
      World.tick w
    end
  done;
  World.pump w;
  World.tick w;
  ( ( List.map (Td_xen.Ledger.total (World.ledger w)) Td_xen.Ledger.categories,
      World.wire_tx_frames w,
      World.delivered_rx_frames w,
      List.map
        (fun site ->
          (site, Td_fault.Engine.injected_at (World.fault_engine w) site))
        Td_fault.all_sites,
      World.fault_lost w ),
    Td_cpu.Interp.compiled_hits interp - hits0 )

(* Recovery runs with injection suspended, so it took the compiled tier
   even before; the rest of the run must take it too. *)
let test_device_plan_compiled () =
  let plan = Some device_plan in
  let compiled, compiled_hits = plan_run plan Td_cpu.Interp.Compiled in
  let per_step, _ = plan_run plan Td_cpu.Interp.Per_step in
  let _, unplanned_hits = plan_run None Td_cpu.Interp.Compiled in
  let _, _, _, injected, _ = compiled in
  check bool_c "runs on compiled superblocks like an unplanned run" true
    (2 * compiled_hits >= unplanned_hits);
  check int_c "no interpreter bit-flip" 0
    (List.assoc Td_fault.Interp_bitflip injected);
  check bool_c "at least four sites fired" true
    (List.length (List.filter (fun (_, n) -> n > 0) injected) >= 4);
  check bool_c "ledger, frames, per-site injections, losses as per-step" true
    (compiled = per_step)

(* An armed bit-flip site keeps every engine on the per-instruction path,
   injecting exactly what it injected before the compiled tier could run
   under a plan: the golden figures below come from that code. *)
let test_bitflip_plan_unchanged () =
  let plan = Some { device_plan with Td_fault.interp_bitflip = 2e-4 } in
  let compiled, _ = plan_run plan Td_cpu.Interp.Compiled in
  let per_step, _ = plan_run plan Td_cpu.Interp.Per_step in
  let ledger, tx, rx, injected, lost = compiled in
  check bool_c "compiled mode identical to per-step" true (compiled = per_step);
  check bool_c "bit-flips injected" true
    (List.assoc Td_fault.Interp_bitflip injected > 0);
  check int_c "golden ledger total" 2_867_400 (List.fold_left ( + ) 0 ledger);
  check int_c "golden wire frames" 118 tx;
  check int_c "golden delivered frames" 77 rx;
  check (Alcotest.list int_c) "golden injections per site"
    [ 4; 34; 1; 15; 4; 0 ] (List.map snd injected);
  check int_c "golden lost frames" 6 lost

(* --- two worlds on one OCaml domain keep their engines apart --- *)

(* World A has a quota and a plan that arms every site; world B has
   neither. Driven interleaved on the calling domain, each must end up
   exactly where it ends up when run alone. *)
let every_site_plan =
  { (Td_fault.uniform_plan ~seed:5 0.01) with interp_bitflip = 1e-4 }

let world_a () =
  World.create ~nics:2
    ~tuning:
      {
        Config.default_tuning with
        Config.upcall_set = [ "spin_trylock" ];
        recovery = Config.Restart_replay;
        quota =
          Some
            {
              Td_xen.Quota.default_limits with
              Td_xen.Quota.upcalls_per_s = 50_000.;
            };
        fault_plan = Some every_site_plan;
      }
    Config.Xen_twin

let world_b () = World.create ~nics:2 Config.Xen_twin

let contained f =
  try f () with World.Driver_aborted _ | World.Nic_quarantined _ -> ()

let step w i =
  contained (fun () -> ignore (World.transmit w ~nic:(i mod 2) ~payload));
  contained (fun () -> World.inject_rx w ~nic:(i mod 2) ~payload);
  if i mod 8 = 7 then begin
    contained (fun () -> World.pump w);
    contained (fun () -> World.tick w)
  end

let outcome w =
  ( List.map (Td_xen.Ledger.total (World.ledger w)) Td_xen.Ledger.categories,
    ( World.wire_tx_frames w,
      World.wire_tx_bytes w,
      World.delivered_rx_frames w ),
    (World.fault_injected w, World.fault_lost w, World.quota_throttled w) )

let frames = 120

let solo make =
  let w = make () in
  for i = 0 to frames - 1 do
    step w i
  done;
  outcome w

let test_two_worlds_isolated () =
  let a = world_a () and b = world_b () in
  for i = 0 to frames - 1 do
    step a i;
    step b i
  done;
  let ((_, _, (injected, _, throttled)) as oa) = outcome a in
  check bool_c "world A injected faults" true (injected > 0);
  check bool_c "world A was throttled" true (throttled > 0);
  check bool_c "world A as when run alone" true (oa = solo world_a);
  check bool_c "world B as when run alone" true (outcome b = solo world_b);
  let _, _, (_, _, b_throttled) = outcome b in
  check int_c "world B saw no quota" 0 b_throttled;
  (* resetting one world's measurement leaves the other's engine alone *)
  let a_counters () =
    (World.fault_injected a, World.fault_lost a, World.quota_throttled a)
  in
  let before = a_counters () in
  World.reset_measurement b;
  check bool_c "A's fault counters survive B's reset" true
    (a_counters () = before);
  World.reset_measurement a;
  check int_c "A's own reset clears its injections" 0 (World.fault_injected a)

(* --- a world with a map-window quota recovers from an abort --- *)

(* Recovery re-pins the sk_buff pool into the fresh hypervisor instance.
   The pool is dom0's, so the pins must not be charged to the guest whose
   transmit aborted: guest0's 64-page map-window cap would otherwise turn
   the first recovery into a [Quota_exceeded]. *)
let test_quota_world_recovers () =
  let run quota =
    let w =
      World.create ~nics:1
        ~tuning:
          {
            Config.default_tuning with
            Config.upcall_set = [ "spin_trylock" ];
            recovery = Config.Restart;
            quota;
            fault_plan =
              Some { Td_fault.zero_plan with seed = 3; upcall_fail = 0.05 };
          }
        Config.Xen_twin
    in
    let big = String.make 1500 'q' in
    for i = 1 to 200 do
      ignore (World.transmit w ~nic:0 ~payload:big);
      if i mod 8 = 0 then World.pump w
    done;
    World.recoveries w
  in
  let with_quota = run (Some Td_xen.Quota.default_limits) in
  check bool_c "recovered under the quota" true (with_quota > 0);
  check int_c "recoveries as without the quota" (run None) with_quota

(* --- typed guest faults --- *)

let bare_hypervisor () =
  let phys = Td_mem.Phys_mem.create () in
  let xen_space = Td_mem.Addr_space.create ~name:"xen" phys in
  let dom0_space = Td_mem.Addr_space.create ~name:"dom0" phys in
  let cpu = Td_cpu.State.create ~hyp_space:xen_space dom0_space in
  let h =
    Td_xen.Hypervisor.create
      ~ledger:(Td_xen.Ledger.create ())
      ~xen_space ~cpu ()
  in
  (h, dom0_space)

let test_guest_fault_bad_grant () =
  let h, space = bare_hypervisor () in
  let owner =
    Td_xen.Domain.create ~id:9 ~name:"g" ~kind:Td_xen.Domain.Guest ~space
  in
  let gt = Td_xen.Grant_table.create ~owner () in
  (* a bad grant reference is a typed, counted fault — not a crash *)
  let before = Td_xen.Guest_fault.total () in
  check bool_c "bad ref typed fault" true
    (match Td_xen.Grant_table.copy_from gt ~hyp:h 999 ~offset:0 ~len:1 with
    | exception Td_xen.Guest_fault.Fault { op = "Grant_table.copy_from"; _ } ->
        true
    | _ -> false);
  check int_c "fault counted" (before + 1) (Td_xen.Guest_fault.total ())

let test_no_domains_names_operation () =
  let h, space = bare_hypervisor () in
  let dom =
    Td_xen.Domain.create ~id:1 ~name:"d" ~kind:Td_xen.Domain.Guest ~space
  in
  (* dom was never added: the typed error must say which operation tripped *)
  check bool_c "error names the operation" true
    (match Td_xen.Hypervisor.run_in h dom (fun () -> ()) with
    | exception Td_xen.Hypervisor.No_domains { op } -> op = "run_in"
    | _ -> false)

let suite =
  [
    Alcotest.test_case "engine deterministic" `Quick test_engine_deterministic;
    Alcotest.test_case "engine counters" `Quick test_engine_counters;
    Alcotest.test_case "zero plan bit-identical" `Quick
      test_zero_plan_bit_identical;
    Alcotest.test_case "wild access contained" `Quick
      test_wild_access_contained;
    Alcotest.test_case "recovery restores shadow" `Quick
      test_recovery_restores_shadow;
    Alcotest.test_case "replay delivers the frame" `Quick
      test_replay_policy_delivers;
    Alcotest.test_case "soak reproducible" `Quick test_soak_reproducible;
    Alcotest.test_case "soak availability" `Quick test_soak_availability;
    Alcotest.test_case "misaligned jump recovery cycle" `Quick
      test_misaligned_jump_recovery_cycle;
    Alcotest.test_case "device-only plan runs compiled" `Quick
      test_device_plan_compiled;
    Alcotest.test_case "bit-flip plan unchanged" `Quick
      test_bitflip_plan_unchanged;
    Alcotest.test_case "two worlds keep their engines apart" `Quick
      test_two_worlds_isolated;
    Alcotest.test_case "quota world recovers from an abort" `Quick
      test_quota_world_recovers;
    Alcotest.test_case "guest fault: bad grant ref" `Quick
      test_guest_fault_bad_grant;
    Alcotest.test_case "no-domains error names op" `Quick
      test_no_domains_names_operation;
  ]
