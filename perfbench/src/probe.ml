open Twindrivers
module Native = Td_cpu.Native
module Addr_space = Td_mem.Addr_space
module Layout = Td_mem.Layout

type kind =
  | Transmit
  | Pump
  | Inject_rx
  | Tick
  | Create_guest
  | Destroy_guest
  | Svm
  | Support
  | Mmio

let index = function
  | Transmit -> 0
  | Pump -> 1
  | Inject_rx -> 2
  | Tick -> 3
  | Create_guest -> 4
  | Destroy_guest -> 5
  | Svm -> 6
  | Support -> 7
  | Mmio -> 8

let all =
  [| Transmit; Pump; Inject_rx; Tick; Create_guest; Destroy_guest; Svm; Support; Mmio |]

let kinds = Array.length all
let world_ops = [ Transmit; Pump; Inject_rx; Tick; Create_guest; Destroy_guest ]
let is_world_op k = k <= index Destroy_guest

let kind_name = function
  | Transmit -> "world.transmit"
  | Pump -> "world.pump"
  | Inject_rx -> "world.inject_rx"
  | Tick -> "world.tick"
  | Create_guest -> "world.create_guest"
  | Destroy_guest -> "world.destroy_guest"
  | Svm -> "svm.native"
  | Support -> "kernel.support"
  | Mmio -> "nic.mmio"

let max_depth = 64
let log_capacity = 1 lsl 16
let trace_ring = 1 lsl 17

type t = {
  mutable on : bool;
  mutable frame : int;
  (* open spans *)
  st_kind : int array;
  st_start : int array;
  st_child : int array;
  mutable depth : int;
  (* per-kind aggregates *)
  count : int array;
  total : int array;
  self : int array;
  mutable top : int;
  mutable spans : int;
  (* World entry durations, for percentiles *)
  samples : int array array;
  nsamples : int array;
  (* the retained span log *)
  log_kind : int array;
  log_frame : int array;
  log_start : int array;
  log_end : int array;
  log_depth : int array;
  mutable grant_copies : int;
  mutable origin : int;  (** clock reading when recording started *)
}

let create () =
  {
    on = false;
    frame = 0;
    st_kind = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    depth = 0;
    count = Array.make kinds 0;
    total = Array.make kinds 0;
    self = Array.make kinds 0;
    top = 0;
    spans = 0;
    samples = Array.init kinds (fun _ -> [||]);
    nsamples = Array.make kinds 0;
    log_kind = Array.make log_capacity 0;
    log_frame = Array.make log_capacity 0;
    log_start = Array.make log_capacity 0;
    log_end = Array.make log_capacity 0;
    log_depth = Array.make log_capacity 0;
    grant_copies = 0;
    origin = 0;
  }

let on t = t.on
let set_frame t f = t.frame <- f

let enter t k =
  let d = t.depth in
  if d >= max_depth then failwith "perfbench: span nesting too deep";
  t.st_kind.(d) <- k;
  t.st_child.(d) <- 0;
  t.depth <- d + 1;
  t.st_start.(d) <- Clock.now_ns ()

let add_sample t k dur =
  let n = t.nsamples.(k) in
  let buf = t.samples.(k) in
  let buf =
    if n < Array.length buf then buf
    else begin
      let grown = Array.make (max 1024 (2 * n)) 0 in
      Array.blit buf 0 grown 0 n;
      t.samples.(k) <- grown;
      grown
    end
  in
  buf.(n) <- dur;
  t.nsamples.(k) <- n + 1

let leave t =
  let stop = Clock.now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let k = t.st_kind.(d) and start = t.st_start.(d) in
  let dur = stop - start in
  t.count.(k) <- t.count.(k) + 1;
  t.total.(k) <- t.total.(k) + dur;
  t.self.(k) <- t.self.(k) + dur - t.st_child.(d);
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur
  else t.top <- t.top + dur;
  if is_world_op k then add_sample t k dur;
  let s = t.spans in
  if s < log_capacity then begin
    t.log_kind.(s) <- k;
    t.log_frame.(s) <- t.frame;
    t.log_start.(s) <- start;
    t.log_end.(s) <- stop;
    t.log_depth.(s) <- d
  end;
  t.spans <- s + 1

(* Run [f x] inside a span of kind [k] (an index); a direct call while
   recording is off. *)
let span t k f x =
  if not t.on then f x
  else begin
    enter t k;
    match f x with
    | r ->
        leave t;
        r
    | exception e ->
        leave t;
        raise e
  end

(* ---- layer wrappers ---- *)

let wrap_native t k (f : Native.fn) : Native.fn = fun st -> span t k f st

let wrap_device t (d : Addr_space.device) : Addr_space.device =
  let k = index Mmio in
  {
    Addr_space.dev_read = (fun off w -> span t k (d.Addr_space.dev_read off) w);
    dev_write = (fun off w v -> span t k (d.Addr_space.dev_write off w) v);
  }

(* Native routines live at [native_base + 16 i] in registration order;
   re-registering a name keeps its address, so the wrapper replaces the
   routine in place. *)
let wrap_natives t w =
  let natives = (World.interp w).Td_cpu.Interp.natives in
  let n = Native.count natives in
  let found = ref 0 and slot = ref 0 in
  while !found < n && !slot < 1 lsl 16 do
    let addr = Layout.native_base + (16 * !slot) in
    (match (Native.name_of natives addr, Native.lookup natives addr) with
    | Some name, Some f ->
        incr found;
        let k =
          if String.starts_with ~prefix:"__svm_" name then index Svm
          else index Support
        in
        ignore (Native.register natives name (wrap_native t k f))
    | _ -> ());
    incr slot
  done;
  if !found <> n then failwith "perfbench: could not find every native routine"

(* The hypervisor driver reaches a NIC's registers through the SVM map
   window, which aliases dom0's device record; re-point those aliases at
   the wrapper too (later misses copy the wrapped dom0 mapping). *)
let wrap_mmio t w =
  let dom0 = World.dom0_space w in
  let window =
    match World.hypervisor w with
    | Some h -> Some (Td_xen.Hypervisor.xen_space h)
    | None -> None
  in
  for nic = 0 to World.nic_count w - 1 do
    let vpage = Layout.page_of (Td_nic.E1000_dev.mmio_vaddr nic) in
    match Addr_space.lookup dom0 ~vpage with
    | Some (Addr_space.Device d) ->
        let wrapped = wrap_device t d in
        Addr_space.map_device dom0 ~vpage wrapped;
        Option.iter
          (fun xs ->
            let base = Layout.page_of Layout.map_window_base in
            for vp = base to base + Layout.map_window_pages - 1 do
              match Addr_space.lookup xs ~vpage:vp with
              | Some (Addr_space.Device x) when x == d ->
                  Addr_space.map_device xs ~vpage:vp wrapped
              | _ -> ()
            done)
          window
    | _ -> failwith "perfbench: NIC register page is not a device mapping"
  done

let instrument t w =
  wrap_natives t w;
  wrap_mmio t w;
  Td_obs.Control.enable ();
  Td_obs.Metrics.reset_all ();
  Td_obs.Trace.set_capacity trace_ring;
  t.origin <- Clock.now_ns ();
  t.on <- true

let drain t =
  if Td_obs.Trace.emitted () > Td_obs.Trace.capacity () then
    failwith "perfbench: trace ring overflowed between drains";
  t.grant_copies <-
    t.grant_copies
    + Td_obs.Trace.count_if (function
        | Td_obs.Trace.Grant_copy _ -> true
        | _ -> false);
  Td_obs.Trace.clear ()

let grant_copies t = t.grant_copies

(* ---- traced World entry points ---- *)

let transmit t w ~nic ~payload =
  span t (index Transmit) (fun nic -> World.transmit w ~nic ~payload) nic

let transmit_from t w ~guest ~payload =
  span t (index Transmit) (fun guest -> World.transmit_from w ~guest ~payload) guest

let inject_rx t w ~guest ~nic ~payload =
  span t (index Inject_rx) (fun nic -> World.inject_rx ~guest w ~nic ~payload) nic

let pump t w = span t (index Pump) World.pump w
let tick t w = span t (index Tick) World.tick w
let create_guest t w = span t (index Create_guest) (fun w -> World.create_guest w) w

let destroy_guest t w ~guest =
  span t (index Destroy_guest) (fun guest -> World.destroy_guest w ~guest) guest

(* ---- aggregates ---- *)

let count t k = t.count.(index k)
let total_ns t k = t.total.(index k)
let self_ns t k = t.self.(index k)
let top_ns t = t.top
let spans t = t.spans
let depth t = t.depth

let percentile_ns t k p =
  let k = index k in
  let n = t.nsamples.(k) in
  if n = 0 then 0
  else begin
    let a = Array.sub t.samples.(k) 0 n in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let write_spans t path =
  let oc = open_out path in
  output_string oc "# kind\tframe\tstart_ns\tend_ns\tdepth\n";
  for s = 0 to min t.spans log_capacity - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n"
      (kind_name all.(t.log_kind.(s)))
      t.log_frame.(s)
      (t.log_start.(s) - t.origin)
      (t.log_end.(s) - t.origin)
      t.log_depth.(s)
  done;
  close_out oc
