(* The benchmark's own tests: smoke-sized runs of every workload, traced
   and untraced, checked for complete, finite, unit-carrying metrics and
   for exact agreement of the simulated metrics between runs. Like the
   benchmark itself, every run is a fresh process: process-global state
   (registry generation counters, for one) lets a second run inside one
   process allocate a few words differently. *)

open Perfbench

type run = {
  status : int;
  json : string;  (** the last line of standard output *)
  digest : string;
}

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

let run ?(seed = 5) ~trace name =
  let out = Filename.temp_file "perfbench" ".out"
  and err = Filename.temp_file "perfbench" ".err" in
  let cmd =
    Filename.quote_command "../main.exe" ~stdout:out ~stderr:err
      [
        "--workload"; name; "--seed"; string_of_int seed; "--seconds"; "0";
        "--trace"; (if trace then "1" else "0"); "--smoke";
      ]
  in
  let status = Sys.command cmd in
  let json = last_line (read_file out) in
  let digest =
    List.fold_left
      (fun acc l ->
        match String.split_on_char ' ' l with
        | [ "digest"; d ] -> d
        | _ -> acc)
      ""
      (String.split_on_char '\n' (read_file err))
  in
  Sys.remove out;
  Sys.remove err;
  { status; json; digest }

(* [find s sub from] is the index just past the first [sub] at or after
   [from]. *)
let find s sub from =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some (i + n)
    else go (i + 1)
  in
  go from

let field r key =
  match find r.json ("\"" ^ key ^ "\": ") 0 with
  | None -> Alcotest.failf "%s missing from %s" key r.json
  | Some i ->
      let j = ref i in
      while !j < String.length r.json && not (String.contains ",}" r.json.[!j]) do
        incr j
      done;
      String.sub r.json i (!j - i)

(* (value, unit) of a metric, [None] when absent *)
let metric r name =
  match find r.json ("\"" ^ name ^ "\": {\"value\": ") 0 with
  | None -> None
  | Some i -> (
      let j = ref i in
      while r.json.[!j] <> ',' do
        incr j
      done;
      let value = float_of_string (String.sub r.json i (!j - i)) in
      match find r.json "\"unit\": \"" !j with
      | None -> None
      | Some k ->
          let e = String.index_from r.json k '"' in
          Some (value, String.sub r.json k (e - k)))

let value r name =
  match metric r name with
  | Some (v, _) -> v
  | None -> Alcotest.failf "metric %s missing" name

let count_metrics r =
  let rec go i n =
    match find r.json "{\"value\": " i with None -> n | Some j -> go j (n + 1)
  in
  go 0 0

(* No measured world loses a frame; fleet's full-plan losses are counted
   in its soak world and reported as per-layer metrics only. *)
let check_clean r =
  Alcotest.(check int) "exit status" 0 r.status;
  Alcotest.(check string) "correct" "true" (field r "correct");
  Alcotest.(check bool) "attempted frames" true
    (int_of_string (field r "attempted") > 0);
  Alcotest.(check int) "failed frames" 0 (int_of_string (field r "failed"))

let check_complete table r =
  List.iter
    (fun (name, unit) ->
      match metric r name with
      | None -> Alcotest.failf "metric %s missing" name
      | Some (v, u) ->
          Alcotest.(check string) (name ^ " unit") unit u;
          Alcotest.(check bool) (name ^ " has a unit") true (u <> "");
          Alcotest.(check bool) (name ^ " is finite") true (Float.is_finite v))
    table;
  Alcotest.(check int) "no other metrics" (List.length table) (count_metrics r)

let simulated = [ "sim_cycles_per_frame"; "alloc_words_per_frame" ]

let simulated_layer =
  [
    "cpu.insn_per_frame";
    "xen.sim_cycles.dom0_per_frame";
    "xen.sim_cycles.domU_per_frame";
    "xen.sim_cycles.xen_per_frame";
    "xen.sim_cycles.driver_per_frame";
    "fault.soak.failed_frames";
    "fault.soak.unattributed_frames";
  ]

let repeats names a b =
  List.iter
    (fun m ->
      Alcotest.(check (float 0.0)) (m ^ " repeats") (value a m) (value b m))
    names

let untraced_case name () =
  let a = run ~trace:false name in
  check_clean a;
  check_complete Bench.end_to_end a;
  let b = run ~trace:false name in
  repeats simulated a b;
  Alcotest.(check string) "digest repeats" a.digest b.digest

(* kind, frame, start, end, depth: non-negative integers after the kind,
   start <= end *)
let check_span_log name r =
  let path = Filename.concat ".bench_build" ("spans-" ^ name ^ ".tsv") in
  Alcotest.(check bool) (path ^ " written") true (Sys.file_exists path);
  let lines =
    List.filter
      (fun l -> l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' (read_file path))
  in
  Alcotest.(check int) "one line per span"
    (min 65536 (int_of_float (value r "trace.spans")))
    (List.length lines);
  List.iter
    (fun l ->
      match String.split_on_char '\t' l with
      | [ _kind; frame; start; stop; depth ] ->
          let n = List.map int_of_string [ frame; start; stop; depth ] in
          Alcotest.(check bool) ("span fields: " ^ l) true
            (List.for_all (fun x -> x >= 0) n
            && int_of_string start <= int_of_string stop)
      | _ -> Alcotest.failf "malformed span line: %s" l)
    lines

let traced_case name () =
  let plain = run ~trace:false name in
  let a = run ~trace:true name in
  check_clean a;
  check_complete Bench.per_layer a;
  check_span_log name a;
  Alcotest.(check string) "traced digest = untraced" plain.digest a.digest;
  let b = run ~trace:true name in
  repeats simulated_layer a b

let fleet_seeds () =
  let a = run ~seed:5 ~trace:false "fleet" in
  let b = run ~seed:6 ~trace:false "fleet" in
  Alcotest.(check bool) "another seed, another fleet digest" true
    (a.digest <> b.digest)

let bad_arguments () =
  let status args =
    Sys.command
      (Filename.quote_command "../main.exe" ~stdout:Filename.null
         ~stderr:Filename.null args)
  in
  Alcotest.(check bool) "unknown workload" true
    (status [ "--workload"; "nope" ] <> 0);
  Alcotest.(check bool) "bad --trace" true
    (status [ "--workload"; "fleet"; "--trace"; "2" ] <> 0)

(* BENCHMARK.json must declare exactly the metrics the runs report. *)
let declared () =
  let text = read_file "../../BENCHMARK.json" in
  let mentions s = find text ("\"" ^ s ^ "\"") 0 <> None in
  List.iter
    (fun (name, unit) ->
      Alcotest.(check bool) (name ^ " declared") true (mentions name);
      Alcotest.(check bool) (unit ^ " declared") true (mentions unit))
    (Bench.end_to_end @ Bench.per_layer);
  List.iter
    (fun (s : Workload.spec) ->
      Alcotest.(check bool) (s.Workload.name ^ " declared") true
        (mentions s.Workload.name))
    (Workload.all ~smoke:false)

let () =
  let names = [ "twin-tx"; "domU-rx-small"; "fleet" ] in
  Alcotest.run "perfbench"
    [
      ( "untraced",
        List.map (fun n -> Alcotest.test_case n `Quick (untraced_case n)) names
      );
      ( "traced",
        List.map (fun n -> Alcotest.test_case n `Quick (traced_case n)) names );
      ( "inputs",
        [
          Alcotest.test_case "fleet digest follows the seed" `Quick fleet_seeds;
          Alcotest.test_case "bad arguments exit non-zero" `Quick bad_arguments;
          Alcotest.test_case "BENCHMARK.json declares every metric" `Quick
            declared;
        ] );
    ]
