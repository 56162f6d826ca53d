(* Command-line entry point of the benchmark; see README.md. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and smoke = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME twin-tx | domU-rx-small | fleet");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S timed window length (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " smoke-sized inputs (the benchmark's own tests)");
    ]
  in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match Perfbench.Workload.find ~smoke:!smoke !workload with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      Arg.usage specs usage;
      exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
  | Some spec ->
      let r =
        Perfbench.Bench.run spec ~seed:!seed ~seconds:!seconds
          ~trace:(!trace = 1)
      in
      List.iter
        (fun (name, ok) ->
          Printf.eprintf "%s %s\n" (if ok then "ok  " else "FAIL") name)
        r.Perfbench.Bench.checks;
      Printf.eprintf "digest %s\n%!" r.Perfbench.Bench.digest;
      print_endline (Perfbench.Bench.to_json r);
      if not r.Perfbench.Bench.correct then exit 1
