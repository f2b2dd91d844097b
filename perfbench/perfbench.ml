(* The repo benchmark.

     perfbench --workload analyze_cold|serve_warm|serve_cold --seed N
               --seconds S --trace 0|1

   With --trace 0 it runs the workload untraced and reports the
   end-to-end metrics; with --trace 1 it runs the per-layer probe (every
   layer, in spans) and reports the per-layer metrics.  Human-readable
   accounting goes to stdout first; the last line is one JSON object
   {correct, attempted, failed, metrics}.  Run it from the checkout root
   (perfbench/run.sh builds it first). *)

let usage () =
  prerr_endline
    "usage: perfbench --workload analyze_cold|serve_warm|serve_cold --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string_opt s;
        parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> Some false | "1" -> Some true | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0.0 -> (s, t, tr)
    | _ -> usage ()
  in
  let run =
    match !workload with
    | "analyze_cold" -> Workloads.analyze_cold
    | "serve_warm" -> Workloads.serve_warm
    | "serve_cold" -> Workloads.serve_cold
    | _ -> usage ()
  in
  let root = Sys.getcwd () in
  let exe_dir = Filename.dirname Sys.executable_name in
  let exe_dir = if Filename.is_relative exe_dir then Filename.concat root exe_dir else exe_dir in
  Child.repro_exe := Filename.concat (Filename.dirname exe_dir) "bin/repro.exe";
  Layers.golden_path := Filename.concat root "test/golden/analyze-gzip-quick.out";
  if not (Sys.file_exists !Child.repro_exe && Sys.file_exists !Layers.golden_path) then begin
    prerr_endline "perfbench: run from the checkout root after building bin/repro.exe";
    exit 2
  end;
  (* Scratch files (sockets, stores, server logs) live in a per-run
     directory under .perfbench/, short relative paths keeping the Unix
     socket names within their length limit. *)
  let work = Filename.concat root ".perfbench" in
  if not (Sys.file_exists work) then Unix.mkdir work 0o755;
  let dir = Filename.concat work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  Sys.chdir dir;
  at_exit (fun () ->
      Child.reap_all ();
      Sys.chdir root;
      Workloads.rm_rf dir);
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b cores=%d\n%!" !workload seed seconds trace
    (Domain.recommended_domain_count ());
  let outcome =
    match
      if trace then
        Workloads.traced ~seed ~seconds
          ~spans_file:(Filename.concat work (Printf.sprintf "spans-%s.jsonl" !workload))
      else run ~seed ~seconds
    with
    | o -> o
    | exception e ->
        Layers.problem "%s aborted: %s" !workload (Printexc.to_string e);
        exit 1
  in
  (* A metric with no value (nothing succeeded) fails the run; JSON gets 0. *)
  let metrics =
    List.map
      (fun (n, v, u) ->
        if Float.is_finite v then (n, v, u)
        else begin
          Layers.problem "metric %s has no finite value" n;
          (n, 0.0, u)
        end)
      outcome.Workloads.metrics
  in
  let checks = List.length !Layers.problems in
  let failed = outcome.Workloads.failed + checks in
  let attempted = outcome.Workloads.attempted + checks in
  Printf.printf "attempted=%d failed=%d error_rate=%g\n" attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  print_endline
    (Benchlib.result_line ~correct:(failed = 0) ~attempted:(max 1 attempted) ~failed metrics)
