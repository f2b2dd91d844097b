(* CLI argument handling, pinned by executing the real binary: bad flags
   and bad option values must produce a usage error and a non-zero exit,
   never be silently ignored.  (Historically `--jobs 0` fell back to the
   default without a word; cmdliner now rejects it at parse time.) *)

let exe = Filename.concat (Filename.concat ".." "bin") "repro.exe"

(* Run the binary, returning (exit code, combined stdout+stderr). *)
let run_repro args =
  let out = Filename.temp_file "repro-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>&1"
          (Filename.quote exe)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out)
      in
      let code = Sys.command cmd in
      let ic = open_in_bin out in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (code, text))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  ||
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let check_rejected ~ctx ~expect (code, text) =
  Alcotest.(check bool) (ctx ^ ": non-zero exit") true (code <> 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: mentions %S in %S" ctx expect text)
    true (contains text expect);
  (* cmdliner's errors always point at the usage line. *)
  Alcotest.(check bool) (ctx ^ ": prints usage") true
    (contains text "Usage" || contains text "usage")

let test_unknown_flag_rejected () =
  check_rejected ~ctx:"unknown flag" ~expect:"--frobnicate"
    (run_repro [ "analyze"; "--frobnicate"; "gzip" ]);
  check_rejected ~ctx:"unknown subcommand flag" ~expect:"--bogus"
    (run_repro [ "cache"; "stats"; "--bogus" ])

let test_bad_option_values_rejected () =
  check_rejected ~ctx:"--jobs 0" ~expect:"JOBS"
    (run_repro [ "analyze"; "--quick"; "--jobs"; "0"; "gzip" ]);
  check_rejected ~ctx:"--jobs -3" ~expect:"JOBS"
    (run_repro [ "analyze"; "--quick"; "--jobs=-3"; "gzip" ]);
  check_rejected ~ctx:"--jobs garbage" ~expect:"JOBS"
    (run_repro [ "analyze"; "--quick"; "--jobs"; "two"; "gzip" ]);
  check_rejected ~ctx:"--intervals 0" ~expect:"INTERVALS"
    (run_repro [ "analyze"; "--quick"; "--intervals"; "0"; "gzip" ]);
  check_rejected ~ctx:"--reservoir 0" ~expect:"RESERVOIR"
    (run_repro [ "stream"; "--quick"; "--reservoir"; "0"; "gzip" ]);
  check_rejected ~ctx:"--window 1" ~expect:"WINDOW"
    (run_repro [ "stream"; "--quick"; "--window"; "1"; "gzip" ])

let test_valid_invocations_still_work () =
  let code, text = run_repro [ "workloads" ] in
  Alcotest.(check int) "workloads exits 0" 0 code;
  Alcotest.(check bool) "lists gzip" true (contains text "gzip");
  let code, _ = run_repro [ "cache"; "gc"; "--dir"; "_cli-test-store" ] in
  Alcotest.(check int) "cache gc (no budgets) exits 0" 0 code

(* A client pointed at a socket nobody serves must exit 1 with one line
   naming the address and the reason — not an uncaught Unix_error.  Both
   failure shapes: no socket file (ENOENT) and a stale socket file with
   no listener (ECONNREFUSED). *)
let test_unreachable_server () =
  let missing = Filename.temp_file "repro-cli" ".sock" in
  Sys.remove missing;
  let stale = Filename.temp_file "repro-cli" ".sock" in
  Sys.remove stale;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  Fun.protect
    ~finally:(fun () -> Sys.remove stale)
    (fun () ->
      List.iter
        (fun (path, reason) ->
          let expect = Printf.sprintf "cannot connect to unix:%s: %s\n" path reason in
          List.iter
            (fun args ->
              let code, text = run_repro (args @ [ "--socket"; path ]) in
              let ctx = String.concat " " args in
              Alcotest.(check int) (ctx ^ ": exit 1") 1 code;
              Alcotest.(check string) (ctx ^ ": one line") expect text)
            [ [ "client"; "health" ]; [ "serve"; "--status" ] ])
        [ (missing, "No such file or directory"); (stale, "Connection refused") ])

let () =
  Alcotest.run "cli"
    [
      ( "argument validation",
        [
          Alcotest.test_case "unknown flags rejected" `Quick test_unknown_flag_rejected;
          Alcotest.test_case "bad option values rejected" `Quick
            test_bad_option_values_rejected;
          Alcotest.test_case "valid invocations unaffected" `Quick
            test_valid_invocations_still_work;
        ] );
      ( "client",
        [ Alcotest.test_case "unreachable server exits 1" `Quick test_unreachable_server ] );
    ]
