(* Unit tests for the determinism & hygiene linter (lib/lint): one positive
   and one negative fixture per rule, waiver handling (attributes and the
   baseline file), reporter determinism, and an integration check that the
   real repo lints clean with the shipped lint.waivers. *)

module Rule = Lint.Rule
module Loader = Lint.Loader
module Waivers = Lint.Waivers
module Engine = Lint.Engine
module Reporter = Lint.Reporter

let src path code = Loader.of_string ~path code

let run ?rules ?waivers sources = Engine.run_sources ?rules ?waivers sources

let rule_ids (res : Engine.result) =
  List.map (fun (f : Rule.finding) -> f.Rule.rule) res.Engine.findings

let check_ids = Alcotest.(check (list string))

(* One positive + one negative case per rule.  Each runs the full registry so
   a fixture tripping an unintended rule fails loudly. *)

let test_d001 () =
  let bad = [ src "lib/x/a.ml" "let r () = Random.int 6"; src "lib/x/a.mli" "" ] in
  check_ids "D001 fires" [ "D001" ] (rule_ids (run bad));
  let ok =
    [ src "lib/stats/rng.ml" "let self_test () = Random.self_init ()" ]
  in
  check_ids "rng.ml exempt" [] (rule_ids (run ~rules:[ "D001" ] ok))

let test_d002 () =
  let bad = [ src "bin/a.ml" "let t () = Unix.gettimeofday ()" ] in
  check_ids "D002 fires in bin/" [ "D002" ] (rule_ids (run bad));
  let ok = [ src "bench/a.ml" "let t () = Sys.time () +. Unix.time ()" ] in
  check_ids "bench/ exempt" [] (rule_ids (run ok));
  (* The server's deadline clock is the one blessed site outside bench/. *)
  let clock =
    [ src "lib/serve/clock.ml" "let now () = Unix.gettimeofday ()";
      src "lib/serve/clock.mli" "val now : unit -> float" ]
  in
  check_ids "lib/serve/clock.ml exempt" [] (rule_ids (run clock));
  let elsewhere =
    [ src "lib/serve/server.ml" "let t () = Unix.gettimeofday ()";
      src "lib/serve/server.mli" "val t : unit -> float" ]
  in
  check_ids "rest of lib/serve still covered" [ "D002" ]
    (rule_ids (run elsewhere))

let test_d003 () =
  let bad =
    [ src "lib/x/a.ml" "let n t = Hashtbl.fold (fun _ _ a -> a + 1) t 0";
      src "lib/x/a.mli" "" ]
  in
  check_ids "D003 fires" [ "D003" ] (rule_ids (run bad));
  (* Stdlib.-qualified calls hit the same rule. *)
  let qualified =
    [ src "lib/x/a.ml" "let f t g = Stdlib.Hashtbl.iter g t"; src "lib/x/a.mli" "" ]
  in
  check_ids "Stdlib.Hashtbl.iter caught" [ "D003" ] (rule_ids (run qualified));
  let ok =
    [ src "lib/x/a.ml" "let b t = Stats.Det.hashtbl_bindings t"; src "lib/x/a.mli" "";
      src "bin/b.ml" "let n t = Hashtbl.fold (fun _ _ a -> a + 1) t 0" ]
  in
  check_ids "helper + non-lib exempt" [] (rule_ids (run ok))

let test_d004 () =
  let bad = [ src "lib/x/a.ml" "let g f = Domain.spawn f"; src "lib/x/a.mli" "" ] in
  check_ids "D004 fires" [ "D004" ] (rule_ids (run bad));
  let ok = [ src "lib/parallel/pool.ml" "let g f = Domain.spawn f" ] in
  check_ids "lib/parallel exempt" [] (rule_ids (run ~rules:[ "D004" ] ok))

let test_d005 () =
  let bad = [ src "lib/x/a.ml" "let s a b = a == b || a != b"; src "lib/x/a.mli" "" ] in
  check_ids "D005 fires twice" [ "D005"; "D005" ] (rule_ids (run bad));
  let ok = [ src "test/t.ml" "let s a b = a == b" ] in
  check_ids "test/ exempt" [] (rule_ids (run ok))

let test_d006 () =
  let bad = [ src "lib/x/a.ml" "let p () = print_endline \"x\""; src "lib/x/a.mli" "" ] in
  check_ids "D006 fires" [ "D006" ] (rule_ids (run bad));
  let ok =
    [ src "lib/x/a.ml" "let p () = Printf.sprintf \"x\""; src "lib/x/a.mli" "";
      src "bin/b.ml" "let p () = print_endline \"x\"" ]
  in
  check_ids "sprintf + bin/ exempt" [] (rule_ids (run ok))

let test_d007 () =
  let bad = [ src "lib/x/a.ml" "let x = 1" ] in
  check_ids "D007 fires" [ "D007" ] (rule_ids (run bad));
  let ok = [ src "lib/x/a.ml" "let x = 1"; src "lib/x/a.mli" "val x : int" ] in
  check_ids "mli present" [] (rule_ids (run ok));
  let non_lib = [ src "bin/a.ml" "let x = 1" ] in
  check_ids "bin/ exempt" [] (rule_ids (run non_lib))

let test_d008 () =
  let bad =
    [ src "lib/x/a.ml" "let f g = try g () with _ -> 0"; src "lib/x/a.mli" "" ]
  in
  check_ids "D008 fires on try" [ "D008" ] (rule_ids (run bad));
  let bad_match =
    [ src "lib/x/a.ml" "let f g = match g () with x -> x | exception _ -> 0";
      src "lib/x/a.mli" "" ]
  in
  check_ids "D008 fires on match-exception" [ "D008" ] (rule_ids (run bad_match));
  let ok =
    [ src "lib/x/a.ml" "let f g = try g () with Not_found -> 0"; src "lib/x/a.mli" "" ]
  in
  check_ids "named exception ok" [] (rule_ids (run ok))

let test_d009 () =
  let bad =
    [ src "lib/march/a.ml" "let f a b = max a (Stdlib.min b 0)\nlet s l = List.sort compare l";
      src "lib/march/a.mli" "" ]
  in
  check_ids "D009 fires on min, max, compare" [ "D009"; "D009"; "D009" ] (rule_ids (run bad));
  let ok =
    [ src "lib/dbengine/a.ml" "let f a b = Int.max a (Int.min b 0)"; src "lib/dbengine/a.mli" "";
      src "lib/rtree/b.ml" "let f a b = max a b"; src "lib/rtree/b.mli" "" ]
  in
  check_ids "Int.* ok; outside the simulator ok" [] (rule_ids (run ok))

let test_syntax_error () =
  let broken = [ src "lib/x/a.ml" "let f = ("; src "lib/x/a.mli" "" ] in
  check_ids "E000 reported" [ "E000" ] (rule_ids (run broken))

(* ------------------------------ waivers ------------------------------ *)

let test_attribute_waiver () =
  let code =
    "let n t = (Hashtbl.fold [@lint.allow \"D003\"]) (fun _ _ a -> a + 1) t 0"
  in
  let res = run [ src "lib/x/a.ml" code; src "lib/x/a.mli" "" ] in
  check_ids "waived, not reported" [] (rule_ids res);
  Alcotest.(check int) "recorded as waived" 1 (List.length res.Engine.waived)

let test_floating_attribute_waiver () =
  let code =
    "[@@@lint.allow \"D005 D006\"]\nlet s a b = a == b\nlet p () = print_newline ()"
  in
  let res = run [ src "lib/x/a.ml" code; src "lib/x/a.mli" "" ] in
  check_ids "whole file waived" [] (rule_ids res);
  Alcotest.(check int) "both waived" 2 (List.length res.Engine.waived)

let test_attribute_wrong_rule () =
  let code = "let n t = (Hashtbl.fold [@lint.allow \"D005\"]) (fun _ _ a -> a + 1) t 0" in
  let res = run [ src "lib/x/a.ml" code; src "lib/x/a.mli" "" ] in
  check_ids "wrong id does not waive" [ "D003" ] (rule_ids res)

let waivers_of_string text =
  match Waivers.parse_string ~path:"lint.waivers" text with
  | Ok w -> w
  | Error msg -> Alcotest.failf "waiver parse: %s" msg

let test_file_waiver () =
  let sources = [ src "lib/x/a.ml" "let g f = Domain.spawn f"; src "lib/x/a.mli" "" ] in
  let w = waivers_of_string "D004 lib/x/a.ml contained by a fixture pool\n" in
  let res = run ~waivers:w sources in
  check_ids "file waiver applies" [] (rule_ids res);
  Alcotest.(check int) "waived" 1 (List.length res.Engine.waived);
  (* Same entry pinned to the wrong line must not waive. *)
  let w = waivers_of_string "D004 lib/x/a.ml:99 wrong line\n" in
  check_ids "wrong line keeps finding + W000" [ "D004"; "W000" ]
    (List.sort compare (rule_ids (run ~waivers:w sources)))

let test_stale_waiver () =
  let w = waivers_of_string "D001 lib/gone.ml file was deleted\n" in
  let res = run ~waivers:w [ src "lib/x/a.ml" "let x = 1"; src "lib/x/a.mli" "" ] in
  check_ids "stale entry surfaces as W000" [ "W000" ] (rule_ids res);
  Alcotest.(check int) "W000 is a warning, not an error" 0 (Engine.errors res)

let test_waiver_parse_error () =
  match Waivers.parse_string ~path:"lint.waivers" "D001\n" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error _ -> ()

(* ----------------------------- reporters ----------------------------- *)

let test_reporter_deterministic () =
  (* Same findings presented in a different source order must render to the
     same bytes, human and JSON alike. *)
  let a = src "lib/x/a.ml" "let r () = Random.int 6" in
  let b = src "lib/y/b.ml" "let s p q = p == q" in
  let mli p = src p "" in
  let r1 = run [ a; mli "lib/x/a.mli"; b; mli "lib/y/b.mli" ] in
  let r2 = run [ b; mli "lib/y/b.mli"; a; mli "lib/x/a.mli" ] in
  Alcotest.(check string) "human stable" (Reporter.human r1) (Reporter.human r2);
  Alcotest.(check string) "json stable" (Reporter.json r1) (Reporter.json r2)

let test_rules_filter () =
  let sources =
    [ src "lib/x/a.ml" "let r () = Random.int 6\nlet s a b = a == b" ]
  in
  check_ids "only D001 runs" [ "D001" ] (rule_ids (run ~rules:[ "D001" ] sources))

(* ---------------------------- integration ---------------------------- *)

(* dune runtest executes from _build/default/test; the checkout root is
   three levels up.  The whole tree must lint clean with the shipped
   lint.waivers — the static half of the determinism gate.  Exactly one
   shallow finding is waived: graph.ml's own sorted_bindings carries a
   point [@lint.allow "D003"] (the fold it wraps is the sanctioned
   sorted-traversal implementation the rule steers everyone else to). *)
let test_repo_clean () =
  let root = "../../.." in
  if not (Sys.file_exists (Filename.concat root "dune-project")) then ()
  else
    match Engine.run { Engine.default with Engine.root } with
    | Error msg -> Alcotest.failf "engine error: %s" msg
    | Ok res ->
        let render = Reporter.human res in
        Alcotest.(check string)
          "repo lints clean (zero errors, zero warnings)"
          (Printf.sprintf "lint clean: %d files checked, 1 finding(s) waived.\n"
             res.Engine.files)
          render

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "D001 randomness" `Quick test_d001;
          Alcotest.test_case "D002 wall-clock" `Quick test_d002;
          Alcotest.test_case "D003 hashtbl order" `Quick test_d003;
          Alcotest.test_case "D004 domain spawn" `Quick test_d004;
          Alcotest.test_case "D005 physical equality" `Quick test_d005;
          Alcotest.test_case "D006 stdout in lib" `Quick test_d006;
          Alcotest.test_case "D007 missing mli" `Quick test_d007;
          Alcotest.test_case "D008 wildcard handler" `Quick test_d008;
          Alcotest.test_case "D009 polymorphic min/max" `Quick test_d009;
          Alcotest.test_case "E000 syntax error" `Quick test_syntax_error;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "attribute" `Quick test_attribute_waiver;
          Alcotest.test_case "floating attribute" `Quick test_floating_attribute_waiver;
          Alcotest.test_case "attribute wrong rule" `Quick test_attribute_wrong_rule;
          Alcotest.test_case "baseline file" `Quick test_file_waiver;
          Alcotest.test_case "stale entry -> W000" `Quick test_stale_waiver;
          Alcotest.test_case "malformed line rejected" `Quick test_waiver_parse_error;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "byte-deterministic" `Quick test_reporter_deterministic;
          Alcotest.test_case "--rules filter" `Quick test_rules_filter;
        ] );
      ( "integration",
        [ Alcotest.test_case "repo lints clean" `Quick test_repo_clean ] );
    ]
