(* Self-tests for the benchmark's arithmetic: percentile selection, span
   self time, open-loop lateness and ladder selection.  Run with
   `dune test perfbench`. *)

open Benchlib

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  (* Nearest rank: p50 of 1..10 is 5, p99 is the maximum, p10 the minimum. *)
  let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  check "p50 of 1..10" (percentile 50.0 xs = 5.0);
  check "p99 of 1..10" (percentile 99.0 xs = 10.0);
  check "p10 of 1..10" (percentile 10.0 xs = 1.0);
  check "p100 of 1..10" (percentile 100.0 xs = 10.0);
  check "percentile leaves input unsorted" (xs.(0) = 10.0);
  (* p99 of 1..1000 is 990, with ten samples beyond it. *)
  let ys = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check "p99 of 1..1000" (percentile 99.0 ys = 990.0);
  check "ten beyond p99 of 1..1000" (beyond 99.0 ys = 10);
  check "median odd" (median [| 3.0; 1.0; 2.0 |] = 2.0);
  check "median even" (median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  check "empty percentile raises"
    (match percentile 50.0 [||] with _ -> false | exception Invalid_argument _ -> true)

let () =
  (* A fake clock that advances by one per read makes span times exact. *)
  let t = ref 0.0 in
  let clock () =
    let v = !t in
    t := v +. 1.0;
    v
  in
  let r = recorder clock in
  (* root [0, 9]: a [1, 4] holding b [2, 3]; c [5, 8] holding d [6, 7]. *)
  with_span r "root" (fun () ->
      with_span r "a" (fun () -> with_span r "b" (fun () -> ()));
      with_span r "c" (fun () -> with_span r "d" (fun () -> ())));
  let sp = spans r in
  check "five spans" (List.length sp = 5);
  check "parents" (List.map (fun s -> s.parent) sp = [ -1; 0; 1; 0; 3 ]);
  check "root self = 9 - 3 - 3" (close (sum_self sp "root") 3.0);
  check "a self = 3 - 1" (close (sum_self sp "a") 2.0);
  check "leaf self = duration" (close (sum_self sp "b") 1.0);
  check "root duration" (close (sum_duration sp "root") 9.0);
  (* Overlapping children (concurrent work) are covered once, and a
     child sticking out of its parent only counts inside it. *)
  let mk id name parent start stop = { id; name; parent; start; stop } in
  let ov =
    [ mk 0 "p" (-1) 0.0 10.0; mk 1 "k" 0 1.0 5.0; mk 2 "k" 0 3.0 7.0; mk 3 "k" 0 9.0 12.0 ]
  in
  check "overlap covered once" (close (sum_self ov "p") 3.0);
  check "covered union" (close (covered ~lo:0.0 ~hi:10.0 [ (1.0, 5.0); (3.0, 7.0) ]) 6.0);
  (* A raising body still closes its span. *)
  let r2 = recorder clock in
  (try with_span r2 "boom" (fun () -> failwith "x") with Failure _ -> ());
  check "span closed on raise" (List.length (spans r2) = 1)

let () =
  (* At 100/s from t=10, request 3 is due at 10.03. *)
  check "due" (close (due ~start:10.0 ~rate:100.0 3) 10.03);
  (* In groups of 4 at 100/s, requests 4-7 are all due at 10.04. *)
  check "due in a group" (close (due ~group:4 ~start:10.0 ~rate:100.0 7) 10.04);
  check "due group start" (close (due ~group:4 ~start:10.0 ~rate:100.0 3) 10.0);
  check "grouped lateness"
    (Array.for_all2 close
       (lateness ~group:2 ~start:10.0 ~rate:100.0 [| 10.001; 10.002; 10.02; 10.025 |])
       [| 0.001; 0.002; 0.0; 0.005 |]);
  let late = lateness ~start:10.0 ~rate:100.0 [| 10.0; 10.015; 10.005; 10.05 |] in
  check "on time" (close late.(0) 0.0);
  check "5 ms late" (close late.(1) 0.005);
  check "early is on time" (close late.(2) 0.0);
  check "20 ms late" (close late.(3) 0.02);
  (* Cumulative buckets: 10 at <= 1, 30 at <= 2, 40 at <= 4.  The median
     (target 20) sits halfway through the (1, 2] bucket. *)
  let h = [ (1.0, 10); (2.0, 30); (4.0, 40); (infinity, 40) ] in
  check "hist p50" (hist_quantile 0.5 h = Some 1.5);
  check "hist p25 first bucket" (hist_quantile 0.25 h = Some 1.0);
  check "hist overflow reads last bound" (hist_quantile 1.0 [ (1.0, 0); (infinity, 5) ] = Some 1.0);
  check "hist empty" (hist_quantile 0.5 [ (1.0, 0); (infinity, 0) ] = None)

let () =
  let rs = rungs ~base:100.0 ~step:1.04 ~count:50 in
  check "rung 0" (rs.(0) = 100.0);
  check "steps <= 5%" (Array.for_all Fun.id (Array.init 49 (fun k -> rs.(k + 1) /. rs.(k) <= 1.05)));
  (* The climb stops at the first failing rung for every threshold,
     including none and all, probing each rung at most once and nothing
     above the first failure. *)
  for threshold = -1 to 50 do
    let probes = ref 0 in
    let got =
      climb ~count:50 (fun k ->
          incr probes;
          k <= threshold)
    in
    let want = if threshold < 0 then None else Some (min threshold 49) in
    check (Printf.sprintf "ladder threshold %d" threshold) (got = want);
    check (Printf.sprintf "ladder probes %d" threshold) (!probes = min 50 (threshold + 2))
  done;
  (* Not monotone: a holding rung above the first failure is not reached. *)
  let probed = ref [] in
  let got =
    climb ~count:10 (fun k ->
        probed := k :: !probed;
        k <> 3)
  in
  check "ladder stops at first failure" (got = Some 2);
  check "ladder probes nothing above it" (List.sort compare !probed = [ 0; 1; 2; 3 ]);
  let p =
    { offered = 1000; succeeded = 1000; p99_ms = 2.0; backlog_start = 3; backlog_end = 4; rate = 2000.0 }
  in
  check "rung holds" (rung_holds ~limit_ms:5.0 p);
  check "p99 over limit" (not (rung_holds ~limit_ms:5.0 { p with p99_ms = 5.5 }));
  check "too few succeeded" (not (rung_holds ~limit_ms:5.0 { p with succeeded = 989 }));
  check "99% succeeded is enough" (rung_holds ~limit_ms:5.0 { p with succeeded = 990 });
  (* 2000/s x 5 ms = 10 may be in flight; 11 with an early backlog of 3
     is growth. *)
  check "backlog within limit" (rung_holds ~limit_ms:5.0 { p with backlog_end = 10 });
  check "backlog grows" (not (rung_holds ~limit_ms:5.0 { p with backlog_end = 11 }))

let () =
  check "json number keeps digits" (json_number 0.1 = "0.1");
  check "json number exact" (float_of_string (json_number (1.0 /. 3.0)) = 1.0 /. 3.0);
  check "json string escapes" (json_string "a\"b\\" = "\"a\\\"b\\\\\"");
  check "result line"
    (result_line ~correct:true ~attempted:3 ~failed:0 [ ("x_ms", 1.5, "ms") ]
    = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x_ms\": {\"value\": \
       1.5, \"unit\": \"ms\"}}}");
  if !failures > 0 then begin
    Printf.printf "%d self-test failure(s)\n" !failures;
    exit 1
  end
