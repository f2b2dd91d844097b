(* The three workloads (untraced: end-to-end metrics) and the traced
   per-layer run.  Every workload takes the seed: it goes into the
   analysis configuration (analyze_cold, the traced run), `repro serve
   --seed` (serve_cold) or the request schedule (serve_warm). *)

let now = Unix.gettimeofday
let entries = Layers.entries
let n_entries = Array.length entries
let problem = Layers.problem

type outcome = {
  metrics : (string * float * string) list;
  attempted : int;
  failed : int;
}

let ms s = s *. 1000.0
let median = Benchlib.median

(* Nearest-rank percentile in ms, printed with its sample count and how
   many samples lie beyond it. *)
let pct label p xs =
  let v = Benchlib.percentile p xs in
  Printf.printf "  %s p%g = %.3f ms (n=%d, %d beyond)\n" label p (ms v) (Array.length xs)
    (Benchlib.beyond p xs);
  ms v

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ---- requests --------------------------------------------------------- *)

(* Request kinds: analyze, quadrant and re_curve per entry, then health
   and stats. *)
let requests =
  let heavy =
    List.concat_map
      (fun mk -> Array.to_list (Array.map mk entries))
      [
        (fun e -> Serve.Protocol.Analyze e);
        (fun e -> Serve.Protocol.Quadrant e);
        (fun e -> Serve.Protocol.Re_curve e);
      ]
  in
  Array.of_list (heavy @ [ Serve.Protocol.Health; Serve.Protocol.Stats ])

let keys = Array.map Serve.Protocol.encode_request requests
let frames = Array.map Serve.Wire.encode keys
let analyze_kind e = e (* analyze requests come first *)
let health_kind = 3 * n_entries
let stats_kind = health_kind + 1

(* The serve_warm mix, drawn from the seed: each of the five verbs
   (analyze, quadrant, re_curve, health, stats) gets an equal share, and
   the entry of an analyze, quadrant or re_curve is uniform over the six.
   Equal shares per verb follow the repo's own load generators: `bench
   --load` and `bench --soak` cycle health, analyze and quadrant 1:1:1.
   No measured production mix exists to weight them otherwise. *)
let mix ~seed n =
  let st = Random.State.make [| seed; 0x5eed |] in
  Array.init n (fun _ ->
      let verb = Random.State.int st 5 and e = Random.State.int st n_entries in
      match verb with
      | 0 -> e
      | 1 -> n_entries + e
      | 2 -> (2 * n_entries) + e
      | 3 -> health_kind
      | _ -> stats_kind)

let print_tally label (t : Rpc.tally) =
  Printf.printf "  %s: sent=%d succeeded=%d failed=%d refused=%d lost=%d\n" label t.Rpc.sent
    t.Rpc.succeeded t.Rpc.failed t.Rpc.refused t.Rpc.lost

(* Failures of a phase: everything sent that did not succeed. *)
let failures (t : Rpc.tally) = t.Rpc.failed + t.Rpc.refused + t.Rpc.lost

let connect_all socket n = Array.init n (fun _ -> Rpc.connect socket)

(* Connections the generator may open: at most the core count, and two. *)
let max_conns () = max 1 (min 2 (Domain.recommended_domain_count ()))

(* The warm server always serves seed 42's analyses (the golden seed);
   the workload seed draws the request schedule.  Report-render cost
   differs up to eightfold between seeds' analyses (it grows with k_opt),
   so a per-seed server would make latency a property of the seed. *)
let served_seed = 42

(* The warm server runs one domain (`--jobs 1`: the pool runs each task
   inline in the IO loop), so it and the generator are two processes on
   the 2 vCPUs.  At `--jobs 2` its three domains and the generator
   outnumber the vCPUs, and each pooled request hands off between domains
   twice.  On a 2-vCPU VM, the one-second windows of a 30-s run at the
   same seed read p50s of 3.0-11.8 ms at `--jobs 2` and 2.9-4.2 ms at
   `--jobs 1`.  The pool's hand-off is measured by serve_cold, whose
   server keeps two workers. *)
let warm_jobs = 1

(* Start a server and warm it with one analyze per entry, pipelined on
   one connection; gzip's report must be the golden one.  Returns the
   server and the set-up time. *)
let warm_server ~reg ~metrics socket =
  let t0 = now () in
  let s = Child.spawn ~jobs:warm_jobs ~seed:served_seed ~metrics socket in
  let conns = connect_all socket 1 in
  let r = Rpc.burst ~conns ~reg ~frames ~keys ~kind:analyze_kind n_entries in
  Array.iter Rpc.close conns;
  let t = Rpc.tally r in
  if failures t > 0 then problem "warming the server: %d of %d analyses failed" (failures t) n_entries;
  let dt = now () -. t0 in
  (match Hashtbl.find_opt reg keys.(analyze_kind 0) with
  | Some payload -> (
      match Serve.Protocol.decode_response payload with
      | Ok (Serve.Protocol.Report text) -> Layers.check_golden text
      | _ -> problem "gzip analyze did not answer a report")
  | None -> problem "no gzip analyze response");
  (s, dt)

(* serve_cold sets up this many times in a run; [setup_s] is the median. *)
let setup_repeats = 9

(* The cold workloads run at least this many passes or cycles, and
   report medians over them. *)
let min_rounds = 3

let print_setups setups =
  Printf.printf "set-up: median %.4f s of %s s\n" (median setups)
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.4f") setups)))

(* ---- analyze_cold ------------------------------------------------------ *)

let analyze_cold ~seed ~seconds =
  let scale = (Layers.config seed).Fuzzy.Analysis.scale in
  (* Set-up: build the six workload models of a pass (validates the
     inputs).  It runs before every pass, outside the pass's time, so
     setup_s is a median over set-ups spread through the run: the host's
     speed changes within a run, and nine set-ups in a row at the start
     all landed in one of its fast or slow periods. *)
  let setup pseed =
    snd
      (time (fun () ->
           Array.iter
             (fun e -> ignore ((Workload.Catalog.find e).Workload.Catalog.build ~seed:pseed ~scale))
             entries))
  in
  let setups = ref [] in
  let lat = ref [] and failed = ref 0 and attempted = ref 0 and gzip = ref None in
  let passes = ref 0 and pass_times = ref [] in
  let t0 = now () in
  (* Whole passes over the six entries, each at a fresh seed, until the
     time is up and at least [min_rounds] passes are done. *)
  while !passes < min_rounds || now () -. t0 < seconds do
    let pseed = Layers.pass_seed seed !passes in
    setups := setup pseed :: !setups;
    let p0 = now () in
    let cfg = Layers.config pseed in
    incr passes;
    let line = Buffer.create 128 and results = ref [] in
    Printf.bprintf line "  pass %d, seed %d:" !passes pseed;
    Array.iter
      (fun e ->
        incr attempted;
        match time (fun () -> Fuzzy.Analysis.analyze cfg e) with
        | a, dt ->
            Printf.bprintf line " %s %.0f ms" e (ms dt);
            lat := dt :: !lat;
            results := (e, a) :: !results;
            if e = "gzip" && pseed = 42 && !gzip = None then gzip := Some a
        | exception ex ->
            incr failed;
            problem "analyze %s raised %s" e (Printexc.to_string ex))
      entries;
    pass_times := (now () -. p0) :: !pass_times;
    print_endline (Buffer.contents line);
    List.iter
      (fun (e, a) ->
        Layers.record_fingerprint ~context:"analyze_cold" ~seed:pseed e (Layers.fingerprint a))
      (List.rev !results)
  done;
  let setups = Array.of_list (List.rev !setups) in
  print_setups setups;
  (* Untimed checks: gzip analyzed again must repeat its fingerprint, and
     at seed 42 its report is the golden one. *)
  Layers.record_fingerprint ~context:"analyze_cold repeat" ~seed "gzip"
    (Layers.fingerprint (Fuzzy.Analysis.analyze (Layers.config seed) "gzip"));
  let golden =
    match !gzip with Some a -> a | None -> Fuzzy.Analysis.analyze (Layers.config 42) "gzip"
  in
  Layers.check_golden (Fuzzy.Report.analyze_report golden);
  let lat = Array.of_list !lat in
  let done_ = Array.length lat in
  (* Analyses per second of the median pass, so one pass slowed by the
     host does not decide the run. *)
  let throughput = float_of_int n_entries /. median (Array.of_list !pass_times) in
  Printf.printf "analyze_cold: closed loop, 1 caller, %d passes, %d analyses in %.3f s\n" !passes
    done_
    (List.fold_left ( +. ) 0.0 !pass_times);
  ignore (pct "analysis latency" 50.0 lat : float);
  ignore (pct "analysis latency" 99.0 lat : float);
  {
    metrics =
      [
        ("setup_s", median setups, "s");
        ("throughput_per_s", throughput, "1/s");
        ("peak_rss_mb", Child.self_peak_rss_mb (), "MB");
      ];
    attempted = !attempted;
    failed = !failed;
  }

(* ---- serve_warm -------------------------------------------------------- *)

let nominal_rate = 2500.0

(* The sustained-rate ladder: 5% steps from 1000/s to ~98k/s, each rung
   long enough for 1000 requests and at least half a second. *)
let latency_limit_ms = 25.0
let ladder = Benchlib.rungs ~base:1000.0 ~step:1.05 ~count:95
let rung_seconds rate = Float.max 0.5 (1000.0 /. rate)

(* Requests go out in groups of 32 due together (one group every 12.8 ms
   at the nominal rate).  A lone request's latency on the 2-vCPU VM was
   mostly the time to wake an idle vCPU: sent one by one at 500/s, p50
   read 0.40-0.58 ms in calm periods and 1.1-1.4 ms in busy ones.  In a
   group, each request waits for the server to work through the requests
   ahead of it, so its latency is mostly serving cost. *)
let group = 32

let probe ?(group = group) ~conns ~reg ~seed ~rate ~seconds () =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let kinds = mix ~seed n in
  Rpc.open_loop ~group ~conns ~reg ~frames ~keys ~kind:(fun i -> kinds.(i)) ~rate n

(* A phase's accounting and latency.  The phase is cut into [windows]
   consecutive windows and each percentile reported is the median of the
   windows' percentiles, so a scheduler stall that hits one window does
   not decide the run. *)
let windows = 10

let report_phase label (r : Rpc.result) =
  let t = Rpc.tally r in
  print_tally label t;
  let per_window p =
    Array.init windows (fun w ->
        let good =
          Rpc.good_latencies ~lo:(w * r.Rpc.n / windows) ~hi:((w + 1) * r.Rpc.n / windows) r
        in
        if Array.length good = 0 then Float.nan
        else pct (Printf.sprintf "window %d latency" (w + 1)) p good)
  in
  let p50 = median (per_window 50.0) and p99 = median (per_window 99.0) in
  Printf.printf "  %s: latency p50 %.3f ms, p99 %.3f ms (medians over %d windows)\n" label p50 p99
    windows;
  let late = Rpc.lateness r in
  if Array.length late > 0 then ignore (pct "generator lateness" 99.0 late);
  (t, p50, p99)

(* Before the timed phase, the nominal traffic runs untimed for
   [warm_up_seconds] (responses still checked), so the server's lazy
   work and heap growth happen before timing: without it the first
   seconds of a phase read higher p50s (5.8-8.2 ms, then 4.1-5.0 ms in one
   run).  It is a fixed duration at a fixed rate, not set-up work, so it
   is outside setup_s. *)
let warm_up_seconds = 5.0

let warm_up ~conns ~reg ~seed =
  let w = probe ~conns ~reg ~seed:(seed + 1) ~rate:nominal_rate ~seconds:warm_up_seconds () in
  print_tally "warm-up (untimed)" (Rpc.tally w);
  Rpc.tally w

let sustained ~conns ~reg ~seed =
  let holds k =
    let rate = ladder.(k) in
    let r = probe ~group:1 ~conns ~reg ~seed:(seed + k) ~rate ~seconds:(rung_seconds rate) () in
    let t = Rpc.tally r in
    let good = Rpc.good_latencies r in
    let p =
      {
        Benchlib.offered = r.Rpc.n;
        succeeded = t.Rpc.succeeded;
        p99_ms = (if Array.length good = 0 then infinity else ms (Benchlib.percentile 99.0 good));
        backlog_start = r.Rpc.backlog_start;
        backlog_end = r.Rpc.backlog_end;
        rate;
      }
    in
    let ok = Benchlib.rung_holds ~limit_ms:latency_limit_ms p in
    Printf.printf
      "  rung %.0f/s: sent=%d succeeded=%d failed=%d refused=%d lost=%d p99=%.3f ms (n=%d) \
       backlog %d -> %d: %s\n"
      rate t.Rpc.sent t.Rpc.succeeded t.Rpc.failed t.Rpc.refused t.Rpc.lost p.Benchlib.p99_ms
      (Array.length good) p.Benchlib.backlog_start p.Benchlib.backlog_end
      (if ok then "holds" else "fails");
    (* Refusals are how overload shows on the ladder; wrong bytes are
       never expected. *)
    if t.Rpc.failed > 0 then problem "ladder rung %.0f/s: %d failed responses" rate t.Rpc.failed;
    ok
  in
  let rate =
    match Benchlib.climb ~count:(Array.length ladder) holds with
    | Some k -> ladder.(k)
    | None -> 0.0
  in
  Printf.printf
    "  sustained rate (last rung before the first failure; p99 <= %.0f ms, >= 99%% succeeded, no \
     backlog growth): %.0f/s\n"
    latency_limit_ms rate;
  rate

let serve_warm ~seed ~seconds =
  let reg = Rpc.registry () in
  (* Set-up three times; the last server stays up for the timed phase. *)
  let setups = ref [] and server = ref None in
  for i = 1 to 3 do
    let s, dt = warm_server ~reg ~metrics:false "warm.sock" in
    setups := dt :: !setups;
    Printf.printf "  set-up %d: %.4f s, server start %.4f s, server CPU %.2f s\n" i dt
      (Child.ready_s s) (Child.cpu_s s.Child.pid);
    if i < 3 then Child.shutdown s else server := Some s
  done;
  print_setups (Array.of_list (List.rev !setups));
  let s = Option.get !server in
  let conns = connect_all "warm.sock" (max_conns ()) in
  Printf.printf "serve_warm: open loop, %d connections, nominal %.0f/s\n" (Array.length conns)
    nominal_rate;
  let w = warm_up ~conns ~reg ~seed in
  let gen0 = Child.cpu_s (Unix.getpid ()) in
  let cpu0 = Child.cpu_s s.Child.pid in
  let r = probe ~conns ~reg ~seed ~rate:nominal_rate ~seconds () in
  let cpu = Child.cpu_s s.Child.pid -. cpu0 in
  let gen_cpu = Child.cpu_s (Unix.getpid ()) -. gen0 in
  (* The latency percentiles are printed, not reported as metrics: on the
     2-vCPU VM they follow the host's steal time, not the server (see
     README.md). *)
  let t, _, _ = report_phase "nominal" r in
  (* At a fixed offered rate the answers per wall-clock second are set by
     the generator, so throughput is what the server spends instead:
     responses per second of server CPU time over the timed phase. *)
  let throughput = float_of_int t.Rpc.succeeded /. cpu in
  Printf.printf "  CPU time over the phase: server %.2f s for %d responses, generator %.2f s\n" cpu
    t.Rpc.succeeded gen_cpu;
  Array.iter Rpc.close conns;
  let rss = Child.peak_rss_mb s.Child.pid in
  Child.shutdown s;
  {
    metrics =
      [
        ("setup_s", median (Array.of_list !setups), "s");
        ("throughput_per_s", throughput, "1/s");
        ("peak_rss_mb", rss, "MB");
      ];
    attempted = w.Rpc.sent + t.Rpc.sent;
    failed = failures w + failures t;
  }

(* ---- serve_cold -------------------------------------------------------- *)

type cycle = {
  cold_s : float;  (** first request to last cold response *)
  cold_lat : float array;
  restart : float;
  rss : float;
  before : Serve.Metrics.snapshot;  (** stats after the cold phase *)
  after : Serve.Metrics.snapshot;  (** stats after the replay *)
  sent : int;
  bad : int;
}

(* Each entry is requested on both connections at once (the second must
   join the first's computation), against a server on an empty store;
   then the server is drained, restarted on the populated store, and the
   same requests are replayed — byte-identical answers required. *)
let cold_cycle ~seed ~reg ~store =
  rm_rf store;
  let s = Child.spawn ~seed ~store "cold.sock" in
  let conns = connect_all "cold.sock" 2 in
  let kind i = analyze_kind (i / 2) in
  let r = Rpc.burst ~conns ~reg ~frames ~keys ~kind (2 * n_entries) in
  Array.iter Rpc.close conns;
  let t1 = Rpc.tally r in
  let before = Child.stats s in
  let rss = Child.peak_rss_mb s.Child.pid in
  Child.shutdown s;
  let s = Child.spawn ~seed ~store "cold.sock" in
  let conns = connect_all "cold.sock" 2 in
  let r2 = Rpc.burst ~conns ~reg ~frames ~keys ~kind (2 * n_entries) in
  Array.iter Rpc.close conns;
  let t2 = Rpc.tally r2 in
  let after = Child.stats s in
  Child.shutdown s;
  print_tally "cold" t1;
  print_tally "after restart" t2;
  (* Checks: one computation and one store write per entry, nothing
     corrupt, and the restart served everything from the store. *)
  let m = before in
  if m.Serve.Metrics.cache_misses <> n_entries then
    problem "cold phase: %d cache misses, expected %d" m.Serve.Metrics.cache_misses n_entries;
  if m.Serve.Metrics.store_writes <> n_entries then
    problem "cold phase: %d store writes, expected %d" m.Serve.Metrics.store_writes n_entries;
  if m.Serve.Metrics.store_corrupt + after.Serve.Metrics.store_corrupt <> 0 then
    problem "store reported corrupt entries";
  if after.Serve.Metrics.cache_misses <> 0 then
    problem "after restart: %d cache misses, expected 0" after.Serve.Metrics.cache_misses;
  (* The simulated statistics, read back from the store the server wrote. *)
  let cas = Store.Cas.open_dir ~dir:store in
  Store.Cas.fold cas ~init:() ~f:(fun () ~key ~payload ->
      match (Store.Codec.parse_key ~jobs:1 key, Store.Codec.decode_entry payload) with
      | Some (cfg, name), Ok (run, curve) ->
          Layers.record_fingerprint ~context:"serve_cold store" ~seed:cfg.Fuzzy.Analysis.seed name
            (Layers.fingerprint (Fuzzy.Analysis.of_parts cfg ~name ~run ~curve))
      | _ -> problem "unreadable store entry");
  let good = Rpc.good_latencies r in
  {
    cold_s = Array.fold_left Float.max 0.0 good;
    cold_lat = good;
    restart = Child.ready_s s;
    rss;
    before;
    after;
    sent = t1.Rpc.sent + t2.Rpc.sent;
    bad = failures t1 + failures t2;
  }

let serve_cold ~seed ~seconds =
  (* Set-up: a fresh store and a server on it, up to its first health OK. *)
  let setup () =
    snd
      (time (fun () ->
           rm_rf "store";
           let s = Child.spawn ~seed ~store:"store" "cold.sock" in
           Child.shutdown s))
  in
  let setups = Array.init setup_repeats (fun _ -> setup ()) in
  print_setups setups;
  Printf.printf "serve_cold: 2 connections, each entry sent on both at once, then a restart\n";
  let cycles = ref [] in
  let t0 = now () in
  (* Whole cycles, each at a fresh seed, until the time is up and at
     least [min_rounds] cycles are done. *)
  while List.length !cycles < min_rounds || now () -. t0 < seconds do
    let seed = Layers.pass_seed seed (List.length !cycles) in
    cycles := cold_cycle ~seed ~reg:(Rpc.registry ()) ~store:"store" :: !cycles
  done;
  let cs = Array.of_list (List.rev !cycles) in
  let cold_total = Array.fold_left (fun a c -> a +. c.cold_s) 0.0 cs in
  let lat = Array.concat (Array.to_list (Array.map (fun c -> c.cold_lat) cs)) in
  Printf.printf "  %d cycles, %d cold analyses in %.3f s\n" (Array.length cs)
    (n_entries * Array.length cs) cold_total;
  Printf.printf "  cold phase per cycle: %s s\n"
    (String.concat ", " (Array.to_list (Array.map (fun c -> Printf.sprintf "%.3f" c.cold_s) cs)));
  if Array.exists (fun c -> c.cold_lat = [||]) cs then problem "a cold cycle answered nothing";
  (* Medians over the cycles: cold analyses per second of the median
     cycle's cold phase, and the median of the cycles' p50 latencies. *)
  let throughput = float_of_int n_entries /. median (Array.map (fun c -> c.cold_s) cs) in
  let p50 =
    median
      (Array.mapi
         (fun i c ->
           if c.cold_lat = [||] then Float.nan
           else pct (Printf.sprintf "cycle %d cold analyze latency" (i + 1)) 50.0 c.cold_lat)
         cs)
  in
  Printf.printf "  cold analyze latency p50: median %.3f ms over %d cycles\n" p50 (Array.length cs);
  ignore (pct "cold analyze latency, all cycles" 99.0 lat : float);
  Printf.printf "  restart on the populated store: median %.3f s over %d restarts\n"
    (median (Array.map (fun c -> c.restart) cs)) (Array.length cs);
  {
    metrics =
      [
        ("setup_s", median setups, "s");
        ("throughput_per_s", throughput, "1/s");
        ("peak_rss_mb", Array.fold_left (fun a c -> Float.max a c.rss) 0.0 cs, "MB");
      ];
    attempted = Array.fold_left (fun a c -> a + c.sent) 0 cs;
    failed = Array.fold_left (fun a c -> a + c.bad) 0 cs;
  }

(* ---- traced run -------------------------------------------------------- *)

let traced ~seed ~seconds ~spans_file =
  let r = Benchlib.recorder now in
  let cfg = Layers.config seed in
  let metrics = ref [] in
  let add name v unit = metrics := (name, v, unit) :: !metrics in
  let attempted = ref 0 in
  (* Analysis layers: each entry through the library's entry point, then
     decomposed with and without spans (alternating which goes first),
     then its quantum stream captured and replayed. *)
  let untraced = ref 0.0 and traced_total = ref 0.0 in
  let refs = ref 0 and quanta = ref 0 and instrs = ref 0 in
  let replays = ref [] and analyses = ref [] in
  Array.iteri
    (fun i e ->
      attempted := !attempted + 3;
      let a, dt = time (fun () -> Fuzzy.Analysis.analyze cfg e) in
      Layers.record_fingerprint ~context:"library" ~seed e (Layers.fingerprint a);
      add ("core.analyze_s." ^ e) dt "s";
      let decomposed spans () = time (fun () -> Layers.traced_analysis spans cfg e) in
      let traced = decomposed (Layers.recorded r) and bare = decomposed Layers.bare in
      let (t, dt), (b, u) =
        if i mod 2 = 0 then
          let t = traced () in
          (t, bare ())
        else
          let b = bare () in
          (traced (), b)
      in
      traced_total := !traced_total +. dt;
      untraced := !untraced +. u;
      Layers.record_fingerprint ~context:"traced" ~seed e (Layers.fingerprint t.Layers.analysis);
      Layers.record_fingerprint ~context:"decomposed" ~seed e (Layers.fingerprint b.Layers.analysis);
      refs := !refs + t.Layers.refs;
      quanta := !quanta + t.Layers.quanta;
      instrs := !instrs + a.Fuzzy.Analysis.run.Sampling.Driver.total_instrs;
      let events = Layers.capture cfg e in
      let rp = Layers.replay r cfg events in
      if rp.Layers.cycles <> a.Fuzzy.Analysis.run.Sampling.Driver.total_cycles then
        problem "%s: replayed cycles %h differ from the run's %h" e rp.Layers.cycles
          a.Fuzzy.Analysis.run.Sampling.Driver.total_cycles;
      replays := rp :: !replays;
      analyses := a :: !analyses)
    entries;
  let spans = Benchlib.spans r in
  let sum f = List.fold_left (fun a x -> a +. f x) 0.0 !replays in
  let isum f = List.fold_left (fun a x -> a + f x) 0 !replays in
  let per n s = s /. float_of_int (max 1 n) in
  let refs_replayed = isum (fun x -> x.Layers.refs) in
  let driver_s = Benchlib.sum_duration spans "sampling.driver" in
  add "workload.build_ms" (ms (Benchlib.sum_duration spans "workload.build")) "ms";
  add "workload.fill_s" (Benchlib.sum_self spans "workload.fill") "s";
  add "workload.refs_per_quantum" (per !quanta (float_of_int !refs)) "refs";
  add "sampling.driver_self_s" (Benchlib.sum_self spans "sampling.driver") "s";
  add "sampling.minstr_per_s" (float_of_int !instrs /. 1e6 /. driver_s) "Minstr/s";
  add "march.cpu_ns_per_ref" (1e9 *. per refs_replayed (sum (fun x -> x.Layers.cpu_s))) "ns";
  add "march.tlb_ns_per_ref" (1e9 *. per refs_replayed (sum (fun x -> x.Layers.tlb_s))) "ns";
  add "march.dhier_ns_per_ref" (1e9 *. per refs_replayed (sum (fun x -> x.Layers.dhier_s))) "ns";
  add "march.ihier_ns_per_line"
    (1e9 *. per (isum (fun x -> x.Layers.lines)) (sum (fun x -> x.Layers.ihier_s)))
    "ns";
  add "march.branch_ns_per_branch"
    (1e9 *. per (isum (fun x -> x.Layers.branches)) (sum (fun x -> x.Layers.branch_s)))
    "ns";
  let wrefs = sum (fun x -> x.Layers.weighted_refs) in
  add "march.tlb_miss_ratio" (sum (fun x -> x.Layers.weighted_tlb_misses) /. wrefs) "ratio";
  add "march.l1d_miss_ratio" (sum (fun x -> x.Layers.weighted_l1d_misses) /. wrefs) "ratio";
  add "sampling.eipv_ms" (ms (Benchlib.sum_duration spans "sampling.eipv")) "ms";
  add "rtree.cv_ms" (ms (Benchlib.sum_duration spans "rtree.cv")) "ms";
  add "trace.overhead_pct" (100.0 *. (!traced_total -. !untraced) /. !untraced) "%";
  (* Codec, cache and store calls on the analyses just made. *)
  let analyses = List.rev !analyses in
  let codecs = List.map (Layers.codec r cfg) analyses in
  let mean f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs /. float_of_int (List.length xs) in
  add "core.report_render_us" (1e6 *. mean (fun c -> c.Layers.render_s) codecs) "us";
  add "serve.encode_us" (1e6 *. mean (fun c -> c.Layers.encode_s) codecs) "us";
  add "serve.decode_us" (1e6 *. mean (fun c -> c.Layers.decode_s) codecs) "us";
  add "core.cache_hit_us" (1e6 *. mean (fun c -> c.Layers.cache_hit_s) codecs) "us";
  rm_rf "probe-store";
  let cas = Store.Cas.open_dir ~dir:"probe-store" in
  let trips = List.map (Layers.store_trip r cas cfg) analyses in
  add "store.encode_ms" (ms (mean (fun t -> t.Layers.store_encode_s) trips)) "ms";
  add "store.put_ms" (ms (mean (fun t -> t.Layers.put_s) trips)) "ms";
  add "store.find_ms" (ms (mean (fun t -> t.Layers.find_s) trips)) "ms";
  add "store.decode_ms" (ms (mean (fun t -> t.Layers.store_decode_s) trips)) "ms";
  add "core.of_parts_ms" (ms (mean (fun t -> t.Layers.of_parts_s) trips)) "ms";
  add "store.entry_kb" (mean (fun t -> float_of_int t.Layers.entry_bytes /. 1024.0) trips) "KB";
  Fuzzy.Experiments.clear_cache ();
  Store.Result_cache.attach ~dir:"probe-store";
  let loaded, warm_s =
    time (fun () -> Benchlib.with_span r "store.warm" (fun () -> Store.Result_cache.warm ~jobs:1 ()))
  in
  Store.Result_cache.detach ();
  Fuzzy.Experiments.clear_cache ();
  if loaded <> n_entries then problem "store warm loaded %d of %d entries" loaded n_entries;
  add "store.warm_s" warm_s "s";
  (* Warm serving, measured by the server: per-verb p50 from /metrics
     histogram deltas, queue and in-flight high water from stats. *)
  let reg = Rpc.registry () in
  let s, _ = warm_server ~reg ~metrics:true "warm.sock" in
  let port = Child.metrics_port s in
  let conns = connect_all "warm.sock" (max_conns ()) in
  Printf.printf "traced serve_warm phase: %d connections at %.0f/s\n" (Array.length conns) nominal_rate;
  let w = warm_up ~conns ~reg ~seed in
  let before = Child.latency_buckets (Child.http_get port "/metrics") in
  let st0 = Child.stats s in
  let lr = probe ~conns ~reg ~seed ~rate:nominal_rate ~seconds:(Float.max 1.0 (seconds /. 3.0)) () in
  let t, p50, p99 = report_phase "nominal" lr in
  attempted := !attempted + w.Rpc.sent + t.Rpc.sent;
  let failed_warm = failures w + failures t in
  let after = Child.latency_buckets (Child.http_get port "/metrics") in
  let st1 = Child.stats s in
  (* Then the sustained-rate ladder, on the same server. *)
  let sustained = sustained ~conns ~reg ~seed in
  Array.iter Rpc.close conns;
  Child.shutdown s;
  List.iter
    (fun verb ->
      let bounds =
        List.filter_map (fun ((k, b), _) -> if k = verb then Some b else None) after
        |> List.sort_uniq Float.compare
      in
      let delta b =
        let get l = Option.value (List.assoc_opt (verb, b) l) ~default:0 in
        (b, get after - get before)
      in
      let v = Benchlib.hist_quantile 0.5 (List.map delta bounds) in
      add ("serve.server_p50_ms." ^ verb) (ms (Option.value v ~default:0.0)) "ms")
    [ "analyze"; "quadrant"; "re_curve"; "health"; "stats" ];
  add "parallel.queue_high_water" (float_of_int st1.Serve.Metrics.queue_high_water) "count";
  add "parallel.inflight_high_water" (float_of_int st1.Serve.Metrics.inflight_high_water) "count";
  let dh = st1.Serve.Metrics.cache_hits - st0.Serve.Metrics.cache_hits
  and dm = st1.Serve.Metrics.cache_misses - st0.Serve.Metrics.cache_misses in
  add "serve.cache_hit_ratio" (float_of_int dh /. float_of_int (max 1 (dh + dm))) "ratio";
  let late = Rpc.lateness lr in
  add "loadgen.lateness_p99_ms" (ms (Benchlib.percentile 99.0 late)) "ms";
  add "serve.latency_p50_ms" p50 "ms";
  add "serve.latency_p99_ms" p99 "ms";
  add "serve.sustained_rate_per_s" sustained "1/s";
  (* Cold serving with a store: one cycle. *)
  let c = cold_cycle ~seed ~reg:(Rpc.registry ()) ~store:"store" in
  attempted := !attempted + c.sent;
  add "serve.restart_s" c.restart "s";
  add "serve.dedupe_ratio"
    (float_of_int c.before.Serve.Metrics.batch_joined /. float_of_int n_entries)
    "ratio";
  add "serve.cache_misses" (float_of_int c.before.Serve.Metrics.cache_misses) "count";
  add "store.writes" (float_of_int c.before.Serve.Metrics.store_writes) "count";
  add "store.hits" (float_of_int c.after.Serve.Metrics.store_hits) "count";
  add "store.corrupt"
    (float_of_int (c.before.Serve.Metrics.store_corrupt + c.after.Serve.Metrics.store_corrupt))
    "count";
  (* Spans stay in memory until the run ends. *)
  Out_channel.with_open_bin spans_file (fun oc ->
      List.iter
        (fun (sp, self) ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": %s, \"start\": %.6f, \"end\": %.6f, \"self\": %.6f}\n"
            sp.Benchlib.id sp.Benchlib.parent (Benchlib.json_string sp.Benchlib.name)
            sp.Benchlib.start sp.Benchlib.stop self)
        (Benchlib.self_times (Benchlib.spans r)));
  { metrics = List.rev !metrics; attempted = !attempted; failed = failed_warm + c.bad }
