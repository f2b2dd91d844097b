(* The in-process half of the traced run: each layer's public entry
   points called from here, inside spans, on the benchmark's six catalog
   entries.  Nothing in the program is instrumented; the spans wrap the
   calls (and, for [workload.fill], the model's fill closures). *)

let now = Unix.gettimeofday

(* gzip is cache-resident; mcf and sjas are TLB- and pointer-heavy;
   odb_c and odb_h_q18 spend ~40% of a cold analysis in the dbengine
   fill; odb_h_q13 is a reference-heavy scan. *)
let entries = [| "gzip"; "mcf"; "sjas"; "odb_c"; "odb_h_q13"; "odb_h_q18" |]

(* The `--quick` configuration, serial: what `repro analyze --quick
   --jobs 1 --seed SEED` runs. *)
let config seed = { Fuzzy.Analysis.quick with Fuzzy.Analysis.seed; jobs = 1 }

(* ---- correctness bookkeeping ----------------------------------------- *)

let problems : string list ref = ref []

let problem fmt =
  Printf.ksprintf
    (fun m ->
      problems := m :: !problems;
      Printf.printf "CHECK FAILED: %s\n%!" m)
    fmt

(* The simulated statistics a simulator-only change must leave alone,
   printed exactly (floats as hex). *)
let fingerprint (a : Fuzzy.Analysis.t) =
  let r = a.Fuzzy.Analysis.run in
  Printf.sprintf "cycles=%h instrs=%d context_switches=%d k_opt=%d re_kopt=%h"
    r.Sampling.Driver.total_cycles r.Sampling.Driver.total_instrs
    r.Sampling.Driver.context_switches a.Fuzzy.Analysis.kopt a.Fuzzy.Analysis.re_kopt

(* First fingerprint seen per (entry, seed); every later one — another
   pass, the traced pipeline, a store round trip, a server — must match. *)
let fingerprints : (string * int, string) Hashtbl.t = Hashtbl.create 16

let record_fingerprint ~context ~seed name fp =
  match Hashtbl.find_opt fingerprints (name, seed) with
  | None ->
      Hashtbl.replace fingerprints (name, seed) fp;
      Printf.printf "fingerprint %-10s seed=%d %s\n" name seed fp
  | Some first when first = fp -> ()
  | Some first -> problem "%s: %s at seed %d: fingerprint %s differs from %s" context name seed fp first

(* Pass [k] of a cold workload analyzes at seed [seed + 1000 k]: each
   pass draws fresh inputs, so one seed's unusually cheap or costly
   analyses (odb_c's cold analysis takes 1.4-2.4 s depending on the seed)
   do not decide a run. *)
let pass_seed seed k = seed + (1000 * k)

let golden_path = ref "test/golden/analyze-gzip-quick.out"

(* At seed 42 gzip's report is the committed golden, byte for byte. *)
let check_golden report =
  let golden = In_channel.with_open_bin !golden_path In_channel.input_all in
  if report <> golden then problem "gzip report at seed 42 differs from %s" !golden_path

(* ---- traced analysis --------------------------------------------------- *)

type traced = {
  analysis : Fuzzy.Analysis.t;
  refs : int;  (** data references emitted by the fills *)
  quanta : int;  (** fill calls *)
}

(* [Fuzzy.Analysis.analyze] taken apart at its layer boundaries, through
   the same public calls and in the same order, so the result must equal
   the library's (checked through the fingerprint).  [spans.run name f]
   runs [f]: inside a recorder's span for the traced run, or bare, so the
   tracing overhead is measured against the same decomposed work (which
   builds the EIPV twice, once more inside [of_parts]). *)
type spans = { run : 'a. string -> (unit -> 'a) -> 'a }

let recorded r = { run = (fun name f -> Benchlib.with_span r name f) }
let bare = { run = (fun _ f -> f ()) }

let traced_analysis spans cfg name =
  let span name f = spans.run name f in
  span "core.analyze" (fun () ->
      let model =
        span "workload.build" (fun () ->
            (Workload.Catalog.find name).Workload.Catalog.build ~seed:cfg.Fuzzy.Analysis.seed
              ~scale:cfg.Fuzzy.Analysis.scale)
      in
      let refs = ref 0 and quanta = ref 0 in
      let wrap (th : Workload.Model.thread) =
        {
          th with
          Workload.Model.fill =
            (fun sink ~budget ->
              span "workload.fill" (fun () ->
                  let res = th.Workload.Model.fill sink ~budget in
                  refs := !refs + Dbengine.Sink.n_refs sink;
                  incr quanta;
                  res));
        }
      in
      let model = { model with Workload.Model.threads = Array.map wrap model.Workload.Model.threads } in
      let cpu = March.Cpu.create cfg.Fuzzy.Analysis.machine in
      let rng = Stats.Rng.split_label cfg.Fuzzy.Analysis.seed model.Workload.Model.name in
      let samples = cfg.Fuzzy.Analysis.intervals * cfg.Fuzzy.Analysis.samples_per_interval in
      let run =
        span "sampling.driver" (fun () ->
            Sampling.Driver.run ~period:cfg.Fuzzy.Analysis.period model ~cpu ~rng ~samples)
      in
      let eipv =
        span "sampling.eipv" (fun () ->
            Sampling.Eipv.build run ~samples_per_interval:cfg.Fuzzy.Analysis.samples_per_interval)
      in
      let curve =
        span "rtree.cv" (fun () ->
            Rtree.Cv.relative_error_curve ~pool:(Fuzzy.Analysis.pool cfg)
              ~folds:cfg.Fuzzy.Analysis.folds ~kmax:cfg.Fuzzy.Analysis.kmax
              (Stats.Rng.create (cfg.Fuzzy.Analysis.seed + 1))
              (Sampling.Eipv.dataset eipv))
      in
      let analysis =
        span "core.assemble" (fun () -> Fuzzy.Analysis.of_parts cfg ~name ~run ~curve)
      in
      { analysis; refs = !refs; quanta = !quanta })

(* ---- quantum stream capture and replay -------------------------------- *)

type event = Quantum of March.Quantum.t | Pollute of float

(* The driver's loop (Sampling.Driver.stream) with the CPU model taken
   out: fill -> Sink.drain -> Code_map.code_lines -> Quantum.make, the
   context-switch pollution recorded in place, and the sampler's EIP draw
   kept so the RNG advances exactly as in the real run.  Replaying the
   events through one Cpu.t therefore reproduces the run's cycles. *)
let capture cfg name =
  let w =
    (Workload.Catalog.find name).Workload.Catalog.build ~seed:cfg.Fuzzy.Analysis.seed
      ~scale:cfg.Fuzzy.Analysis.scale
  in
  let module M = Workload.Model in
  let module S = Dbengine.Sink in
  let rng = Stats.Rng.split_label cfg.Fuzzy.Analysis.seed w.M.name in
  let period = cfg.Fuzzy.Analysis.period in
  let sink = S.create () in
  let n_threads = Array.length w.M.threads in
  let cur = ref 0 and since_switch = ref 0 and events = ref [] in
  let switch_thread () =
    S.instrs sink ~region:w.M.os_region w.M.os_per_switch;
    events := Pollute w.M.pollute_on_switch :: !events;
    cur := (!cur + 1) mod n_threads;
    since_switch := 0
  in
  for _ = 1 to cfg.Fuzzy.Analysis.intervals * cfg.Fuzzy.Analysis.samples_per_interval do
    (match w.M.threads.(!cur).M.fill sink ~budget:period with
    | `Blocked ->
        S.instrs sink ~region:w.M.os_region w.M.os_per_io;
        switch_thread ()
    | `Ok ->
        since_switch := !since_switch + period;
        if !since_switch >= w.M.switch_period then switch_thread ());
    let d = S.drain sink in
    let inst_lines, inst_weight =
      Workload.Code_map.code_lines w.M.code rng ~region_instrs:d.S.region_instrs ~max_lines:48
    in
    let weight_of emitted extra =
      if emitted = 0 then 1.0 else float_of_int (emitted + extra) /. float_of_int emitted
    in
    events :=
      Quantum
        (March.Quantum.make ~instrs:(max 1 d.S.instrs) ~inst_lines ~inst_weight
           ~ref_addrs:d.S.addrs ~ref_writes:d.S.writes
           ~ref_weight:(weight_of (Array.length d.S.addrs) d.S.extra_refs)
           ~branch_pcs:d.S.branch_pcs ~branch_taken:d.S.branch_taken
           ~branch_weight:(weight_of (Array.length d.S.branch_pcs) d.S.extra_branches)
           (* Sampling.Driver's 400 stall cycles per blocking I/O *)
           ~extra_other_cycles:(float_of_int d.S.io_waits *. 400.0)
           ())
      :: !events;
    if Array.length d.S.region_instrs > 0 then begin
      let total = Array.fold_left (fun a (_, n) -> a + n) 0 d.S.region_instrs in
      let target = Stats.Rng.int rng (max 1 total) in
      let acc = ref 0 and chosen = ref None in
      Array.iter
        (fun (region, n) ->
          acc := !acc + n;
          if !chosen = None && !acc > target then chosen := Some region)
        d.S.region_instrs;
      let region = Option.value !chosen ~default:(fst d.S.region_instrs.(0)) in
      ignore (Workload.Code_map.draw_eip w.M.code rng ~region : int)
    end
  done;
  Array.of_list (List.rev !events)

type replay = {
  cycles : float;  (** summed Cpu.run cycles: must equal the run's *)
  refs : int;
  lines : int;
  branches : int;
  cpu_s : float;
  tlb_s : float;
  dhier_s : float;
  ihier_s : float;
  branch_s : float;
  weighted_refs : float;
  weighted_tlb_misses : float;
  weighted_l1d_misses : float;
}

let quanta events = Array.to_list events |> List.filter_map (function Quantum q -> Some q | Pollute _ -> None)

let replay r cfg events =
  let span name f = Benchlib.with_span r name f in
  let machine = cfg.Fuzzy.Analysis.machine in
  let qs = quanta events in
  let sum f = List.fold_left (fun a q -> a + f q) 0 qs in
  let refs = sum (fun q -> Array.length q.March.Quantum.ref_addrs) in
  let lines = sum (fun q -> Array.length q.March.Quantum.inst_lines) in
  let branches = sum (fun q -> Array.length q.March.Quantum.branch_pcs) in
  (* The whole CPU model, pollution included. *)
  let cpu = March.Cpu.create machine in
  let cycles = ref 0.0 and wrefs = ref 0.0 and wl1d = ref 0.0 in
  let t0 = now () in
  span "march.cpu_run" (fun () ->
      Array.iter
        (function
          | Pollute fraction -> March.Cpu.pollute cpu ~fraction
          | Quantum q ->
              let res = March.Cpu.run cpu q in
              cycles := !cycles +. res.March.Cpu.cycles;
              wl1d := !wl1d +. res.March.Cpu.dcache_misses;
              wrefs :=
                !wrefs +. (float_of_int (Array.length q.March.Quantum.ref_addrs) *. q.March.Quantum.ref_weight))
        events);
  let cpu_s = now () -. t0 in
  (* Each component alone over the same stream.  The TLB sees exactly the
     CPU's data references, so its miss count is the simulation's. *)
  let tlb = March.Tlb.create ~entries:machine.March.Config.tlb_entries ~page_bytes:machine.March.Config.page_bytes in
  let wtlb = ref 0.0 in
  let t0 = now () in
  span "march.tlb" (fun () ->
      List.iter
        (fun q ->
          let misses = ref 0 in
          Array.iter (fun a -> if not (March.Tlb.access tlb a) then incr misses) q.March.Quantum.ref_addrs;
          wtlb := !wtlb +. (float_of_int !misses *. q.March.Quantum.ref_weight))
        qs);
  let tlb_s = now () -. t0 in
  (* One hierarchy, instruction then data accesses per quantum as in
     Cpu.run, timed apart (pollution is left out of this pass). *)
  let hier = March.Hierarchy.create machine in
  let dhier = ref 0.0 and ihier = ref 0.0 in
  span "march.hierarchy" (fun () ->
      List.iter
        (fun q ->
          let t0 = now () in
          Array.iter (fun l -> ignore (March.Hierarchy.access_inst hier l : March.Hierarchy.level)) q.March.Quantum.inst_lines;
          let t1 = now () in
          Array.iter (fun a -> ignore (March.Hierarchy.access_data hier a : March.Hierarchy.level)) q.March.Quantum.ref_addrs;
          let t2 = now () in
          ihier := !ihier +. (t1 -. t0);
          dhier := !dhier +. (t2 -. t1))
        qs);
  let bp = March.Branch.create ~table_bits:14 () in
  let t0 = now () in
  span "march.branch" (fun () ->
      List.iter
        (fun q ->
          Array.iteri
            (fun i pc -> ignore (March.Branch.update bp ~pc ~taken:q.March.Quantum.branch_taken.(i) : bool))
            q.March.Quantum.branch_pcs)
        qs);
  let branch_s = now () -. t0 in
  {
    cycles = !cycles;
    refs;
    lines;
    branches;
    cpu_s;
    tlb_s;
    dhier_s = !dhier;
    ihier_s = !ihier;
    branch_s;
    weighted_refs = !wrefs;
    weighted_tlb_misses = !wtlb;
    weighted_l1d_misses = !wl1d;
  }

(* ---- codec, cache and store calls ------------------------------------- *)

(* Mean seconds per call of [f] over [reps] calls, in one span. *)
let per_call r name reps f =
  let t0 = now () in
  Benchlib.with_span r name (fun () ->
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (f ()))
      done);
  (now () -. t0) /. float_of_int reps

type codec = {
  render_s : float;
  encode_s : float;
  decode_s : float;
  cache_hit_s : float;
}

(* The warm serving path's in-process steps for one analysis: render the
   report, encode the response frame, decode a request frame, and an
   in-memory cache hit. *)
let codec r cfg (a : Fuzzy.Analysis.t) =
  let name = a.Fuzzy.Analysis.name in
  let render_s = per_call r "core.report_render" 20 (fun () -> Fuzzy.Report.analyze_report a) in
  let report = Fuzzy.Report.analyze_report a in
  let encode_s =
    per_call r "serve.encode" 200 (fun () ->
        Serve.Wire.encode (Serve.Protocol.encode_response (Serve.Protocol.Report report)))
  in
  let frame = Serve.Wire.encode (Serve.Protocol.encode_request (Serve.Protocol.Analyze name)) in
  let decode_s =
    per_call r "serve.decode" 2000 (fun () ->
        match Serve.Wire.decode frame with
        | Ok payload -> Serve.Protocol.decode_request payload
        | Error e -> Error (Serve.Wire.error_to_string e))
  in
  Fuzzy.Experiments.preload a;
  let cache_hit_s = per_call r "core.cache_hit" 2000 (fun () -> Fuzzy.Experiments.analyze_cached cfg name) in
  Fuzzy.Experiments.clear_cache ();
  { render_s; encode_s; decode_s; cache_hit_s }

type store = {
  store_encode_s : float;
  put_s : float;
  find_s : float;
  store_decode_s : float;
  of_parts_s : float;
  entry_bytes : int;
}

(* One entry's trip through the store: encode, put, find, decode and
   reassemble, the reassembled analysis checked against the original. *)
let store_trip r cas cfg (a : Fuzzy.Analysis.t) =
  let name = a.Fuzzy.Analysis.name in
  let key = Store.Codec.canonical_key cfg name in
  let once span f =
    let t0 = now () in
    let v = Benchlib.with_span r span f in
    (v, now () -. t0)
  in
  let payload, store_encode_s = once "store.encode" (fun () -> Store.Codec.encode_entry a) in
  let (), put_s = once "store.put" (fun () -> Store.Cas.put cas ~key payload) in
  let found, find_s = once "store.find" (fun () -> Store.Cas.find cas ~key) in
  let decoded, store_decode_s =
    once "store.decode" (fun () ->
        match found with
        | Some p -> Store.Codec.decode_entry p
        | None -> Error "entry not found after put")
  in
  let of_parts_s =
    match decoded with
    | Error m ->
        problem "store round trip of %s: %s" name m;
        0.0
    | Ok (run, curve) ->
        let b, s = once "core.of_parts" (fun () -> Fuzzy.Analysis.of_parts cfg ~name ~run ~curve) in
        if fingerprint b <> fingerprint a then problem "store round trip changed %s" name;
        s
  in
  { store_encode_s; put_s; find_s; store_decode_s; of_parts_s; entry_bytes = String.length payload }
