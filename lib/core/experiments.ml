type t = {
  id : string;
  title : string;
  paper_claim : string;
  run : Analysis.config -> string;
}

(* The memory tier, keyed by {!Analysis.key} — the same key the store
   uses, so one configuration can never be answered with another's
   analysis. *)
let cache : (string, Analysis.t) Hashtbl.t = Hashtbl.create 32
let cache_mutex = Mutex.create ()

(* ------------------------------------------------------------------ *)
(* Second cache tier: the persistent content-addressed store.  The store
   lives in lib/store (which depends on this library), so it plugs in
   through this hook rather than being called directly. *)

type disk_tier = {
  probe : Analysis.config -> string -> Analysis.t option;
  persist : Analysis.config -> string -> Analysis.t -> unit;
}

let disk_tier : disk_tier option ref = ref None
let set_disk_tier t = disk_tier := t

(* Keys being computed right now, with the domain computing each one.  A
   concurrent miss on the same key waits on the owner's condition instead
   of computing (or re-reading the disk) a second time: single-flight.
   Waiters may be pool workers, which is safe because the owner never
   waits on a condition it could be asked to signal — with one exception:
   pool threads self-help, so while the owner's own nested CV fan-out
   waits inside Parallel.Pool.map it can steal a queued task for the very
   key it is computing.  Blocking there would wait on its own broadcast,
   hence the owner id — a re-entrant miss computes inline instead. *)
let inflight : (string, Condition.t * int) Hashtbl.t = Hashtbl.create 8

let compute_tiers config name =
  match !disk_tier with
  | None -> Analysis.analyze config name
  | Some tier -> (
      match tier.probe config name with
      | Some a -> a
      | None ->
          let a = Analysis.analyze config name in
          tier.persist config name a;
          a)

let rec analyze_cached config name =
  let key = Analysis.key config name in
  let self = (Domain.self () :> int) in
  Mutex.lock cache_mutex;
  match Hashtbl.find_opt cache key with
  | Some a ->
      Mutex.unlock cache_mutex;
      a
  | None -> (
      match Hashtbl.find_opt inflight key with
      | Some (_, owner) when owner = self ->
          (* Re-entrant: this domain owns the in-flight computation and
             stole a duplicate task while self-helping in the pool.
             Recompute inline — identical by determinism, and the store
             put is idempotent. *)
          Mutex.unlock cache_mutex;
          compute_tiers config name
      | Some (cond, _) ->
          (* [wait] releases the mutex; on wake the owner has either
             published the result or failed — re-run the lookup. *)
          Condition.wait cond cache_mutex;
          Mutex.unlock cache_mutex;
          analyze_cached config name
      | None ->
          let cond = Condition.create () in
          Hashtbl.replace inflight key (cond, self);
          Mutex.unlock cache_mutex;
          let release () =
            Hashtbl.remove inflight key;
            Condition.broadcast cond
          in
          (match compute_tiers config name with
          | a ->
              Mutex.lock cache_mutex;
              if not (Hashtbl.mem cache key) then Hashtbl.add cache key a;
              release ();
              Mutex.unlock cache_mutex;
              a
          | exception e ->
              Mutex.lock cache_mutex;
              release ();
              Mutex.unlock cache_mutex;
              raise e))

let preload (a : Analysis.t) =
  let key = Analysis.key a.Analysis.config a.Analysis.name in
  Mutex.lock cache_mutex;
  if not (Hashtbl.mem cache key) then Hashtbl.add cache key a;
  Mutex.unlock cache_mutex

let cached config name =
  let key = Analysis.key config name in
  Mutex.lock cache_mutex;
  let hit = Hashtbl.mem cache key in
  Mutex.unlock cache_mutex;
  hit

let clear_cache () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache;
  Mutex.unlock cache_mutex

let analyze_many config names =
  let pool = Analysis.pool config in
  (* Fan out over *distinct* names only.  Duplicates would queue several
     tasks for one key; every loser of the single-flight race then parks
     a pool worker in Condition.wait, starving the owner's own nested CV
     fan-out.  The shared result is fanned back out to each occurrence,
     so the output list is unchanged. *)
  let seen = Hashtbl.create 16 in
  let unique =
    List.filter
      (fun n ->
        if Hashtbl.mem seen n then false
        else begin
          Hashtbl.add seen n ();
          true
        end)
      names
  in
  let results = Parallel.Pool.map pool (analyze_cached config) (Array.of_list unique) in
  let by_name = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace by_name n results.(i)) unique;
  List.map (fun n -> Hashtbl.find by_name n) names

let buf_printf = Printf.bprintf

(* ------------------------------------------------------------------ *)
(* Table 1 / Figure 1: the worked example.                             *)

let table1 _config =
  let b = Buffer.create 512 in
  buf_printf b "Table 1: example EIPV table (counts in millions)\n\n%s\n" (Example.render_table ());
  buf_printf b "Figure 1: regression tree with 4 chambers\n\n%s\n" (Example.render_tree ());
  buf_printf b "Chambers (members, mean CPI):\n";
  List.iter
    (fun (members, mean) ->
      buf_printf b "  {%s} mean CPI %.2f\n"
        (String.concat ", " (List.map (fun j -> Printf.sprintf "EIPV%d" j) members))
        mean)
    (Example.chambers ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Figures 2-5: ODB-C and SjAS.                                        *)

let fig2 config =
  let odbc, sjas =
    match analyze_many config [ "odb_c"; "sjas" ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let b = Buffer.create 512 in
  buf_printf b "Figure 2: relative error vs number of chambers (k)\n\n%s\n"
    (Report.re_curves [ ("ODB-C", odbc.Analysis.curve); ("SjAS", sjas.Analysis.curve) ]);
  buf_printf b "ODB-C: CPI var %.5f, RE stays at/above 1 -- EIPVs explain nothing.\n"
    odbc.Analysis.cpi_variance;
  buf_printf b "SjAS:  CPI var %.5f, min RE %.3f at k=%d -- ~%.0f%% of variance explained at best.\n"
    sjas.Analysis.cpi_variance
    (Rtree.Cv.re_min sjas.Analysis.curve)
    (Rtree.Cv.k_at_min sjas.Analysis.curve)
    (100.0 *. (1.0 -. Rtree.Cv.re_min sjas.Analysis.curve));
  Buffer.contents b

let fig3 config =
  let odbc = analyze_cached config "odb_c" and sjas = analyze_cached config "sjas" in
  let b = Buffer.create 512 in
  buf_printf b "Figure 3(a): ODB-C EIP and CPI spread\n%s\n" (Report.spread odbc.Analysis.run ~points:60);
  buf_printf b "Figure 3(b): SjAS EIP and CPI spread\n%s\n" (Report.spread sjas.Analysis.run ~points:60);
  Buffer.contents b

let breakdown_fig ~figure name config =
  let a = analyze_cached config name in
  let exe = March.Breakdown.exe_fraction a.Analysis.breakdown in
  Printf.sprintf "%s: CPI breakdown for %s\n\n%s\nmean CPI %.3f; EXE (data-miss stalls) share %.1f%%\n"
    figure name
    (Report.breakdown_series a.Analysis.eipv ~points:16)
    a.Analysis.cpi (100.0 *. exe)

let fig4 config = breakdown_fig ~figure:"Figure 4" "odb_c" config
let fig5 config = breakdown_fig ~figure:"Figure 5" "sjas" config

(* ------------------------------------------------------------------ *)
(* Figures 6/7: thread separation.                                     *)

let thread_fig ~figure name config =
  let a = analyze_cached config name in
  let merged = a.Analysis.curve in
  let sep_eipv =
    Sampling.Eipv.build_thread_separated a.Analysis.run
      ~samples_per_interval:config.Analysis.samples_per_interval
  in
  let sep =
    Rtree.Cv.relative_error_curve ~pool:(Analysis.pool config) ~folds:config.Analysis.folds
      ~kmax:config.Analysis.kmax
      (Stats.Rng.create (config.Analysis.seed + 2))
      (Sampling.Eipv.dataset sep_eipv)
  in
  Printf.sprintf
    "%s: %s relative error with and without thread separation\n\n%s\nno-thread min RE %.3f; thread-separated min RE %.3f\n"
    figure name
    (Report.re_curves [ ("nothread", merged); ("thread", sep) ])
    (Rtree.Cv.re_min merged) (Rtree.Cv.re_min sep)

let fig6 config = thread_fig ~figure:"Figure 6" "odb_c" config
let fig7 config = thread_fig ~figure:"Figure 7" "sjas" config

(* ------------------------------------------------------------------ *)
(* Figures 8-12: Q13 and Q18.                                          *)

let fig8 config =
  let a = analyze_cached config "odb_h_q13" in
  Printf.sprintf
    "Figure 8: relative error trend for Q13\n\n%sRE_kopt %.3f at k_opt=%d: ~%.0f%% of CPI variance explained by EIPVs\n"
    (Report.re_curve a.Analysis.curve) a.Analysis.re_kopt a.Analysis.kopt
    (100.0 *. (1.0 -. a.Analysis.re_kopt))

let fig9 config =
  let a = analyze_cached config "odb_h_q13" in
  Printf.sprintf "Figure 9: Q13 EIP and CPI spread (loopy, few unique EIPs)\n%s"
    (Report.spread a.Analysis.run ~points:60)

let fig10 config =
  let a = analyze_cached config "odb_h_q18" in
  Printf.sprintf
    "Figure 10: relative error trend for Q18\n\n%sRE stays around/above 1 (measured final %.3f): EIPVs cannot explain Q18's CPI\n"
    (Report.re_curve a.Analysis.curve) a.Analysis.re_final

let fig11 config =
  let a = analyze_cached config "odb_h_q18" in
  Printf.sprintf "Figure 11: Q18 EIP and CPI spread (same EIPs, varying CPI)\n%s"
    (Report.spread a.Analysis.run ~points:60)

let fig12 config = breakdown_fig ~figure:"Figure 12" "odb_h_q18" config

(* ------------------------------------------------------------------ *)
(* Table 2 / Figure 13: quadrant classification of all 50 workloads.   *)

let catalog_names () =
  Array.to_list (Array.map (fun e -> e.Workload.Catalog.name) Workload.Catalog.all)

let table2 config =
  let results = analyze_many config (catalog_names ()) in
  let b = Buffer.create 2048 in
  buf_printf b "Table 2: benchmarks classified into quadrants\n";
  buf_printf b "(thresholds: CPI variance %g, RE %g)\n\n" Quadrant.default_var_threshold
    Quadrant.default_re_threshold;
  Buffer.add_string b (Report.analysis_table results);
  Buffer.add_char b '\n';
  Buffer.add_string b (Report.quadrant_counts results);
  buf_printf b "\nDesigned-quadrant agreement: %d/%d\n"
    (List.length
       (List.filter
          (fun (a : Analysis.t) ->
            let e = Workload.Catalog.find a.Analysis.name in
            Quadrant.to_int a.Analysis.quadrant = e.Workload.Catalog.expected_quadrant)
          results))
    (List.length results);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Section 4.6: regression tree vs k-means.                            *)

let kmeans_workloads =
  [ "odb_c"; "sjas"; "odb_h_q13"; "odb_h_q18"; "odb_h_q5"; "mcf"; "gcc"; "mgrid"; "gzip"; "swim" ]

let sec4_6 config =
  ignore (analyze_many config kmeans_workloads);
  let results =
    List.map
      (fun name ->
        let a = analyze_cached config name in
        Compare.run ~kmax:config.Analysis.kmax
          (Stats.Rng.create (config.Analysis.seed + 3))
          ~name a.Analysis.eipv)
      kmeans_workloads
  in
  Printf.sprintf
    "Section 4.6: regression tree vs k-means CPI predictability\n\n%s\nmean improvement of trees over k-means: %s (paper: ~80%%)\n"
    (Report.comparison_table results)
    (Stats.Table.fmt_pct (Compare.mean_improvement results))

(* ------------------------------------------------------------------ *)
(* Section 5.2: threading statistics.                                  *)

let sec5_2 config =
  ignore (analyze_many config [ "odb_c"; "sjas"; "gzip"; "mcf" ]);
  let rows =
    List.map
      (fun name ->
        let a = analyze_cached config name in
        [|
          name;
          Stats.Table.fmt_pct a.Analysis.os_fraction;
          Stats.Table.fmt_f ~digits:1 a.Analysis.switches_per_minstr;
          string_of_int a.Analysis.unique_eips;
        |])
      [ "odb_c"; "sjas"; "gzip"; "mcf" ]
  in
  "Section 5.2: OS time and context-switch behaviour\n\n"
  ^ Stats.Table.render
      ~header:[| "workload"; "OS time"; "switches per Minstr"; "unique EIPs" |]
      ~rows ()
  ^ "\nShape targets: ODB-C ~15% OS time and ~100x the SPEC switch rate; SPEC <1% OS.\n"

(* ------------------------------------------------------------------ *)
(* Section 7.1: robustness.                                            *)

let machine_workloads = [ "gzip"; "gcc"; "mcf"; "mgrid"; "swim"; "vortex" ]

let sec7_1_machines config =
  let rows =
    Robustness.machines config ~workloads:machine_workloads
      ~machines:[ March.Config.itanium2; March.Config.pentium4; March.Config.xeon ]
  in
  (* Aggregate variance ratios vs itanium2. *)
  let var_of machine name =
    List.find
      (fun (r : Robustness.machine_row) ->
        r.Robustness.workload = name && r.Robustness.machine = machine)
      rows
  in
  let ratios machine =
    let acc = Stats.Describe.Acc.create () in
    List.iter
      (fun name ->
        let base = (var_of "itanium2" name).Robustness.cpi_variance in
        let v = (var_of machine name).Robustness.cpi_variance in
        if base > 0.0 then Stats.Describe.Acc.add acc (v /. base))
      machine_workloads;
    Stats.Describe.Acc.mean acc
  in
  Printf.sprintf
    "Section 7.1: machine sensitivity (SPEC subset)\n\n%s\nmean CPI-variance ratio vs Itanium 2: pentium4 %.2fx, xeon %.2fx\n(paper shape: variance higher on both, most on the L3-less Pentium 4)\n"
    (Report.machine_table rows) (ratios "pentium4") (ratios "xeon")

let interval_workloads = [ "odb_h_q13"; "mcf"; "swim"; "mgrid"; "odb_h_q10" ]

let sec7_1_intervals config =
  let rows = Robustness.interval_sizes config ~workloads:interval_workloads ~divisors:[ 1; 2; 10 ] in
  (* Mean variance/RE inflation vs the full interval. *)
  let find name d =
    List.find
      (fun (r : Robustness.interval_row) -> r.Robustness.name = name && r.Robustness.divisor = d)
      rows
  in
  let mean_ratio f d =
    let acc = Stats.Describe.Acc.create () in
    List.iter
      (fun name ->
        let base = f (find name 1) and v = f (find name d) in
        if base > 0.0 then Stats.Describe.Acc.add acc (v /. base))
      interval_workloads;
    Stats.Describe.Acc.mean acc
  in
  let var r = r.Robustness.cpi_variance and re r = r.Robustness.re_kopt in
  Printf.sprintf
    "Section 7.1: EIPV interval-size sensitivity\n\n%s\nvs full interval: var x%.2f (1/2), x%.2f (1/10); RE x%.2f (1/2), x%.2f (1/10)\n(paper shape: both variance and RE grow as the interval shrinks)\n"
    (Report.interval_table rows) (mean_ratio var 2) (mean_ratio var 10) (mean_ratio re 2)
    (mean_ratio re 10)

(* ------------------------------------------------------------------ *)
(* Section 7: per-quadrant sampling technique selection.               *)

let technique_workloads = [ ("odb_c", 1); ("mgrid", 2); ("odb_h_q18", 3); ("odb_h_q13", 4) ]

let sec7_sampling config =
  let b = Buffer.create 1024 in
  buf_printf b "Section 7: CPI-estimation error of sampling techniques, one workload per quadrant\n\n";
  List.iter
    (fun (name, q) ->
      let a = analyze_cached config name in
      let rng = Stats.Rng.create (config.Analysis.seed + 4) in
      let entries = Techniques.evaluate rng a.Analysis.eipv ~budget:10 in
      buf_printf b "%s (designed %s, measured %s):\n%s  recommended: %s -- %s\n\n" name
        (Quadrant.to_string (Quadrant.of_int q))
        (Quadrant.to_string a.Analysis.quadrant)
        (Report.techniques_table entries)
        (Techniques.to_string (Techniques.recommend a.Analysis.quadrant))
        (Techniques.rationale a.Analysis.quadrant))
    technique_workloads;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Section 7.1: classification robustness to the two thresholds.       *)

let sec7_1_thresholds config =
  let results = analyze_many config (catalog_names ()) in
  let counts ~var_threshold ~re_threshold =
    let c = Array.make 4 0 in
    List.iter
      (fun (a : Analysis.t) ->
        let q =
          Quadrant.classify ~var_threshold ~re_threshold
            ~cpi_variance:a.Analysis.cpi_variance ~re:a.Analysis.re_kopt ()
        in
        c.(Quadrant.to_int q - 1) <- c.(Quadrant.to_int q - 1) + 1)
      results;
    c
  in
  let rows =
    List.map
      (fun (v, r) ->
        let c = counts ~var_threshold:v ~re_threshold:r in
        [|
          Printf.sprintf "%g" v;
          Printf.sprintf "%g" r;
          string_of_int c.(0);
          string_of_int c.(1);
          string_of_int c.(2);
          string_of_int c.(3);
        |])
      [
        (0.005, 0.15); (0.01, 0.10); (0.01, 0.15); (0.01, 0.20); (0.02, 0.15); (0.02, 0.30);
      ]
  in
  Printf.sprintf
    "Section 7.1: quadrant counts under varied thresholds (50 workloads)

%s
As the paper notes, moving either threshold shifts borderline benchmarks
to adjacent quadrants, but the four-way structure (and each exemplar's
placement) is stable -- the boundary is fuzzy, the taxonomy is not.
"
    (Stats.Table.render
       ~header:[| "var thr"; "RE thr"; "Q-I"; "Q-II"; "Q-III"; "Q-IV" |]
       ~rows ())

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's evaluation.                           *)

(* The paper (Section 7, Q-III discussion): "An interesting future
   research topic is to see if a much higher sampling rate of EIPs can
   capture the CPI variance."  We run it: same workload, same interval
   length in instructions, but 4x / 10x more EIP samples per interval. *)
let ext_highrate config =
  let name = "odb_h_q18" in
  let b = Buffer.create 512 in
  buf_printf b
    "Extension: does a higher EIP sampling rate rescue Q-III workloads? (%s)

" name;
  let rows =
    List.map
      (fun rate ->
        let cfg =
          {
            config with
            Analysis.period = config.Analysis.period / rate;
            samples_per_interval = config.Analysis.samples_per_interval * rate;
          }
        in
        let a = analyze_cached cfg name in
        (rate, a.Analysis.cpi_variance, a.Analysis.re_kopt, Rtree.Cv.re_min a.Analysis.curve))
      [ 1; 4; 10 ]
  in
  Buffer.add_string b
    (Stats.Table.render
       ~header:[| "sampling rate"; "CPI var"; "RE_kopt"; "RE_min" |]
       ~rows:
         (List.map
            (fun (r, v, re, remin) ->
              [|
                Printf.sprintf "%dx" r;
                Stats.Table.fmt_f ~digits:5 v;
                Stats.Table.fmt_f ~digits:3 re;
                Stats.Table.fmt_f ~digits:3 remin;
              |])
            rows)
       ());
  buf_printf b
    "
Finding: the extra EIP resolution does not materially lower RE -- the CPI
variance is driven by data-dependent cache residency that no amount of
program-counter sampling can observe.
";
  Buffer.contents b

(* A reproduction finding of our own: with two threads scanning the same
   table, their drifting relative offset creates cache interference whose
   CPI signature is invisible in the EIPVs.  One knob, one quadrant
   flip. *)
let ext_thread_interference config =
  let analyze_with_threads threads =
    let params = { Workload.Dss.default_params with Workload.Dss.threads; scale = config.Analysis.scale } in
    let model = Workload.Dss.model ~params ~seed:config.Analysis.seed ~query:1 () in
    Analysis.analyze_model config model
  in
  let one = analyze_with_threads 1 and two = analyze_with_threads 2 in
  Printf.sprintf
    "Extension: DSS scan-query thread interference (Q1, 1 vs 2 threads)

%s
With one thread the two scan phases explain the small CPI variance
(RE %.3f).  With two threads sharing the buffer cache and hardware
caches, the drifting inter-thread scan offset modulates hit rates in a
way the EIPVs cannot see: variance x%.1f, RE -> %.3f.
"
    (Stats.Table.render
       ~header:[| "threads"; "CPI"; "CPI var"; "RE_kopt"; "quadrant" |]
       ~rows:
         (List.map
            (fun (label, (a : Analysis.t)) ->
              [|
                label;
                Stats.Table.fmt_f ~digits:3 a.Analysis.cpi;
                Stats.Table.fmt_f ~digits:5 a.Analysis.cpi_variance;
                Stats.Table.fmt_f ~digits:3 a.Analysis.re_kopt;
                Quadrant.to_string a.Analysis.quadrant;
              |])
            [ ("1", one); ("2", two) ])
       ())
    one.Analysis.re_kopt
    (two.Analysis.cpi_variance /. Float.max 1e-9 one.Analysis.cpi_variance)
    two.Analysis.re_kopt

(* Why cross-validation is load-bearing (the paper's RE > 1 remark):
   resubstitution error always improves with k, while held-out error on a
   code-blind workload does not. *)
let ext_cv_vs_train config =
  let a = analyze_cached config "gcc" in
  let ds = Sampling.Eipv.dataset a.Analysis.eipv in
  let train = Rtree.Cv.training_error_curve ~kmax:config.Analysis.kmax ds in
  Printf.sprintf
    "Extension: cross-validated vs training relative error (gcc, Q-III)

%s
Training RE falls monotonically to %.3f at k=%d -- the tree memorises
noise.  Held-out RE never improves on the mean predictor (final %.3f),
which is the paper's justification for cross-validating (Section 4.4).
"
    (Report.re_curves [ ("cv", a.Analysis.curve); ("train", train) ])
    (Rtree.Cv.re_final train) config.Analysis.kmax a.Analysis.re_final

(* The prefetch ablation (DESIGN.md ablation list): a stream prefetcher
   collapses the memory stalls of scan-dominated plans while leaving
   index-scan plans nearly untouched, shifting CPI levels and variances —
   quadrant placement depends on the machine's latency-hiding machinery,
   not only its cache sizes. *)
let ext_prefetch config =
  let pf_machine = March.Config.with_prefetch config.Analysis.machine in
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun machine ->
            let a = analyze_cached { config with Analysis.machine } name in
            [|
              name;
              machine.March.Config.name;
              Stats.Table.fmt_f ~digits:3 a.Analysis.cpi;
              Stats.Table.fmt_f ~digits:5 a.Analysis.cpi_variance;
              Stats.Table.fmt_f ~digits:3 a.Analysis.re_kopt;
              Stats.Table.fmt_pct (March.Breakdown.exe_fraction a.Analysis.breakdown);
            |])
          [ config.Analysis.machine; pf_machine ])
      [ "odb_h_q1"; "odb_h_q18"; "swim"; "mcf" ]
  in
  Printf.sprintf
    "Ablation: stream prefetcher on vs off

%s
Streaming workloads (q1's scans, swim) lose most of their EXE stalls with
the prefetcher; pointer/index workloads (q18, mcf) barely move -- another
machine knob that reshapes the quadrant map.
"
    (Stats.Table.render
       ~header:[| "workload"; "machine"; "CPI"; "CPI var"; "RE_kopt"; "EXE%" |]
       ~rows ())

(* The Section 6.2 counterfactual: Q18 with the optimiser's decision
   flipped.  Also prints the cost model's decision sweep. *)
let ext_optimizer config =
  let db = Dbengine.Tpch.create ~scale:config.Analysis.scale ~seed:config.Analysis.seed () in
  let rows = (Dbengine.Tpch.lineitem db).Dbengine.Heap.rows in
  let height = Dbengine.Btree.height (Dbengine.Tpch.lineitem_index db) in
  let sweep =
    List.map
      (fun sel ->
        [|
          Printf.sprintf "%g" sel;
          Dbengine.Optimizer.to_string
            (Dbengine.Optimizer.choose ~rows ~selectivity:sel ~index_height:height ());
        |])
      [ 0.0001; 0.001; 0.01; 0.05; Dbengine.Tpch.q18_selectivity; 0.15; 0.5; 1.0 ]
  in
  let analyze_variant access =
    let params = { Workload.Dss.default_params with Workload.Dss.scale = config.Analysis.scale } in
    let model = Workload.Dss.q18_model ~params ~seed:config.Analysis.seed ~access () in
    Analysis.analyze_model config model
  in
  let idx = analyze_variant Dbengine.Optimizer.Index_scan in
  let seq = analyze_variant Dbengine.Optimizer.Seq_scan in
  Printf.sprintf
    "Section 6.2 counterfactual: Q18 under both access paths

Cost-model decision sweep (lineitem: %d rows, index height %d; crossover at selectivity %.3f):

%s
At Q18's modelled selectivity (%.2f) the optimiser picks the index scan,
exactly the paper's account.  Predictability under each plan:

%s
The index-scan plan is code-blind (%s); the same query executed with the
Q13-style sequential plan becomes strongly predictable (%s).  One
optimiser decision moves the workload across the quadrant map.
"
    rows height
    (Dbengine.Optimizer.crossover_selectivity ~rows ~index_height:height ())
    (Stats.Table.render ~header:[| "selectivity"; "chosen path" |] ~rows:sweep ())
    Dbengine.Tpch.q18_selectivity
    (Stats.Table.render
       ~header:[| "plan"; "CPI"; "CPI var"; "RE_kopt"; "quadrant" |]
       ~rows:
         (List.map
            (fun (label, (a : Analysis.t)) ->
              [|
                label;
                Stats.Table.fmt_f ~digits:3 a.Analysis.cpi;
                Stats.Table.fmt_f ~digits:5 a.Analysis.cpi_variance;
                Stats.Table.fmt_f ~digits:3 a.Analysis.re_kopt;
                Quadrant.to_string a.Analysis.quadrant;
              |])
            [ ("index_scan", idx); ("seq_scan", seq) ])
       ())
    (Quadrant.to_string idx.Analysis.quadrant)
    (Quadrant.to_string seq.Analysis.quadrant)

(* The paper's Section 3.3 future work: EIPVs (sampled) vs BBV-style
   full-profile vectors on the same intervals. *)
let ext_bbv config =
  ignore (analyze_many config [ "odb_h_q13"; "odb_h_q18"; "mcf"; "gcc"; "mgrid" ]);
  let rows =
    List.map
      (fun name ->
        let a = analyze_cached config name in
        let rv =
          Sampling.Rvec.build a.Analysis.run
            ~samples_per_interval:config.Analysis.samples_per_interval
        in
        let rv_curve =
          Rtree.Cv.relative_error_curve ~pool:(Analysis.pool config) ~folds:config.Analysis.folds
            ~kmax:config.Analysis.kmax
            (Stats.Rng.create (config.Analysis.seed + 5))
            (Sampling.Rvec.dataset rv)
        in
        let rv_kopt = Rtree.Cv.kopt rv_curve ~tol:config.Analysis.kopt_tol in
        [|
          name;
          Stats.Table.fmt_f ~digits:3 a.Analysis.re_kopt;
          Stats.Table.fmt_f ~digits:3 (Rtree.Cv.re_at rv_curve rv_kopt);
          string_of_int a.Analysis.kopt;
          string_of_int rv_kopt;
        |])
      [ "odb_h_q13"; "odb_h_q18"; "mcf"; "gcc"; "mgrid" ]
  in
  Printf.sprintf
    "Extension (paper Section 3.3 future work): sampled EIPVs vs full-profile
region vectors (the BBV analogue)

%s
Full-profile vectors remove the sampling noise, helping marginally on
strong-phase workloads; they do nothing for the code-blind quadrant --
the limit is information-theoretic, not a sampling artifact.
"
    (Stats.Table.render
       ~header:[| "workload"; "RE (EIPV)"; "RE (region vec)"; "k_opt EIPV"; "k_opt RV" |]
       ~rows ())

(* Section 8 related work, quantified: working-set-signature detection
   (Dhodapkar & Smith) agrees with CPI-optimal chambers when phases are
   real, and fires on code changes that carry no CPI meaning (or misses
   CPI changes entirely) in the fuzzy quadrants. *)
let ext_phase_detect config =
  ignore (analyze_many config [ "mgrid"; "odb_h_q13"; "gzip"; "odb_h_q18"; "gcc" ]);
  let rows =
    List.map
      (fun name ->
        let a = analyze_cached config name in
        let ws = Phase_detect.working_set_signature a.Analysis.eipv in
        let cos = Phase_detect.eipv_cosine a.Analysis.eipv in
        let cpi = Phase_detect.cpi_delta a.Analysis.eipv in
        let tree = Phase_detect.tree_chambers ~k:(max 2 a.Analysis.kopt) a.Analysis.eipv in
        [|
          name;
          Quadrant.to_string a.Analysis.quadrant;
          string_of_int (Phase_detect.change_count ws);
          string_of_int (Phase_detect.change_count cos);
          string_of_int (Phase_detect.change_count cpi);
          string_of_int (Phase_detect.change_count tree);
          Stats.Table.fmt_pct (Phase_detect.agreement cos tree);
          Stats.Table.fmt_pct (Phase_detect.agreement cos cpi);
        |])
      [ "mgrid"; "odb_h_q13"; "gzip"; "odb_h_q18"; "gcc" ]
  in
  Printf.sprintf
    "Extension (Section 8): working-set-signature phase detection vs CPI truth

%s
On strong-phase workloads the code-based detector agrees with the
CPI-optimal chambers (the Dhodapkar-Smith ~83%% result).  On Q-I it
trivially agrees because nothing changes; on Q-III it cannot see the CPI
changes at all -- code-based phase detection inherits the fuzzy
correlation.
"
    (Stats.Table.render
       ~header:
         [| "workload"; "quadrant"; "ws-sig chg"; "cosine chg"; "CPI chg"; "tree chg";
            "cos~tree"; "cos~CPI" |]
       ~rows ())

(* ------------------------------------------------------------------ *)

let all =
  [
    {
      id = "table1";
      title = "Table 1 + Figure 1: worked regression-tree example";
      paper_claim = "root split (EIP0,20); 4 chambers as in Figure 1";
      run = table1;
    };
    {
      id = "fig2";
      title = "Figure 2: RE curves for ODB-C and SjAS";
      paper_claim = "ODB-C RE >= 1; SjAS flat ~0.96 with min ~0.8 at small k";
      run = fig2;
    };
    {
      id = "fig3";
      title = "Figure 3: EIP and CPI spread for ODB-C and SjAS";
      paper_claim = "tens of thousands of uniformly-spread EIPs; small CPI variance";
      run = fig3;
    };
    {
      id = "fig4";
      title = "Figure 4: CPI breakdown for ODB-C";
      paper_claim = "EXE (L3-miss stalls) > 50% of CPI throughout";
      run = fig4;
    };
    {
      id = "fig5";
      title = "Figure 5: CPI breakdown for SjAS";
      paper_claim = "EXE 30-40% of CPI";
      run = fig5;
    };
    {
      id = "fig6";
      title = "Figure 6: ODB-C RE with/without thread separation";
      paper_claim = "thread separation helps only minimally (RE dips just below 1)";
      run = fig6;
    };
    {
      id = "fig7";
      title = "Figure 7: SjAS RE with/without thread separation";
      paper_claim = "small improvement; EIPVs still cannot predict CPI";
      run = fig7;
    };
    {
      id = "fig8";
      title = "Figure 8: RE trend for ODB-H Q13";
      paper_claim = "RE drops fast to ~0.15 at k_opt ~9: 85% explained";
      run = fig8;
    };
    {
      id = "fig9";
      title = "Figure 9: Q13 EIP and CPI spread";
      paper_claim = "few unique EIPs, visibly cyclic EIP/CPI correlation";
      run = fig9;
    };
    {
      id = "fig10";
      title = "Figure 10: RE trend for ODB-H Q18";
      paper_claim = "RE ~1.1, flat: EIPVs cannot explain Q18";
      run = fig10;
    };
    {
      id = "fig11";
      title = "Figure 11: Q18 EIP and CPI spread";
      paper_claim = "same EIPs over time but CPI varies strongly";
      run = fig11;
    };
    {
      id = "fig12";
      title = "Figure 12: Q18 CPI breakdown";
      paper_claim = "no single dominant bottleneck; components shift over time";
      run = fig12;
    };
    {
      id = "table2";
      title = "Table 2 + Figure 13: quadrant classification of all 50 workloads";
      paper_claim = "~half of SPEC in Q-I; ODB-C Q-I; SjAS Q-III; Q13 Q-IV; Q18 Q-III";
      run = table2;
    };
    {
      id = "kmeans";
      title = "Section 4.6: regression trees vs k-means";
      paper_claim = "trees improve CPI predictability by ~80% on average";
      run = sec4_6;
    };
    {
      id = "threading";
      title = "Section 5.2: OS time and context switches";
      paper_claim = "ODB-C ~15% OS, ~2600 sw/s; SjAS ~5000 sw/s; SPEC ~25 sw/s, <1% OS";
      run = sec5_2;
    };
    {
      id = "machines";
      title = "Section 7.1: Pentium 4 / Xeon robustness";
      paper_claim = "CPI variance higher on both, highest on the L3-less P4";
      run = sec7_1_machines;
    };
    {
      id = "intervals";
      title = "Section 7.1: EIPV interval-size sensitivity";
      paper_claim = "50M/10M intervals raise CPI variance (+7%/+29%) and RE (+13%/+14%)";
      run = sec7_1_intervals;
    };
    {
      id = "sampling";
      title = "Section 7: per-quadrant sampling technique selection";
      paper_claim = "no single technique wins everywhere";
      run = sec7_sampling;
    };
    {
      id = "thresholds";
      title = "Section 7.1: classification robustness to threshold choice";
      paper_claim = "threshold shifts move borderline benchmarks to adjacent quadrants only";
      run = sec7_1_thresholds;
    };
    {
      id = "highrate";
      title = "Extension: 4x/10x EIP sampling rate on a Q-III workload";
      paper_claim = "(future work in the paper) higher rate should not rescue Q-III";
      run = ext_highrate;
    };
    {
      id = "interference";
      title = "Extension: multi-thread scan interference flips Q1's quadrant";
      paper_claim = "(new) thread cache interference is EIPV-invisible";
      run = ext_thread_interference;
    };
    {
      id = "cv-vs-train";
      title = "Extension: cross-validation vs training error (overfit ablation)";
      paper_claim = "training RE monotone down; held-out RE ~ 1 on code-blind CPI";
      run = ext_cv_vs_train;
    };
    {
      id = "prefetch";
      title = "Ablation: stream prefetcher on/off";
      paper_claim = "(new) latency-hiding hardware reshapes the quadrant map";
      run = ext_prefetch;
    };
    {
      id = "optimizer";
      title = "Section 6.2 counterfactual: Q18 under both access paths";
      paper_claim = "the optimiser's index-scan choice alone makes Q18 unpredictable";
      run = ext_optimizer;
    };
    {
      id = "bbv";
      title = "Extension: EIPVs vs full-profile region vectors (BBV analogue)";
      paper_claim = "(future work in the paper) BBVs cannot rescue the code-blind quadrant";
      run = ext_bbv;
    };
    {
      id = "phase-detect";
      title = "Extension: working-set-signature phase detection vs CPI truth";
      paper_claim = "(Section 8) code-based detectors inherit the fuzzy correlation";
      run = ext_phase_detect;
    };
  ]

let ids = List.map (fun e -> e.id) all

let find id = List.find (fun e -> e.id = id) all
