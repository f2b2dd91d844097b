type config = {
  seed : int;
  scale : float;
  machine : March.Config.t;
  intervals : int;
  samples_per_interval : int;
  period : int;
  kmax : int;
  folds : int;
  kopt_tol : float;
  jobs : int;
}

let default =
  {
    seed = 42;
    scale = 1.0;
    machine = March.Config.itanium2;
    intervals = 256;
    samples_per_interval = 100;
    period = 20_000;
    kmax = 50;
    folds = 10;
    kopt_tol = 0.005;
    jobs = Parallel.Pool.default_jobs ();
  }

let quick =
  { default with intervals = 48; samples_per_interval = 50; scale = 0.25; kmax = 25 }

(* The analysis-cache key, shared by the in-memory tier and the store: one
   "<field> <value>" line per config field except [jobs] (results are
   bit-identical for every jobs count, so caching on it would only split
   the cache).  Floats print as %h hex-floats, so [of_key] inverts [key]
   exactly and two configs share a key iff they produce the same bytes. *)
let key config name =
  Printf.sprintf
    "name %s\nmachine %s\nseed %d\nscale %h\nintervals %d\nsamples_per_interval %d\n\
     period %d\nkmax %d\nfolds %d\nkopt_tol %h\n"
    name config.machine.March.Config.name config.seed config.scale config.intervals
    config.samples_per_interval config.period config.kmax config.folds config.kopt_tol

let of_key ~jobs key =
  let field label line =
    let prefix = label ^ " " in
    let plen = String.length prefix in
    if String.length line > plen && String.sub line 0 plen = prefix then
      Some (String.sub line plen (String.length line - plen))
    else None
  in
  let ( let* ) = Option.bind in
  let int_field label line = Option.bind (field label line) int_of_string_opt in
  let float_field label line = Option.bind (field label line) float_of_string_opt in
  match String.split_on_char '\n' key with
  | [ name_l; machine_l; seed_l; scale_l; intervals_l; spi_l; period_l; kmax_l; folds_l;
      tol_l; "" ] ->
      let* name = field "name" name_l in
      let* machine_name = field "machine" machine_l in
      let* machine =
        match March.Config.by_name machine_name with
        | m -> Some m
        | exception Not_found -> None
      in
      let* seed = int_field "seed" seed_l in
      let* scale = float_field "scale" scale_l in
      let* intervals = int_field "intervals" intervals_l in
      let* samples_per_interval = int_field "samples_per_interval" spi_l in
      let* period = int_field "period" period_l in
      let* kmax = int_field "kmax" kmax_l in
      let* folds = int_field "folds" folds_l in
      let* kopt_tol = float_field "kopt_tol" tol_l in
      Some
        ( { seed; scale; machine; intervals; samples_per_interval; period; kmax; folds;
            kopt_tol; jobs },
          name )
  | _ -> None

type t = {
  name : string;
  config : config;
  run : Sampling.Driver.run;
  eipv : Sampling.Eipv.t;
  cpi : float;
  cpi_variance : float;
  curve : Rtree.Cv.curve;
  kopt : int;
  re_kopt : float;
  re_final : float;
  quadrant : Quadrant.t;
  breakdown : March.Breakdown.t;
  unique_eips : int;
  os_fraction : float;
  switches_per_minstr : float;
}

let mean_breakdown (eipv : Sampling.Eipv.t) =
  let acc =
    Array.fold_left
      (fun acc iv -> March.Breakdown.add acc iv.Sampling.Eipv.breakdown)
      March.Breakdown.zero eipv.Sampling.Eipv.intervals
  in
  March.Breakdown.scale acc (1.0 /. float_of_int (Array.length eipv.Sampling.Eipv.intervals))

let pool config = Parallel.Pool.shared ~jobs:config.jobs

(* Everything below the curve is a cheap deterministic function of
   (run, eipv, curve, config) — shared by the compute path and the
   persistent-store reload path, so a reloaded analysis is structurally
   identical to a recomputed one. *)
let assemble config ~name ~run ~eipv ~curve =
  let cpis = Sampling.Eipv.cpis eipv in
  let cpi_variance = Stats.Describe.variance cpis in
  let kopt = Rtree.Cv.kopt curve ~tol:config.kopt_tol in
  let re_kopt = Rtree.Cv.re_at curve kopt in
  let re_final = Rtree.Cv.re_final curve in
  {
    name;
    config;
    run;
    eipv;
    cpi = Sampling.Driver.cpi run;
    cpi_variance;
    curve;
    kopt;
    re_kopt;
    re_final;
    quadrant = Quadrant.classify ~cpi_variance ~re:re_kopt ();
    breakdown = mean_breakdown eipv;
    unique_eips = Sampling.Driver.unique_eips run;
    os_fraction = Sampling.Driver.os_fraction run;
    switches_per_minstr = Sampling.Driver.context_switches_per_minstr run;
  }

let of_intervals config ~name ~run eipv =
  let curve =
    Rtree.Cv.relative_error_curve ~pool:(pool config) ~folds:config.folds ~kmax:config.kmax
      (Stats.Rng.create (config.seed + 1))
      (Sampling.Eipv.dataset eipv)
  in
  assemble config ~name ~run ~eipv ~curve

let of_parts config ~name ~run ~curve =
  (* The EIPV table is a cheap deterministic fold over the samples, so
     the store persists only (run, curve) — the expensive CV fit — and
     rebuilds the rest on load. *)
  let eipv = Sampling.Eipv.build run ~samples_per_interval:config.samples_per_interval in
  assemble config ~name ~run ~eipv ~curve

let analyze_model config model =
  let cpu = March.Cpu.create config.machine in
  (* Each workload gets its own stream derived from (seed, name): results
     are a function of that pair alone, never of which pool worker or in
     which order the workload happened to run. *)
  let rng = Stats.Rng.split_label config.seed model.Workload.Model.name in
  let samples = config.intervals * config.samples_per_interval in
  let run = Sampling.Driver.run ~period:config.period model ~cpu ~rng ~samples in
  let eipv = Sampling.Eipv.build run ~samples_per_interval:config.samples_per_interval in
  of_intervals config ~name:model.Workload.Model.name ~run eipv

let analyze config name =
  let entry = Workload.Catalog.find name in
  analyze_model config (entry.Workload.Catalog.build ~seed:config.seed ~scale:config.scale)

let pp_summary ppf t =
  Format.fprintf ppf
    "%s: cpi=%.3f var=%.5f re_kopt=%.3f (k_opt=%d) re_final=%.3f quadrant=%a unique_eips=%d"
    t.name t.cpi t.cpi_variance t.re_kopt t.kopt t.re_final Quadrant.pp t.quadrant
    t.unique_eips
