(** End-to-end predictability analysis: workload -> samples -> EIPVs ->
    cross-validated RE curve -> quadrant.  This is the pipeline every
    experiment in the paper runs. *)

type config = {
  seed : int;
  scale : float;  (** workload data-size multiplier *)
  machine : March.Config.t;
  intervals : int;
  samples_per_interval : int;
  period : int;  (** retired instructions per sample *)
  kmax : int;
  folds : int;
  kopt_tol : float;  (** the paper's 0.5% rule for k_opt *)
  jobs : int;
      (** Worker-domain count for the CV fold fan-out and workload sweeps.
          Results are bit-identical for every value; 1 means fully serial.
          Defaults to [Parallel.Pool.default_jobs ()] (the [JOBS]
          environment variable, else the recommended domain count capped
          at 8). *)
}

val default : config
(** Full experiment scale: 256 intervals of 100 samples of 20k
    instructions on the Itanium 2 model. *)

val quick : config
(** Test scale: 48 intervals, reduced data sets. *)

val key : config -> string -> string
(** [key config name] — the analysis-cache key of workload [name] under
    [config], used by the in-memory tier and (inside its own header) by
    the persistent store.  One line per config field except [jobs];
    floats as [%h] hex-floats, so distinct configs get distinct keys. *)

val of_key : jobs:int -> string -> (config * string) option
(** Invert {!key}.  [None] for an unknown machine name or malformed text;
    [jobs] fills the one config field the key deliberately omits. *)

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
  breakdown : March.Breakdown.t;  (** mean per-instruction CPI components *)
  unique_eips : int;
  os_fraction : float;
  switches_per_minstr : float;
}

val analyze_model : config -> Workload.Model.t -> t
val analyze : config -> string -> t
(** Look the workload up in {!Workload.Catalog} and analyze it. *)

val of_intervals : config -> name:string -> run:Sampling.Driver.run -> Sampling.Eipv.t -> t
(** Analyze pre-built intervals (used for per-thread EIPVs and interval-
    size sweeps). *)

val of_parts : config -> name:string -> run:Sampling.Driver.run -> curve:Rtree.Cv.curve -> t
(** Reassemble an analysis from its expensive parts — the sample run and
    the cross-validated RE curve — without re-running the CV fit.  The
    EIPV table and every derived statistic are recomputed (they are cheap
    deterministic folds over [run]), so given the exact (run, curve) a
    previous {!analyze} produced under the same [config], the result is
    structurally identical to that analysis.  This is the persistent
    result store's reload path. *)

val pool : config -> Parallel.Pool.t
(** The shared pool for [config.jobs] (serial when [jobs = 1]). *)

val pp_summary : Format.formatter -> t -> unit
