(** The rule engine: load sources, run the registry, apply waivers. *)

val rules : Rule.t list
(** The shallow registry, D001–D009, in id order. *)

val deep_rules : Rule.t list
(** G001–G004; driven by {!run_deep} off the reference graph (their [check]
    fields are stubs). *)

val find_rule : string -> Rule.t option
(** Looks through shallow then deep rules. *)

type config = {
  root : string;  (** directory the scan (and all reported paths) is relative to *)
  dirs : string list;  (** root-relative directories to walk *)
  exclude : string list;  (** root-relative path prefixes to skip *)
  rules : string list option;  (** [None] = every rule *)
  waivers_file : string;  (** root-relative; silently empty when absent *)
}

val default : config
(** [lib bin bench test] under ["."], excluding [test/lint_fixtures], all
    rules, baseline [lint.waivers]. *)

type result = {
  findings : Rule.finding list;
      (** unwaived findings, sorted — includes [E000] syntax errors and
          [W000] stale-waiver warnings *)
  waived : Rule.finding list;
  files : int;
}

val errors : result -> int
val warnings : result -> int

val run_sources :
  ?rules:string list -> ?waivers:Waivers.t -> Rule.source list -> result
(** Pure core, used by the tests with in-memory sources.  [W000] stale-waiver
    checking only runs with the full registry (no [?rules] filter). *)

val run : config -> (result, string) Stdlib.result
(** [Error] on an unknown rule id or an unparseable waivers file. *)

type deep = {
  dresult : result;  (** shallow + G-rule findings through the same waivers *)
  graph : Graph.t;
  effects : int array;  (** {!Effects.infer} output, indexed like the graph *)
}

val run_deep_sources :
  ?waivers:Waivers.t -> ?libnames:(string * string) list -> Rule.source list -> deep
(** Pure core of the deep pass.  Shallow rules run on everything except
    [examples/]; the graph (and hence G001–G004 and the usage audit) sees
    the full set.  [W000] staleness covers both registries, so a baseline
    entry for a G rule survives shallow runs but is checked here. *)

val run_deep : config -> (deep, string) Stdlib.result
(** {!run_deep_sources} over [cfg.dirs + examples/], with library names
    from [lib/*/dune] for cross-library canonicalization. *)
