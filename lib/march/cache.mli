(** Set-associative LRU cache model.

    Addresses are non-negative byte addresses in an [int]; the cache
    tracks line tags only (no data).  Replacement is true LRU: each set
    keeps its tags in recency order, so an access is one scan of the
    set's ways and no allocation.  Every hit/miss outcome equals
    {!Reference.access}'s (QCheck-asserted, DESIGN.md §12). *)

type t

val create : size_bytes:int -> ways:int -> line_bytes:int -> t
(** Geometry must be consistent: [size_bytes] divisible by
    [ways * line_bytes], line a power of two, at least one set. *)

val access : t -> int -> bool
(** [access t addr] returns [true] on hit; always updates LRU and
    allocates the line on miss.  Raises [Invalid_argument] on a
    negative address (its line would alias the invalid-way marker). *)

val probe : t -> int -> bool
(** Hit test without state change.  Raises [Invalid_argument] on a
    negative address, as {!access} does. *)

val accesses : t -> int
val miss_rate : t -> float
val reset_stats : t -> unit
val clear : t -> unit
(** Invalidate all lines and reset statistics. *)

val sets : t -> int
val ways : t -> int
val line_bytes : t -> int
val size_bytes : t -> int

module Reference : sig
  type t

  val create : size_bytes:int -> ways:int -> line_bytes:int -> t

  val access : t -> int -> bool
  (** The specification implementation: per-way LRU timestamps, a scan
      for the tag and a minimum-stamp scan for the victim, with the set
      index returned as a tuple.  Invalid ways hold tag [-1], so unlike
      {!Cache.access} it does not reject negative addresses.  Kept as
      the equivalence oracle for the QCheck suite and the
      [march_replay] bench kernel's reference side; not used on any
      production path. *)

  val accesses : t -> int
  val miss_rate : t -> float
end
