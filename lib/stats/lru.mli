(** Exact-capacity, fully associative LRU set of non-negative int keys,
    O(1) per access and allocation-free after {!create}.

    One table backs both exact-LRU structures of the model: the D-TLB
    ([March.Tlb], keys are page numbers) and the database buffer cache
    ([Dbengine.Bufcache], keys are buffer pages).  It is an
    open-addressing key-to-slot table plus a recency list threaded
    through the slots.  A miss fills the lowest free slot while one is
    left, then evicts the least recently used key, so every hit/miss
    outcome equals a linear-scan, minimum-stamp LRU's
    ([March.Tlb.Reference], QCheck-asserted, DESIGN.md §12). *)

type t

val create : capacity:int -> t
(** Holds exactly [capacity] keys.  Raises [Invalid_argument] unless
    [capacity > 0]. *)

val access : t -> int -> bool
(** [true] on a hit, which makes the key most recent.  On a miss the key
    is inserted, evicting the least recently used one if the set is
    full.  Raises [Invalid_argument] on a negative key ([-1] marks an
    empty cell). *)

val mem : t -> int -> bool
(** Is the key resident?  Does not change recency or the counters. *)

val size : t -> int
(** Resident keys, at most [capacity]. *)

val hits : t -> int
val misses : t -> int
