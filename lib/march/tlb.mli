(** Fully-associative data-TLB model with LRU replacement.

    TLB walks contribute to the OTHER stall component in the CPI
    breakdown.

    Replacement is exact LRU at O(1) per access: the page number keys
    the shared exact-LRU table {!Stats.Lru}, which also backs the
    database buffer cache.  A miss fills the lowest free slot while one
    is left, then evicts the least recently used page, so every hit/miss
    outcome equals {!Reference.access}'s (QCheck-asserted, DESIGN.md
    §12). *)

type t

val create : entries:int -> page_bytes:int -> t
(** Raises [Invalid_argument] unless [entries > 0] and [page_bytes] is a
    power of two. *)

val access : t -> int -> bool
(** [true] on hit.  Allocation-free.  Raises [Invalid_argument] on a
    negative address (page numbers are non-negative). *)

val misses : t -> int

module Reference : sig
  type t

  val create : entries:int -> page_bytes:int -> t

  val access : t -> int -> bool
  (** The specification implementation: a linear scan for the page on
      every access and a minimum-stamp scan for the victim on a miss.
      Unfilled slots hold page [-1], so unlike {!Tlb.access} it does not
      reject negative addresses (page [-1] "hits" an empty slot).  Kept
      as the equivalence oracle for the QCheck suite and the
      [march_replay] bench kernel's reference side; not used on any
      production path. *)

  val misses : t -> int
end
