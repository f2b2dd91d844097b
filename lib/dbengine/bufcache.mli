(** Database buffer cache (the Oracle SGA in the paper's setup).

    Page-granular LRU cache standing between operators and "disk": a miss
    means the accessing thread blocks on I/O and yields the CPU — the
    mechanism behind the server workloads' high context-switch rates.
    Replacement is exact LRU over exactly [pages] pages, on the shared
    table {!Stats.Lru} (the same one the D-TLB uses). *)

type t

val create : pages:int -> page_bytes:int -> t
(** Holds exactly [pages] pages.  Raises [Invalid_argument] unless
    [pages > 0]. *)

val touch : t -> int -> bool
(** [touch t addr] returns [true] on a buffer hit.  The page is
    [addr / page_bytes]; a negative page raises [Invalid_argument]. *)

val hit_ratio : t -> float
