(** In-memory B+-tree with integer keys and values, plus the address trace
    of every traversal.

    Used by index-scan operators: each lookup returns the simulated memory
    addresses of the visited nodes, so that the randomness of tree descent
    over a skewed key distribution shows up as genuine cache behaviour —
    the mechanism the paper blames for Q18's unpredictable CPI
    (Section 6.2, citing the "randomness of the tree traversal"). *)

type t

val create : ?fanout:int -> node_bytes:int -> base_addr:int -> unit -> t
(** [fanout] (default 32) is the maximum number of keys per node. *)

val bulk_load : t -> (int * int) array -> unit
(** Load sorted (key, value) pairs into an empty tree; keys must be
    strictly increasing.  Builds a balanced tree bottom-up. *)

val insert : t -> key:int -> value:int -> unit

val find : t -> int -> int option

val descend : t -> int -> visit:(int -> unit) -> int
(** [descend t key ~visit] walks root->leaf towards [key], calling [visit]
    on each visited node's address in order, and returns the value stored
    under [key], or [-1] if it is absent.  Allocates nothing; callers
    whose values are non-negative use it on the simulation hot path. *)

val find_trace : t -> int -> int list * int option
(** [(addresses of nodes visited root->leaf, value if found)]: the
    addresses {!descend} visits, as a list. *)

val range_trace : t -> lo:int -> hi:int -> (int -> int -> unit) -> int list
(** Visit all (key, value) with lo <= key <= hi, calling the function on
    each; returns the node addresses touched. *)

val height : t -> int
val n_keys : t -> int
val footprint_bytes : t -> int

val check_invariants : t -> unit
(** Raises [Failure] if ordering, balance or occupancy invariants are
    violated (test hook). *)
