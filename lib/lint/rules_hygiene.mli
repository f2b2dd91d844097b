(** D005–D009: hygiene rules (physical equality, stdout discipline,
    interface coverage, exception handling, polymorphic comparison in the
    simulator libraries). *)

val all : Rule.t list
