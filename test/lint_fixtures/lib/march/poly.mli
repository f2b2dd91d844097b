val clamp : int -> int
val order : int list -> int list
val clamp_typed : int -> int
