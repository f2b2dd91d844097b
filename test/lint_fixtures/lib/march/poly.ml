(* Fixture: D009 polymorphic min/max/compare in a simulator library; the
   typed Int.* forms pass. *)
let clamp c = max 0 (Stdlib.min 3 c)
let order l = List.sort compare l
let clamp_typed c = Int.max 0 (Int.min 3 c)
