type t = {
  table : Bytes.t;  (* 2-bit saturating counters, one byte each *)
  mask : int;
  history_mask : int;
  mutable history : int;
  mutable mispredicts : int;
  mutable branches : int;
}

let create ?history_bits ~table_bits () =
  if table_bits < 1 || table_bits > 24 then invalid_arg "Branch.create: table_bits out of range";
  let history_bits = match history_bits with Some h -> h | None -> table_bits in
  if history_bits < 0 || history_bits > 30 then
    invalid_arg "Branch.create: history_bits out of range";
  let n = 1 lsl table_bits in
  {
    table = Bytes.make n '\002';  (* weakly taken *)
    mask = n - 1;
    history_mask = (1 lsl history_bits) - 1;
    history = 0;
    mispredicts = 0;
    branches = 0;
  }

let index t ~pc = (pc lxor t.history) land t.mask


let update t ~pc ~taken =
  let i = index t ~pc in
  let c = Char.code (Bytes.get t.table i) in
  let predicted = c >= 2 in
  let c' = if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1) in
  Bytes.set t.table i (Char.chr c');
  t.history <- ((t.history lsl 1) lor (if taken then 1 else 0)) land t.history_mask;
  t.branches <- t.branches + 1;
  let wrong = predicted <> taken in
  if wrong then t.mispredicts <- t.mispredicts + 1;
  wrong

let mispredicts t = t.mispredicts
let branches t = t.branches

let mispredict_rate t =
  if t.branches = 0 then 0.0 else float_of_int t.mispredicts /. float_of_int t.branches

let reset_stats t =
  t.mispredicts <- 0;
  t.branches <- 0
