(* The SplitMix64 state lives in 8 bytes rather than a mutable [int64]
   field: an [int64] field is boxed, so every draw would allocate a fresh
   box, while [Bytes.get/set_int64_ne] read and write it unboxed. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function: mix the advanced state through two
   xor-shift-multiply rounds. *)
let[@inline] next_raw t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next_raw t

let split t = of_state (next_raw t)

(* SplitMix64 finaliser, used to mix label bytes into a seed. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let split_label seed label =
  (* FNV-1a over the label bytes, folded into the master seed and mixed.
     Independent of evaluation order, so parallel workloads derived from
     the same master seed get the same stream no matter how they are
     scheduled. *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    label;
  of_state (mix64 (Int64.add (Int64.mul (Int64.of_int seed) golden_gamma) !h))

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next_raw t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias (a loop, not a local
     recursive function, so a draw allocates no closure). *)
  let r = ref (bits t) in
  while !r - (!r mod bound) + (bound - 1) < 0 do
    r := bits t
  done;
  !r mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_raw t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next_raw t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
