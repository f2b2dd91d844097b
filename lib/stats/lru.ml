(* Exact LRU in O(1) per access: a key -> slot hash table plus a doubly
   linked recency list threaded through the slot arrays (head = most
   recent).  A miss always takes the list tail.  The list starts with
   every slot empty and slot 0 at the tail, slot 1 next to it and so on,
   so empty slots are taken lowest index first, then the least recently
   used key -- the same victim sequence as a minimum-stamp scan whose
   unfilled slots all carry stamp 0 (ties go to the lowest index) and
   whose filled slots carry unique stamps ([March.Tlb.Reference]).

   The table is open addressing with linear probing over [keys]/[vals],
   -1 marking an empty cell (keys are non-negative), at most a quarter
   full, with backward-shift deletion so no tombstones build up.  Nothing
   is allocated after [create]. *)

type t = {
  keys : int array;  (* key held in each cell; -1 = empty *)
  vals : int array;  (* slot of that key *)
  mask : int;  (* table capacity - 1 *)
  slots : int array;  (* key held in each slot; -1 = empty *)
  prev : int array;  (* toward the head; -1 at the head *)
  next : int array;  (* toward the tail; -1 at the tail *)
  mutable head : int;
  mutable tail : int;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  let rec cells c = if c >= 4 * capacity then c else cells (2 * c) in
  let cap = cells 4 in
  {
    keys = Array.make cap (-1);
    vals = Array.make cap 0;
    mask = cap - 1;
    slots = Array.make capacity (-1);
    prev = Array.init capacity (fun s -> if s = capacity - 1 then -1 else s + 1);
    next = Array.init capacity (fun s -> s - 1);
    head = capacity - 1;
    tail = 0;
    size = 0;
    hits = 0;
    misses = 0;
  }

(* Fibonacci hashing: the product's upper bits spread neighbouring and
   power-of-two-strided keys over the cells. *)
let home t key = ((key * 0x9E3779B97F4A7C1) lsr 32) land t.mask

(* The cell holding [key], else the empty cell that ends its probe run. *)
let cell t key =
  let i = ref (home t key) in
  while t.keys.(!i) <> key && t.keys.(!i) >= 0 do
    i := (!i + 1) land t.mask
  done;
  !i

(* Empty [key]'s cell, then walk the rest of its probe run and move back
   into the hole every key whose home does not lie cyclically in
   (hole, j]: its lookups pass through the hole, which would stop them. *)
let remove t key =
  let hole = ref (cell t key) in
  let j = ref ((!hole + 1) land t.mask) in
  t.keys.(!hole) <- -1;
  while t.keys.(!j) >= 0 do
    let h = home t t.keys.(!j) in
    let reachable = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
    if not reachable then begin
      t.keys.(!hole) <- t.keys.(!j);
      t.vals.(!hole) <- t.vals.(!j);
      t.keys.(!j) <- -1;
      hole := !j
    end;
    j := (!j + 1) land t.mask
  done

(* Move slot [s] to the head of the recency list.  The list is never
   empty, and a slot other than the head has a predecessor. *)
let touch t s =
  if s <> t.head then begin
    let p = t.prev.(s) and n = t.next.(s) in
    t.next.(p) <- n;
    if n >= 0 then t.prev.(n) <- p else t.tail <- p;
    t.prev.(s) <- -1;
    t.next.(s) <- t.head;
    t.prev.(t.head) <- s;
    t.head <- s
  end

let access t key =
  if key < 0 then invalid_arg "Lru.access: negative key";
  let i = cell t key in
  if t.keys.(i) = key then begin
    touch t t.vals.(i);
    t.hits <- t.hits + 1;
    true
  end
  else begin
    let s = t.tail in
    if t.slots.(s) >= 0 then remove t t.slots.(s) else t.size <- t.size + 1;
    (* The removal may have shifted [key]'s probe run: look again. *)
    let i = cell t key in
    t.keys.(i) <- key;
    t.vals.(i) <- s;
    t.slots.(s) <- key;
    touch t s;
    t.misses <- t.misses + 1;
    false
  end

let mem t key = key >= 0 && t.keys.(cell t key) = key
let size t = t.size
let hits t = t.hits
let misses t = t.misses
