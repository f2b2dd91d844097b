(* Exact LRU in O(1) per access: a page -> slot hash table plus a doubly
   linked recency list threaded through the slot arrays (head = most
   recent).  A miss always takes the list tail.  The list starts with
   every slot empty and slot 0 at the tail, slot 1 next to it and so on,
   so empty slots are taken lowest index first, then the least recently
   used page -- the same victim sequence as Reference's minimum-stamp
   scan, whose unfilled slots all carry stamp 0 (ties go to the lowest
   index) and whose filled slots carry unique stamps.

   The table is open addressing with linear probing over [keys]/[vals],
   -1 marking an empty cell (pages are non-negative), at most a quarter
   full, with backward-shift deletion so no tombstones build up.  Nothing
   is allocated after [create]. *)

type t = {
  keys : int array;  (* page held in each cell; -1 = empty *)
  vals : int array;  (* slot of that page *)
  mask : int;  (* table capacity - 1 *)
  pages : int array;  (* page held in each slot; -1 = empty *)
  prev : int array;  (* toward the head; -1 at the head *)
  next : int array;  (* toward the tail; -1 at the tail *)
  page_bits : int;
  mutable head : int;
  mutable tail : int;
  mutable misses : int;
}

let log2 x =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 x

let check_geometry ~entries ~page_bytes =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  if page_bytes <= 0 || page_bytes land (page_bytes - 1) <> 0 then
    invalid_arg "Tlb.create: page size must be a power of two"

let create ~entries ~page_bytes =
  check_geometry ~entries ~page_bytes;
  let rec capacity c = if c >= 4 * entries then c else capacity (2 * c) in
  let cap = capacity 4 in
  {
    keys = Array.make cap (-1);
    vals = Array.make cap 0;
    mask = cap - 1;
    pages = Array.make entries (-1);
    prev = Array.init entries (fun s -> if s = entries - 1 then -1 else s + 1);
    next = Array.init entries (fun s -> s - 1);
    page_bits = log2 page_bytes;
    head = entries - 1;
    tail = 0;
    misses = 0;
  }

(* Fibonacci hashing: the product's upper bits spread neighbouring and
   power-of-two-strided pages over the cells. *)
let home t page = ((page * 0x9E3779B97F4A7C1) lsr 32) land t.mask

(* The cell holding [page], else the empty cell that ends its probe run. *)
let cell t page =
  let i = ref (home t page) in
  while t.keys.(!i) <> page && t.keys.(!i) >= 0 do
    i := (!i + 1) land t.mask
  done;
  !i

(* Empty [page]'s cell, then walk the rest of its probe run and move
   back into the hole every key whose home does not lie cyclically in
   (hole, j]: its lookups pass through the hole, which would stop them. *)
let remove t page =
  let hole = ref (cell t page) in
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

let access t addr =
  if addr < 0 then invalid_arg "Tlb.access: negative address";
  let page = addr asr t.page_bits in
  let i = cell t page in
  if t.keys.(i) = page then begin
    touch t t.vals.(i);
    true
  end
  else begin
    let s = t.tail in
    if t.pages.(s) >= 0 then remove t t.pages.(s);
    (* The removal may have shifted [page]'s probe run: look again. *)
    let i = cell t page in
    t.keys.(i) <- page;
    t.vals.(i) <- s;
    t.pages.(s) <- page;
    touch t s;
    t.misses <- t.misses + 1;
    false
  end

let misses t = t.misses

module Reference = struct
  type t = {
    pages : int array;
    stamps : int array;
    page_bits : int;
    mutable tick : int;
    mutable misses : int;
    mutable accesses : int;
  }

  let create ~entries ~page_bytes =
    check_geometry ~entries ~page_bytes;
    {
      pages = Array.make entries (-1);
      stamps = Array.make entries 0;
      page_bits = log2 page_bytes;
      tick = 0;
      misses = 0;
      accesses = 0;
    }

  let access t addr =
    let page = addr asr t.page_bits in
    t.tick <- t.tick + 1;
    t.accesses <- t.accesses + 1;
    let n = Array.length t.pages in
    let rec find i = if i >= n then -1 else if t.pages.(i) = page then i else find (i + 1) in
    let i = find 0 in
    if i >= 0 then begin
      t.stamps.(i) <- t.tick;
      true
    end
    else begin
      let victim = ref 0 in
      for j = 1 to n - 1 do
        if t.stamps.(j) < t.stamps.(!victim) then victim := j
      done;
      t.pages.(!victim) <- page;
      t.stamps.(!victim) <- t.tick;
      t.misses <- t.misses + 1;
      false
    end

  let misses t = t.misses
end
