(* The page shift in front of the shared exact-LRU table ([Stats.Lru]),
   whose victim sequence -- free slots lowest index first, then the least
   recently used page -- is exactly Reference's minimum-stamp scan. *)

type t = { lru : Stats.Lru.t; page_bits : int }

let log2 x =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 x

let check_geometry ~entries ~page_bytes =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  if page_bytes <= 0 || page_bytes land (page_bytes - 1) <> 0 then
    invalid_arg "Tlb.create: page size must be a power of two"

let create ~entries ~page_bytes =
  check_geometry ~entries ~page_bytes;
  { lru = Stats.Lru.create ~capacity:entries; page_bits = log2 page_bytes }

let access t addr =
  if addr < 0 then invalid_arg "Tlb.access: negative address";
  Stats.Lru.access t.lru (addr asr t.page_bits)

let misses t = Stats.Lru.misses t.lru

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
