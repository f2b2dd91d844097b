type t = {
  sets : int;
  ways : int;
  line_bits : int;
  line_bytes : int;
  tags : int array;  (* sets * ways, each set most recent first; -1 = invalid *)
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 x

let check_geometry ~size_bytes ~ways ~line_bytes =
  if not (is_pow2 line_bytes) then invalid_arg "Cache.create: line size must be a power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  if size_bytes <= 0 || size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg "Cache.create: size must be a positive multiple of ways*line";
  let sets = size_bytes / (ways * line_bytes) in
  if not (is_pow2 sets) then invalid_arg "Cache.create: set count must be a power of two";
  sets

let create ~size_bytes ~ways ~line_bytes =
  let sets = check_geometry ~size_bytes ~ways ~line_bytes in
  {
    sets;
    ways;
    line_bits = log2 line_bytes;
    line_bytes;
    tags = Array.make (sets * ways) (-1);
    hits = 0;
    misses = 0;
  }

(* Each set's slice of [tags] is kept in recency order, most recent
   first; invalid ways (-1) sit at the end.  One pass: a hit on the MRU
   way changes nothing; otherwise the line goes to the front and each
   displaced tag is carried one way down until the pass meets the line
   (a hit: its old slot takes the carried tag) or the carried tag falls
   off the end (a miss: an invalid way while any is left, else the LRU
   line).  That is the same hit/miss sequence as Reference's per-way
   timestamps, without the stamps. *)
let access t addr =
  if addr < 0 then invalid_arg "Cache.access: negative address";
  let line = addr asr t.line_bits in
  let tags = t.tags in
  let base = (line land (t.sets - 1)) * t.ways in
  let carry = ref (Array.unsafe_get tags base) in
  if !carry <> line then begin
    Array.unsafe_set tags base line;
    let w = ref (base + 1) and stop = base + t.ways in
    while !w < stop && !carry <> line do
      let next = Array.unsafe_get tags !w in
      Array.unsafe_set tags !w !carry;
      carry := next;
      incr w
    done
  end;
  let hit = !carry = line in
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  hit

let probe t addr =
  if addr < 0 then invalid_arg "Cache.probe: negative address";
  let line = addr asr t.line_bits in
  let base = (line land (t.sets - 1)) * t.ways in
  let w = ref 0 in
  while !w < t.ways && t.tags.(base + !w) <> line do
    incr w
  done;
  !w < t.ways

let accesses t = t.hits + t.misses

let miss_rate t =
  let a = accesses t in
  if a = 0 then 0.0 else float_of_int t.misses /. float_of_int a

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  reset_stats t

let sets t = t.sets
let ways t = t.ways
let line_bytes t = t.line_bytes
let size_bytes t = t.sets * t.ways * t.line_bytes

module Reference = struct
  type t = {
    sets : int;
    ways : int;
    line_bits : int;
    tags : int array;  (* sets * ways; -1 = invalid *)
    stamps : int array;  (* LRU timestamps, parallel to tags *)
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~size_bytes ~ways ~line_bytes =
    let sets = check_geometry ~size_bytes ~ways ~line_bytes in
    {
      sets;
      ways;
      line_bits = log2 line_bytes;
      tags = Array.make (sets * ways) (-1);
      stamps = Array.make (sets * ways) 0;
      tick = 0;
      hits = 0;
      misses = 0;
    }

  let set_of t addr =
    let line = addr asr t.line_bits in
    (line land (t.sets - 1), line)

  let access t addr =
    let set, line = set_of t addr in
    let base = set * t.ways in
    t.tick <- t.tick + 1;
    let rec find w = if w >= t.ways then -1 else if t.tags.(base + w) = line then w else find (w + 1) in
    let w = find 0 in
    if w >= 0 then begin
      t.stamps.(base + w) <- t.tick;
      t.hits <- t.hits + 1;
      true
    end
    else begin
      (* Evict the LRU way. *)
      let victim = ref 0 in
      for i = 1 to t.ways - 1 do
        if t.stamps.(base + i) < t.stamps.(base + !victim) then victim := i
      done;
      t.tags.(base + !victim) <- line;
      t.stamps.(base + !victim) <- t.tick;
      t.misses <- t.misses + 1;
      false
    end

  let accesses t = t.hits + t.misses

  let miss_rate t =
    let a = accesses t in
    if a = 0 then 0.0 else float_of_int t.misses /. float_of_int a
end
