type stream = {
  mutable last_line : int;  (* -1 = free slot *)
  mutable confirmed : bool;
  mutable stamp : int;
}

type t = {
  slots : stream array;
  degree : int;
  line_bytes : int;
  mutable tick : int;
  mutable confirmed_total : int;
  mutable issued : int;
}

let create ?(streams = 8) ?(degree = 4) ?(line_bytes = 64) () =
  if streams <= 0 || degree <= 0 then invalid_arg "Prefetch.create: bad parameters";
  {
    slots = Array.init streams (fun _ -> { last_line = -1; confirmed = false; stamp = 0 });
    degree;
    line_bytes;
    tick = 0;
    confirmed_total = 0;
    issued = 0;
  }

(* Does a miss on [line] extend stream [s]?  Allow a gap of one line so
   interleaved accesses (two 64B halves of a 128B fetch, or a second
   stream) do not break detection. *)
let extends s line = s.last_line >= 0 && line > s.last_line && line - s.last_line <= 2

let on_miss t addr ~install =
  let line = addr / t.line_bytes in
  t.tick <- t.tick + 1;
  let n = Array.length t.slots in
  let i = ref 0 in
  while !i < n && not (extends t.slots.(!i) line) do
    incr i
  done;
  if !i < n then begin
    let s = t.slots.(!i) in
    s.last_line <- line;
    s.stamp <- t.tick;
    if not s.confirmed then begin
      s.confirmed <- true;
      t.confirmed_total <- t.confirmed_total + 1
    end;
    for k = 0 to t.degree - 1 do
      install ((line + 1 + k) * t.line_bytes)
    done;
    t.issued <- t.issued + t.degree
  end
  else begin
    (* Allocate a tracker, evicting the least recently advanced. *)
    let victim = ref 0 in
    for j = 1 to n - 1 do
      if t.slots.(j).stamp < t.slots.(!victim).stamp then victim := j
    done;
    let v = t.slots.(!victim) in
    v.last_line <- line;
    v.confirmed <- false;
    v.stamp <- t.tick
  end

let confirmed_streams t = t.confirmed_total

let reset t =
  Array.iter
    (fun s ->
      s.last_line <- -1;
      s.confirmed <- false;
      s.stamp <- 0)
    t.slots;
  t.tick <- 0;
  t.confirmed_total <- 0;
  t.issued <- 0
