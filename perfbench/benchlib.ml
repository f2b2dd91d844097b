(* The benchmark's own arithmetic, kept free of any system under test so
   the self-tests (test_benchlib.ml) can pin it down: percentile
   selection, span self time, open-loop lateness, the sustained-rate
   ladder climb and the one-line JSON result. *)

(* ---- percentiles ---------------------------------------------------- *)

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   sample at or below it.  [p] in (0, 100]. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Benchlib.percentile: empty sample";
  if not (p > 0.0 && p <= 100.0) then invalid_arg "Benchlib.percentile: p out of (0, 100]";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

(* Classic median: the middle sample, or the mean of the two middle ones. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Benchlib.median: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Samples strictly above the nearest-rank [p]th percentile: a percentile
   is only reported as supported when at least ten samples lie beyond it. *)
let beyond p xs =
  let v = percentile p xs in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 xs

(* ---- spans ---------------------------------------------------------- *)

type span = { id : int; name : string; parent : int; start : float; stop : float }
(** [parent] is the id of the enclosing span, or -1 for a root. *)

type recorder = {
  clock : unit -> float;
  mutable next_id : int;
  mutable stack : int list;
  mutable closed : span list;
}

let recorder clock = { clock; next_id = 0; stack = []; closed = [] }

(* Run [f] inside a span named [name]; the span closes (and is kept) even
   when [f] raises. *)
let with_span r name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  r.stack <- id :: r.stack;
  let start = r.clock () in
  let close () =
    let stop = r.clock () in
    r.stack <- List.tl r.stack;
    r.closed <- { id; name; parent; start; stop } :: r.closed
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* Closed spans in id (opening) order. *)
let spans r = List.sort (fun a b -> compare a.id b.id) r.closed

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that its
   direct children cover.  Returned in the order of [spans]. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Total self time and total duration of the spans called [name]. *)
let sum_self spans name =
  List.fold_left
    (fun acc (s, self) -> if s.name = name then acc +. self else acc)
    0.0 (self_times spans)

let sum_duration spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0.0 spans

(* ---- open loop ------------------------------------------------------ *)

(* Request [i] of a schedule at [rate] per second starting at [start],
   sent in groups of [group] requests due together, is due at
   [start + g / rate] where [g] is the index of its group's first
   request. *)
let due ?(group = 1) ~start ~rate i = start +. (float_of_int (i / group * group) /. rate)

(* How late the generator sent each request: send time minus due time,
   never negative (a request sent early is on time). *)
let lateness ?group ~start ~rate sent =
  Array.mapi (fun i t -> Float.max 0.0 (t -. due ?group ~start ~rate i)) sent

(* Quantile [q] in (0, 1] of a histogram given as cumulative counts per
   upper bound, ascending (the last bound may be infinity), interpolating
   linearly inside the bucket that holds it; the first bucket starts at 0.
   [None] for an empty histogram.  A quantile in the overflow bucket reads
   as the last finite bound. *)
let hist_quantile q buckets =
  let total = match List.rev buckets with (_, n) :: _ -> n | [] -> 0 in
  if total = 0 then None
  else
    let target = q *. float_of_int total in
    let rec go lo prev = function
      | [] -> Some lo
      | (hi, cum) :: rest ->
          if float_of_int cum >= target then
            if Float.is_finite hi then
              let share = (target -. float_of_int prev) /. float_of_int (max 1 (cum - prev)) in
              Some (lo +. (share *. (hi -. lo)))
            else Some lo
          else go (if Float.is_finite hi then hi else lo) cum rest
    in
    go 0.0 0 buckets

(* ---- sustained-rate ladder ----------------------------------------- *)

(* Fixed rungs [base * step^k], k = 0 .. count-1. *)
let rungs ~base ~step ~count = Array.init count (fun k -> base *. (step ** float_of_int k))

type probe = {
  offered : int;  (** requests scheduled *)
  succeeded : int;  (** answered without error and byte-identical *)
  p99_ms : float;  (** nearest-rank p99 of latency from the due time *)
  backlog_start : int;  (** due but unanswered, a quarter into the window *)
  backlog_end : int;  (** due but unanswered, at the end of the window *)
  rate : float;  (** offered rate, per second *)
}

(* A rung holds when p99 meets the limit, at least 99% of what was
   offered succeeded, and the backlog did not grow: at the end of the
   window no more requests are outstanding than twice the early backlog
   or than the latency limit lets be in flight at this rate. *)
let rung_holds ~limit_ms p =
  let allowed_in_flight = int_of_float (Float.ceil (p.rate *. limit_ms /. 1000.0)) in
  p.p99_ms <= limit_ms
  && float_of_int p.succeeded >= 0.99 *. float_of_int p.offered
  && p.backlog_end <= max (2 * p.backlog_start) allowed_in_flight

(* The ladder climbed from the bottom: rungs 0, 1, ... are probed in turn
   until one fails or [count] is reached.  The result is the rung just
   below the first failing one ([None] when rung 0 fails).  Holding is not
   assumed monotone in the rate, so this is the highest rung of the
   unbroken holding run that starts at rung 0, not necessarily the
   highest holding rung on the ladder. *)
let climb ~count holds =
  let rec go k = if k < count && holds k then go (k + 1) else k - 1 in
  let k = go 0 in
  if k < 0 then None else Some k

(* ---- result line ---------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Shortest decimal that reads back as the same float, so every digit the
   measurement has is kept.  Non-finite values are not JSON. *)
let json_number v =
  if not (Float.is_finite v) then invalid_arg "Benchlib.json_number: not finite";
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec v in
    if prec >= 17 || float_of_string s = v then s else go (prec + 1)
  in
  go 1

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_number value)
          (json_string unit))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " m)
