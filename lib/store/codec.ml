(* Canonical serialization for store keys and payloads.

   The key is {!Fuzzy.Analysis.key} — the one cache key, shared with the
   in-memory tier — behind two header lines: the entry format and the
   code-version stamp, so entries written by other code read as foreign.

   The payload persists only the expensive parts of an analysis — the
   sample run (as a Trace_io v2 archive, reusing its checksummed format
   wholesale) and the cross-validated RE curve.  Everything else in
   {!Analysis.t} is a cheap deterministic fold over the run and is
   rebuilt on load by {!Analysis.of_parts}. *)

let header = Printf.sprintf "fuzzykey %d\nstamp %s\n" Version.entry_format Version.code_stamp

let canonical_key config name = header ^ Fuzzy.Analysis.key config name

let parse_key ~jobs key =
  let hlen = String.length header in
  if String.starts_with ~prefix:header key then
    Fuzzy.Analysis.of_key ~jobs (String.sub key hlen (String.length key - hlen))
  else None

(* ----------------------------- payloads ----------------------------- *)

let encode_entry (a : Fuzzy.Analysis.t) =
  let archive = Sampling.Trace_io.to_string a.Fuzzy.Analysis.run in
  let curve = a.Fuzzy.Analysis.curve in
  let n = Array.length curve.Rtree.Cv.k_values in
  let b = Buffer.create (String.length archive + (n * 48) + 128) in
  Printf.bprintf b "fuzzyresult %d\n" Version.entry_format;
  Printf.bprintf b "curve %d %h\n" n curve.Rtree.Cv.variance;
  for i = 0 to n - 1 do
    Printf.bprintf b "%d %h %h\n" curve.Rtree.Cv.k_values.(i) curve.Rtree.Cv.e.(i)
      curve.Rtree.Cv.re.(i)
  done;
  Printf.bprintf b "run %d\n" (String.length archive);
  Buffer.add_string b archive;
  Buffer.contents b

let decode_entry payload =
  (* Cursor over [payload]; the embedded trace archive is length-prefixed
     raw bytes, so everything reads by explicit position, not by line
     splitting. *)
  let pos = ref 0 in
  let fail reason = raise (Failure ("store payload: " ^ reason)) in
  let next_line () =
    match String.index_from_opt payload !pos '\n' with
    | None -> fail "truncated line"
    | Some nl ->
        let line = String.sub payload !pos (nl - !pos) in
        pos := nl + 1;
        line
  in
  match
    let magic = next_line () in
    if magic <> Printf.sprintf "fuzzyresult %d" Version.entry_format then
      fail "bad payload magic";
    let n, variance =
      try Scanf.sscanf (next_line ()) "curve %d %h%!" (fun n v -> (n, v))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad curve header"
    in
    if n < 0 || n > 100_000 then fail "implausible curve length";
    let k_values = Array.make n 0 in
    let e = Array.make n 0.0 in
    let re = Array.make n 0.0 in
    for i = 0 to n - 1 do
      try
        Scanf.sscanf (next_line ()) "%d %h %h%!" (fun k ev rv ->
            k_values.(i) <- k;
            e.(i) <- ev;
            re.(i) <- rv)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad curve point"
    done;
    let archive_len =
      try Scanf.sscanf (next_line ()) "run %d%!" (fun l -> l)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> fail "bad run header"
    in
    if archive_len < 0 || !pos + archive_len <> String.length payload then
      fail "run length disagrees with payload size";
    let archive = String.sub payload !pos archive_len in
    let run = Sampling.Trace_io.of_string ~label:"<store entry>" archive in
    (run, { Rtree.Cv.k_values; e; re; variance })
  with
  | result -> Ok result
  | exception Failure reason -> Error reason
  | exception Scanf.Scan_failure reason -> Error reason
  | exception Invalid_argument reason -> Error reason
