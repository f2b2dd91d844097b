(* A sealed file is its body followed by one trailer line,

     <magic>-end <body_len> <adler32 of body>\n

   so a truncated, grown or bit-flipped file is caught before any body
   byte is interpreted.  The trace archive ("fuzzytrace") and the store's
   entry files ("fuzzystore") are both sealed this way; the serve wire
   frames share only the checksum. *)

(* Adler-32 (RFC 1950): two running sums mod 65521. *)
let adler32 s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

let seal ~magic body =
  Printf.sprintf "%s%s-end %d %d\n" body magic (String.length body) (adler32 body)

(* One reason per corruption mode: missing/garbled trailer (foreign file
   or cut off mid-line), length mismatch (truncated or grown) and
   checksum mismatch (bit flips with the length intact). *)
let unseal ~magic content =
  let len = String.length content in
  if len = 0 then Error "empty file"
  else if content.[len - 1] <> '\n' then Error "truncated (no final newline)"
  else
    let trailer_start =
      match String.rindex_from_opt content (len - 2) '\n' with Some i -> i + 1 | None -> 0
    in
    let trailer = String.sub content trailer_start (len - 1 - trailer_start) in
    let body = String.sub content 0 trailer_start in
    let declared =
      match Scanf.sscanf trailer "%s@ %d %d%!" (fun tag n sum -> (tag, n, sum)) with
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None
      | tag, n, sum ->
          (* Only the exact rendering [seal] writes: no other magic, and no
             stray whitespace, sign or leading zero in the numbers. *)
          if tag = magic ^ "-end" && trailer = Printf.sprintf "%s %d %d" tag n sum then
            Some (n, sum)
          else None
    in
    match declared with
    | None -> Error "missing trailer"
    | Some (declared_len, declared_sum) ->
        if String.length body <> declared_len then
          Error
            (Printf.sprintf "truncated: %d body bytes, trailer declares %d" (String.length body)
               declared_len)
        else
          let sum = adler32 body in
          if sum <> declared_sum then
            Error (Printf.sprintf "checksum mismatch: %#x, trailer declares %#x" sum declared_sum)
          else Ok body

(* Write to a temp file in the target directory and rename it into
   place: a crash mid-write never leaves a partial file at [path], and a
   same-directory rename is atomic (no cross-filesystem copy). *)
let write_file path content =
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path) ("." ^ Filename.basename path) ".tmp"
  in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        output_string oc content;
        (* Flush here: [with_open_bin] closes with [close_out_noerr],
           which would hide a write error such as a full disk. *)
        flush oc);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (* A concurrent writer may create it between the check and here. *)
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end
