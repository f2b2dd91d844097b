(** Sealed files: a body plus a one-line length and Adler-32 trailer,
    and the whole-file IO around them.

    {v
      <body bytes>
      <magic>-end <body_len> <adler32 of body>
    v}

    The trace archive ([Sampling.Trace_io], magic ["fuzzytrace"]) and
    the result store's entry files ([Store.Cas], magic ["fuzzystore"])
    are sealed this way; the serve wire format checksums its frames with
    the same {!adler32}.  A truncated, grown or bit-flipped file is
    rejected by {!unseal} before any body byte is interpreted. *)

val adler32 : string -> int
(** Adler-32 of the whole string (RFC 1950), in [0, 2^32). *)

val seal : magic:string -> string -> string
(** [seal ~magic body] is [body] followed by its trailer line.  [body]
    must be empty or end in a newline (both sealed formats are
    line-oriented), so that the trailer is a line of its own; otherwise
    {!unseal} reports a missing trailer. *)

val unseal : magic:string -> string -> (string, string) result
(** The body of sealed content, or the reason it is not one: empty,
    no final newline, no [<magic>-end] trailer (a file sealed under
    another magic included), a body length other than the declared one,
    or a checksum mismatch. *)

val write_file : string -> string -> unit
(** [write_file path content] writes a temp file in [path]'s directory
    and renames it over [path], so an interrupted write never leaves a
    partial file at [path].  The temp file is removed on failure and the
    exception (normally [Sys_error]) re-raised. *)

val read_file : string -> string
(** The whole file.  Raises [Sys_error] if it cannot be opened. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents (mode 0o755); existing
    ones are fine.  Raises [Sys_error] on failure. *)
