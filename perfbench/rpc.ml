(* The load generator: one process, a few pipelined non-blocking
   connections, requests sent on a fixed schedule (open loop) and every
   response checked against the first response seen for the same request.

   Request [i] goes out on connection [i mod n] when it falls due; the
   server answers each connection in request order, so responses are
   matched to requests by a per-connection FIFO.  Latency runs from the
   due time, not the send time, so a stalled generator cannot hide a
   slow server; how late the generator itself ran is reported apart. *)

let now = Unix.gettimeofday

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable in_lo : int;  (** first unparsed byte *)
  mutable in_hi : int;  (** end of buffered bytes *)
  mutable out : string;  (** bytes not yet written *)
  pending : int Queue.t;  (** request indices awaiting a response *)
  mutable eof : bool;
}

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  {
    fd;
    inbuf = Bytes.create 65536;
    in_lo = 0;
    in_hi = 0;
    out = "";
    pending = Queue.create ();
    eof = false;
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let flush c =
  let rec go () =
    if c.out <> "" then
      match Unix.write_substring c.fd c.out 0 (String.length c.out) with
      | n ->
          c.out <- String.sub c.out n (String.length c.out - n);
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          c.out <- "";
          c.eof <- true
  in
  go ()

let send c idx frame =
  Queue.push idx c.pending;
  c.out <- c.out ^ frame;
  flush c

(* Read what is available and hand each complete response payload (or a
   framing error) to [k] with its request index. *)
let receive c k =
  if c.in_hi = Bytes.length c.inbuf then begin
    (* compact, then grow if still full *)
    let live = c.in_hi - c.in_lo in
    let buf = if live * 2 > Bytes.length c.inbuf then Bytes.create (2 * Bytes.length c.inbuf) else c.inbuf in
    Bytes.blit c.inbuf c.in_lo buf 0 live;
    c.inbuf <- buf;
    c.in_lo <- 0;
    c.in_hi <- live
  end;
  (match Unix.read c.fd c.inbuf c.in_hi (Bytes.length c.inbuf - c.in_hi) with
  | 0 -> c.eof <- true
  | n -> c.in_hi <- c.in_hi + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.eof <- true);
  let rec parse () =
    let avail = c.in_hi - c.in_lo in
    if avail >= Serve.Wire.header_len then
      let header = Bytes.sub_string c.inbuf c.in_lo Serve.Wire.header_len in
      match Serve.Wire.decode_header header with
      | Error e ->
          c.eof <- true;
          if not (Queue.is_empty c.pending) then
            k (Queue.pop c.pending) (Error (Serve.Wire.error_to_string e))
      | Ok (len, _) ->
          let total = Serve.Wire.header_len + len in
          if avail >= total then begin
            let frame = Bytes.sub_string c.inbuf c.in_lo total in
            c.in_lo <- c.in_lo + total;
            (match Queue.take_opt c.pending with
            | Some idx ->
                k idx
                  (Result.map_error Serve.Wire.error_to_string (Serve.Wire.decode frame))
            | None -> c.eof <- true);
            parse ()
          end
  in
  parse ();
  if c.in_lo = c.in_hi then begin
    c.in_lo <- 0;
    c.in_hi <- 0
  end

(* ---- response checking ---------------------------------------------- *)

type verdict = Good | Refused | Bad

(* Keyed by the encoded request; responses must repeat byte for byte
   except [stats], whose counters move and which need only decode as a
   snapshot. *)
type registry = (string, string) Hashtbl.t

let registry () : registry = Hashtbl.create 64

let judge (reg : registry) ~request payload =
  let decoded () = Serve.Protocol.decode_response payload in
  match Hashtbl.find_opt reg request with
  | Some first when first = payload -> Good
  | first -> (
      match decoded () with
      | Ok (Serve.Protocol.Error { code; _ }) -> (
          match code with
          | Serve.Protocol.Overloaded | Serve.Protocol.Timeout | Serve.Protocol.Busy
          | Serve.Protocol.Rate_limited | Serve.Protocol.Too_large ->
              Refused
          | _ -> Bad)
      | Ok (Serve.Protocol.Stats_snapshot _) -> Good
      | Ok _ -> (
          match first with
          | None ->
              Hashtbl.replace reg request payload;
              Good
          | Some _ -> Bad)
      | Error _ -> Bad)

(* ---- open loop ------------------------------------------------------- *)

type result = {
  n : int;
  rate : float;
  group : int;  (** requests due together *)
  start : float;
  sent_at : float array;  (** nan if never sent *)
  latency : float array;  (** seconds from due to response; nan if none *)
  verdict : verdict option array;  (** [None] = lost *)
  backlog_start : int;
  backlog_end : int;
}

(* Send [n] requests at [rate] per second over [conns]: request [i] is
   [frames.(kind i)] (its key in [reg] is [keys.(kind i)]).  Returns once
   every response is in, or 30 s after the last request fell due (the
   rest count as lost). *)
let open_loop ?(group = 1) ~conns ~reg ~frames ~keys ~kind ~rate n =
  let nconn = Array.length conns in
  let sent_at = Array.make n Float.nan and latency = Array.make n Float.nan in
  let verdict = Array.make n None in
  let start = now () +. 0.001 in
  let due i = Benchlib.due ~group ~start ~rate i in
  let next = ref 0 and answered = ref 0 in
  let backlog_start = ref (-1) and backlog_end = ref (-1) in
  let quarter = due (n / 4) and last = due (max 0 (n - 1)) in
  let on_response t idx r =
    incr answered;
    latency.(idx) <- t -. due idx;
    verdict.(idx) <-
      Some
        (match r with
        | Ok payload -> judge reg ~request:keys.(kind idx) payload
        | Error _ -> Bad)
  in
  let finished () =
    !answered >= n || Array.for_all (fun c -> c.eof) conns || now () > last +. 30.0
  in
  while not (finished ()) do
    let t = now () in
    while !next < n && due !next <= t do
      let i = !next in
      sent_at.(i) <- t;
      send conns.(i mod nconn) i frames.(kind i);
      incr next
    done;
    (* Due-but-unanswered, sampled once a quarter of the window has
       fallen due and again when the last request has. *)
    let backlog () = !next - !answered in
    if !backlog_start < 0 && t >= quarter then backlog_start := backlog ();
    if !backlog_end < 0 && t >= last && !next >= n then backlog_end := backlog ();
    let wait = if !next < n then Float.max 0.0 (due !next -. now ()) else 0.05 in
    let readers = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let writers = Array.fold_left (fun acc c -> if c.out <> "" then c.fd :: acc else acc) [] conns in
    match Unix.select readers writers [] wait with
    | r, w, _ ->
        Array.iter (fun c -> if List.memq c.fd w then flush c) conns;
        let t = now () in
        Array.iter (fun c -> if List.memq c.fd r then receive c (on_response t)) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  {
    n;
    rate;
    group;
    start;
    sent_at;
    latency;
    verdict;
    backlog_start = max 0 !backlog_start;
    backlog_end = max 0 !backlog_end;
  }

(* Every request due at once: a pipelined burst, for set-up and for the
   cold-store workload. *)
let burst ~conns ~reg ~frames ~keys ~kind n = open_loop ~conns ~reg ~frames ~keys ~kind ~rate:1e9 n

(* ---- accounting ------------------------------------------------------- *)

type tally = { sent : int; succeeded : int; failed : int; refused : int; lost : int }

let tally r =
  Array.fold_left
    (fun t v ->
      match v with
      | Some Good -> { t with succeeded = t.succeeded + 1 }
      | Some Refused -> { t with refused = t.refused + 1 }
      | Some Bad -> { t with failed = t.failed + 1 }
      | None -> { t with lost = t.lost + 1 })
    { sent = Array.fold_left (fun a t -> if Float.is_nan t then a else a + 1) 0 r.sent_at; succeeded = 0; failed = 0; refused = 0; lost = 0 }
    r.verdict

(* Latencies of the requests in [lo, hi) that succeeded, in seconds. *)
let good_latencies ?(lo = 0) ?hi r =
  let hi = Option.value hi ~default:r.n in
  let acc = ref [] in
  for i = hi - 1 downto lo do
    if r.verdict.(i) = Some Good then acc := r.latency.(i) :: !acc
  done;
  Array.of_list !acc

let lateness r =
  let sent = List.filter (fun t -> not (Float.is_nan t)) (Array.to_list r.sent_at) in
  Benchlib.lateness ~group:r.group ~start:r.start ~rate:r.rate (Array.of_list sent)
