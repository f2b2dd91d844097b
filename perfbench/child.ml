(* `repro serve` child processes: spawn, wait for health, scrape, drain
   and reap.  Every server this module starts is reaped before the
   benchmark exits, on every path ([reap_all] runs at exit). *)

let now = Unix.gettimeofday

(* Set once by the entry point: the repro binary built beside this one. *)
let repro_exe = ref "repro.exe"

type server = {
  pid : int;
  socket : string;
  log : string;
  started : float;  (** spawn time *)
  mutable ready : float;  (** first health OK *)
  mutable reaped : bool;
}

let live : server list ref = ref []

let fail fmt = Printf.ksprintf failwith fmt

let alive s =
  (not s.reaped)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> true
  | _ ->
      s.reaped <- true;
      false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      s.reaped <- true;
      false

let address s = Serve.Server.Unix_socket s.socket

(* One blocking request on a fresh connection. *)
let call s req =
  match Serve.Client.with_connection (address s) (fun c -> Serve.Client.call c req) with
  | Ok r -> r
  | Error m -> fail "request to server %d failed: %s" s.pid m
  | exception Unix.Unix_error (e, _, _) ->
      fail "server %d unreachable: %s" s.pid (Unix.error_message e)

let stats s =
  match call s Serve.Protocol.Stats with
  | Serve.Protocol.Stats_snapshot snap -> snap
  | r -> fail "stats answered %s" (Serve.Protocol.render_response r)

(* Start `repro serve --quick --jobs JOBS --seed SEED` (JOBS 2 unless
   given) on the Unix socket [socket] (relative to the working directory)
   and return once it answers health, polling every millisecond so the
   start-up time is resolved finely. *)
let spawn ?store ?(metrics = false) ?(jobs = 2) ~seed socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let args =
    [ !repro_exe; "serve"; "--quick"; "--jobs"; string_of_int jobs ]
    @ [ "--seed"; string_of_int seed; "--socket"; socket ]
    @ (match store with Some d -> [ "--store"; d ] | None -> [])
    @ if metrics then [ "--metrics-port"; "0" ] else []
  in
  let log = socket ^ ".log" in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let started = now () in
  let pid = Unix.create_process !repro_exe (Array.of_list args) null null err in
  Unix.close null;
  Unix.close err;
  let s = { pid; socket; log; started; ready = started; reaped = false } in
  live := s :: !live;
  let deadline = started +. 60.0 in
  let rec wait () =
    if not (alive s) then fail "server exited during start-up (see %s)" log;
    if now () > deadline then fail "server did not become healthy within 60 s";
    match Serve.Client.connect (address s) with
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.sleepf 0.001;
        wait ()
    | c -> (
        let r = Serve.Client.call c Serve.Protocol.Health in
        Serve.Client.close c;
        match r with
        | Ok (Serve.Protocol.Health_ok _) -> now ()
        | _ ->
            Unix.sleepf 0.001;
            wait ())
  in
  s.ready <- wait ();
  s

let ready_s s = s.ready -. s.started

(* Peak resident set of the server so far, in MB ([VmHWM]). *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> fail "no VmHWM in /proc/%d/status" pid
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let self_peak_rss_mb () = peak_rss_mb (Unix.getpid ())

(* CPU time the process has used so far, user plus system, summed over
   all its threads, in seconds: fields 14 and 15 of /proc/PID/stat, in
   clock ticks of 1/100 s (Linux's USER_HZ). *)
let cpu_s pid =
  let line = In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  (* The command name (field 2) may hold spaces; fields 3.. follow its ')'. *)
  let from = String.rindex line ')' + 2 in
  match String.split_on_char ' ' (String.sub line from (String.length line - from)) with
  | _state :: fields when List.length fields >= 12 ->
      let tick i = float_of_string (List.nth fields i) in
      (tick 10 +. tick 11) /. 100.0
  | _ -> fail "unreadable /proc/%d/stat" pid

let reap s =
  let deadline = now () +. 60.0 in
  while alive s && now () < deadline do
    Unix.sleepf 0.005
  done;
  if alive s then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    s.reaped <- true
  end;
  live := List.filter (fun x -> x.pid <> s.pid) !live

(* Graceful drain: the Shutdown RPC, then wait for the process to exit. *)
let shutdown s =
  (match call s Serve.Protocol.Shutdown with
  | Serve.Protocol.Shutdown_ack -> ()
  | r -> fail "shutdown answered %s" (Serve.Protocol.render_response r));
  reap s

let reap_all () =
  List.iter
    (fun s ->
      if alive s then (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap s)
    !live

(* ---- HTTP /metrics ---------------------------------------------------- *)

let metrics_port s =
  let deadline = now () +. 10.0 in
  let marker = "metrics listening on http://127.0.0.1:" in
  let rec look () =
    let text = In_channel.with_open_bin s.log In_channel.input_all in
    let rec scan i =
      if i + String.length marker > String.length text then None
      else if String.sub text i (String.length marker) = marker then
        let from = i + String.length marker in
        Scanf.sscanf (String.sub text from (String.length text - from)) "%d" Option.some
      else scan (i + 1)
    in
    match scan 0 with
    | Some p -> p
    | None when now () < deadline ->
        Unix.sleepf 0.005;
        look ()
    | None -> fail "server did not report its metrics port"
  in
  look ()

let http_get port path =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let b = Buffer.create 8192 and chunk = Bytes.create 8192 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            drain ()
      in
      drain ();
      let text = Buffer.contents b in
      let rec body i =
        if i + 4 > String.length text then fail "malformed HTTP response"
        else if String.sub text i 4 = "\r\n\r\n" then String.sub text (i + 4) (String.length text - i - 4)
        else body (i + 1)
      in
      body 0)

(* Cumulative bucket counts of the per-verb latency histogram, keyed by
   (verb, upper bound in seconds; infinity for +Inf). *)
let latency_buckets exposition =
  let prefix = "repro_request_duration_seconds_bucket{kind=\"" in
  let pl = String.length prefix in
  String.split_on_char '\n' exposition
  |> List.filter_map (fun line ->
         if String.length line > pl && String.sub line 0 pl = prefix then
           Scanf.sscanf (String.sub line pl (String.length line - pl)) "%[^\"]\",le=\"%[^\"]\"} %d"
             (fun kind le n ->
               let bound = if le = "+Inf" then infinity else float_of_string le in
               Some ((kind, bound), n))
         else None)
