(* Counters, plus per-verb latency histograms for the HTTP /metrics
   exposition.  The counters are a deterministic function of the request
   history and travel over the binary stats RPC; the histograms are the
   one deliberately clock-fed surface (observed via Serve.Clock at the
   response sites) and are exposed ONLY through [latency] — they never
   enter [snapshot], so the stats RPC stays byte-identical run to run. *)

(* Fixed log-spaced bucket upper bounds, in seconds: 1 us doubling up to
   ~8.4 s (24 bounds + overflow).  Fixed at build time so dashboards and
   the golden exposition transcript never see a bucket layout change
   without a code change. *)
let bucket_bounds = Array.init 24 (fun i -> 1e-6 *. Float.of_int (1 lsl i))

type hist = {
  buckets : int array;  (* per-bucket counts; last entry = overflow *)
  mutable sum : float;
  mutable count : int;
}

type hist_snapshot = {
  hist_kind : string;
  hist_buckets : int array;
  hist_sum : float;
  hist_count : int;
}

type t = {
  mutable connections_accepted : int;
  mutable connections_active : int;
  mutable connections_refused : int;
  mutable requests_total : int;
  by_kind : (string, int) Hashtbl.t;
  mutable responses_ok : int;
  by_error : (string, int) Hashtbl.t;
  mutable batch_joined : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable store_hits : int;
  mutable store_misses : int;
  mutable store_writes : int;
  mutable store_corrupt : int;
  mutable queue_high_water : int;
  mutable inflight_high_water : int;
  mutable io_shards : int;
  by_shard : (string, int) Hashtbl.t;  (* "00".."NN" -> accepted *)
  mutable admission_admitted : int;
  mutable admission_rate_limited : int;
  mutable admission_too_large : int;
  mutable admission_breaker_rejected : int;
  mutable admission_breaker_trips : int;
  lat : (string, hist) Hashtbl.t;  (* verb -> latency histogram *)
}

type snapshot = {
  connections_accepted : int;
  connections_active : int;
  connections_refused : int;
  requests_total : int;
  requests_by_kind : (string * int) list;
  responses_ok : int;
  responses_error : (string * int) list;
  batch_joined : int;
  cache_hits : int;
  cache_misses : int;
  store_hits : int;
  store_misses : int;
  store_writes : int;
  store_corrupt : int;
  queue_high_water : int;
  inflight_high_water : int;
  io_shards : int;
  accepted_by_shard : (string * int) list;
  admission_admitted : int;
  admission_rate_limited : int;
  admission_too_large : int;
  admission_breaker_rejected : int;
  admission_breaker_trips : int;
}

let create () =
  {
    connections_accepted = 0;
    connections_active = 0;
    connections_refused = 0;
    requests_total = 0;
    by_kind = Hashtbl.create 8;
    responses_ok = 0;
    by_error = Hashtbl.create 8;
    batch_joined = 0;
    cache_hits = 0;
    cache_misses = 0;
    store_hits = 0;
    store_misses = 0;
    store_writes = 0;
    store_corrupt = 0;
    queue_high_water = 0;
    inflight_high_water = 0;
    io_shards = 1;
    by_shard = Hashtbl.create 8;
    admission_admitted = 0;
    admission_rate_limited = 0;
    admission_too_large = 0;
    admission_breaker_rejected = 0;
    admission_breaker_trips = 0;
    lat = Hashtbl.create 8;
  }

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let incr_accepted (t : t) = t.connections_accepted <- t.connections_accepted + 1
let incr_refused (t : t) = t.connections_refused <- t.connections_refused + 1
let set_active (t : t) n = t.connections_active <- n

let incr_request (t : t) ~kind =
  t.requests_total <- t.requests_total + 1;
  bump t.by_kind kind

let incr_ok (t : t) = t.responses_ok <- t.responses_ok + 1
let incr_error (t : t) ~code = bump t.by_error code
let incr_batch_joined (t : t) = t.batch_joined <- t.batch_joined + 1
let incr_cache_hit (t : t) = t.cache_hits <- t.cache_hits + 1
let incr_cache_miss (t : t) = t.cache_misses <- t.cache_misses + 1

(* The persistent store keeps its own monotonic counters; the server
   copies them in before every snapshot rather than mirroring each event. *)
let set_store (t : t) (c : Store.Cas.counters) =
  t.store_hits <- c.hits;
  t.store_misses <- c.misses;
  t.store_writes <- c.writes;
  t.store_corrupt <- c.corrupt

let set_io_shards (t : t) n = t.io_shards <- n

(* Two-digit keys so the sorted snapshot traversal is numeric order up
   to the practical shard ceiling. *)
let incr_shard_accept (t : t) ~shard = bump t.by_shard (Printf.sprintf "%02d" shard)

(* As with the store: lib/admission owns the running totals and the
   server copies them in before every snapshot. *)
let set_admission (t : t) ~admitted ~rate_limited ~too_large ~breaker_rejected
    ~breaker_trips =
  t.admission_admitted <- admitted;
  t.admission_rate_limited <- rate_limited;
  t.admission_too_large <- too_large;
  t.admission_breaker_rejected <- breaker_rejected;
  t.admission_breaker_trips <- breaker_trips

let observe_latency (t : t) ~kind ~seconds =
  let h =
    match Hashtbl.find_opt t.lat kind with
    | Some h -> h
    | None ->
        let h =
          { buckets = Array.make (Array.length bucket_bounds + 1) 0; sum = 0.0; count = 0 }
        in
        Hashtbl.replace t.lat kind h;
        h
  in
  (* A clock step backwards must not poison the histogram. *)
  let seconds = Float.max 0.0 seconds in
  let nbounds = Array.length bucket_bounds in
  let rec bucket i =
    if i >= nbounds then nbounds
    else if seconds <= bucket_bounds.(i) then i
    else bucket (i + 1)
  in
  let i = bucket 0 in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.sum <- h.sum +. seconds;
  h.count <- h.count + 1

let latency (t : t) =
  List.map
    (fun (kind, h) ->
      {
        hist_kind = kind;
        hist_buckets = Array.copy h.buckets;
        hist_sum = h.sum;
        hist_count = h.count;
      })
    (Stats.Det.hashtbl_bindings t.lat)

let observe_queue_depth (t : t) n =
  if n > t.queue_high_water then t.queue_high_water <- n

let observe_inflight (t : t) n =
  if n > t.inflight_high_water then t.inflight_high_water <- n

let snapshot (t : t) =
  {
    connections_accepted = t.connections_accepted;
    connections_active = t.connections_active;
    connections_refused = t.connections_refused;
    requests_total = t.requests_total;
    (* Key-sorted traversal (D003): the snapshot must not depend on
       hash-bucket order. *)
    requests_by_kind = Stats.Det.hashtbl_bindings t.by_kind;
    responses_ok = t.responses_ok;
    responses_error = Stats.Det.hashtbl_bindings t.by_error;
    batch_joined = t.batch_joined;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    store_hits = t.store_hits;
    store_misses = t.store_misses;
    store_writes = t.store_writes;
    store_corrupt = t.store_corrupt;
    queue_high_water = t.queue_high_water;
    inflight_high_water = t.inflight_high_water;
    io_shards = t.io_shards;
    accepted_by_shard = Stats.Det.hashtbl_bindings t.by_shard;
    admission_admitted = t.admission_admitted;
    admission_rate_limited = t.admission_rate_limited;
    admission_too_large = t.admission_too_large;
    admission_breaker_rejected = t.admission_breaker_rejected;
    admission_breaker_trips = t.admission_breaker_trips;
  }

let render (s : snapshot) =
  let b = Buffer.create 512 in
  let line k v = Printf.bprintf b "  %-28s %d\n" k v in
  Buffer.add_string b "serve metrics\n";
  line "connections.accepted" s.connections_accepted;
  line "connections.active" s.connections_active;
  line "connections.refused" s.connections_refused;
  line "requests.total" s.requests_total;
  List.iter (fun (k, v) -> line ("requests." ^ k) v) s.requests_by_kind;
  line "responses.ok" s.responses_ok;
  List.iter (fun (k, v) -> line ("responses.error." ^ k) v) s.responses_error;
  line "batch.joined" s.batch_joined;
  line "cache.hits" s.cache_hits;
  line "cache.misses" s.cache_misses;
  line "store.hits" s.store_hits;
  line "store.misses" s.store_misses;
  line "store.writes" s.store_writes;
  line "store.corrupt" s.store_corrupt;
  line "queue.high_water" s.queue_high_water;
  line "inflight.high_water" s.inflight_high_water;
  line "io.shards" s.io_shards;
  List.iter (fun (k, v) -> line ("connections.shard." ^ k) v) s.accepted_by_shard;
  line "admission.admitted" s.admission_admitted;
  line "admission.rate_limited" s.admission_rate_limited;
  line "admission.too_large" s.admission_too_large;
  line "admission.breaker_rejected" s.admission_breaker_rejected;
  line "admission.breaker_trips" s.admission_breaker_trips;
  Buffer.contents b
