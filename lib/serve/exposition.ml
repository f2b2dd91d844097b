(* Map the server's metrics into the Prometheus exposition model.

   One function, one shape: every family the endpoint serves is listed
   here, so the golden transcript in test/golden/ and the format lint in
   scripts/check_metrics.sh both pin this module's output.  Names use
   the narrowed [a-z_:]+ charset Expo enforces (no digits — per-shard
   and per-verb identity travels in labels). *)

module Expo = Metrics_http.Expo

let counter name help v =
  {
    Expo.name;
    help;
    kind = Expo.Counter;
    samples = [ { Expo.labels = []; value = Expo.Value (float_of_int v) } ];
  }

let gauge name help v =
  {
    Expo.name;
    help;
    kind = Expo.Gauge;
    samples = [ { Expo.labels = []; value = Expo.Value (float_of_int v) } ];
  }

let labeled_counter name help ~label pairs =
  {
    Expo.name;
    help;
    kind = Expo.Counter;
    samples =
      List.map
        (fun (k, v) ->
          { Expo.labels = [ (label, k) ]; value = Expo.Value (float_of_int v) })
        pairs;
  }

let render ~(snapshot : Metrics.snapshot) ~latency ~queue_depth ~inflight
    ~accept_pauses ~draining =
  let s = snapshot in
  let families =
    [
      counter "repro_connections_accepted_total"
        "Connections accepted across all IO shards." s.connections_accepted;
      gauge "repro_connections_active" "Currently open client sessions."
        s.connections_active;
      counter "repro_connections_refused_total"
        "Connections turned away at the max-connections cap."
        s.connections_refused;
      counter "repro_accept_paused_total"
        "Times a listener paused accepting for want of descriptors or socket memory."
        accept_pauses;
      counter "repro_requests_total" "Requests decoded and admitted to routing."
        s.requests_total;
      labeled_counter "repro_requests_kind_total"
        "Requests decoded, by verb." ~label:"kind" s.requests_by_kind;
      counter "repro_responses_ok_total" "Successful responses sent."
        s.responses_ok;
      labeled_counter "repro_responses_error_total"
        "Error responses sent, by error code." ~label:"code" s.responses_error;
      counter "repro_batch_joined_total"
        "Requests answered by joining an identical in-flight computation."
        s.batch_joined;
      counter "repro_cache_hits_total"
        "Requests served from the in-memory analysis cache." s.cache_hits;
      counter "repro_cache_misses_total"
        "Requests that missed the in-memory analysis cache." s.cache_misses;
      counter "repro_store_hits_total"
        "Requests served from the persistent result store." s.store_hits;
      counter "repro_store_misses_total"
        "Persistent-store lookups that found no valid entry." s.store_misses;
      counter "repro_store_writes_total"
        "New entries persisted to the result store." s.store_writes;
      counter "repro_store_corrupt_total"
        "Persistent-store entries quarantined as invalid." s.store_corrupt;
      gauge "repro_queue_depth" "Heavy requests waiting in the bounded queue."
        queue_depth;
      gauge "repro_queue_high_water"
        "Deepest the bounded request queue has been." s.queue_high_water;
      gauge "repro_inflight" "Pool tasks currently outstanding." inflight;
      gauge "repro_inflight_high_water"
        "Most pool tasks outstanding at once." s.inflight_high_water;
      gauge "repro_io_shards" "Accept/IO domains this server runs." s.io_shards;
      labeled_counter "repro_shard_accepted_total"
        "Connections assigned, by two-digit IO shard id." ~label:"shard"
        s.accepted_by_shard;
      counter "repro_admission_admitted_total"
        "Heavy requests past every admission gate." s.admission_admitted;
      counter "repro_admission_rate_limited_total"
        "Requests refused with an empty peer token bucket."
        s.admission_rate_limited;
      counter "repro_admission_too_large_total"
        "Requests refused as over the size budget." s.admission_too_large;
      counter "repro_admission_breaker_rejected_total"
        "Requests refused by an open peer circuit breaker."
        s.admission_breaker_rejected;
      counter "repro_admission_breaker_trips_total"
        "Times any peer circuit breaker opened." s.admission_breaker_trips;
      gauge "repro_draining"
        "One while a graceful shutdown is draining queued work, else zero."
        (if draining then 1 else 0);
      {
        Expo.name = "repro_request_duration_seconds";
        help = "Request wall-clock latency by verb, request decode to response.";
        kind = Expo.Histogram;
        samples =
          List.map
            (fun (h : Metrics.hist_snapshot) ->
              {
                Expo.labels = [ ("kind", h.hist_kind) ];
                value =
                  Expo.Hist
                    {
                      Expo.bounds = Metrics.bucket_bounds;
                      counts = h.hist_buckets;
                      sum = h.hist_sum;
                      count = h.hist_count;
                    };
              })
            latency;
      };
    ]
  in
  Expo.render families
