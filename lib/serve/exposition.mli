(** The server's Prometheus exposition: every family [GET /metrics]
    serves, in fixed order.

    A thin mapping from {!Metrics.snapshot} (plus the live gauges the
    snapshot doesn't carry) into the {!Metrics_http.Expo} model.  Pure —
    the HTTP layer calls it under the server's core lock and writes the
    string out. *)

val render :
  snapshot:Metrics.snapshot ->
  latency:Metrics.hist_snapshot list ->
  queue_depth:int ->
  inflight:int ->
  accept_pauses:int ->
  draining:bool ->
  string
(** [queue_depth] and [inflight] are the instantaneous gauges (the
    snapshot only records their high-water marks); [accept_pauses]
    counts the episodes in which a listener stopped accepting for want
    of descriptors (kept out of the snapshot, so the [stats] RPC bytes do
    not depend on the host's descriptor limit); [draining] is true
    between a shutdown request and the last queued response. *)
