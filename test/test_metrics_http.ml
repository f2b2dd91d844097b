(* lib/metrics_http + the serve-side latency histograms: the exposition
   renderer's exact bytes and invariants (cumulative buckets, +Inf
   terminator, label escaping, name charset), the HTTP/1.0 request
   parser and response writer, and the fixed log-spaced bucket layout
   that Serve.Metrics.observe_latency fills. *)

module E = Metrics_http.Expo
module H = Metrics_http.Http
module M = Serve.Metrics

(* ------------------------------- names ------------------------------ *)

let test_valid_name () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid: " ^ n) true (E.valid_name n))
    [ "repro_requests_total"; "a"; "a_b:c"; "____" ];
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid: " ^ n) false (E.valid_name n))
    [ ""; "Repro"; "repro2"; "repro-x"; "repro.x"; "repro x" ]

(* ------------------------------ render ------------------------------ *)

let counter ?(labels = []) name help v =
  { E.name; help; kind = E.Counter; samples = [ { E.labels; value = E.Value v } ] }

let test_render_scalar () =
  let got =
    E.render
      [
        counter "repro_requests_total" "Requests decoded." 42.0;
        {
          E.name = "repro_queue_depth";
          help = "Waiting work.";
          kind = E.Gauge;
          samples = [ { E.labels = []; value = E.Value 0.0 } ];
        };
      ]
  in
  Alcotest.(check string) "scalar exposition"
    "# HELP repro_requests_total Requests decoded.\n\
     # TYPE repro_requests_total counter\n\
     repro_requests_total 42\n\
     # HELP repro_queue_depth Waiting work.\n\
     # TYPE repro_queue_depth gauge\n\
     repro_queue_depth 0\n"
    got

let test_render_labels_escaped () =
  let got =
    E.render
      [ counter ~labels:[ ("kind", "a\"b\\c\nd") ] "repro_x" "Escapes." 1.0 ]
  in
  Alcotest.(check string) "label escaping"
    "# HELP repro_x Escapes.\n\
     # TYPE repro_x counter\n\
     repro_x{kind=\"a\\\"b\\\\c\\nd\"} 1\n"
    got

let test_render_histogram () =
  let h =
    {
      E.bounds = [| 0.001; 0.01 |];
      counts = [| 1; 2; 3 |];
      sum = 0.125;
      count = 6;
    }
  in
  let got =
    E.render
      [
        {
          E.name = "repro_d";
          help = "Latency.";
          kind = E.Histogram;
          samples = [ { E.labels = [ ("kind", "analyze") ]; value = E.Hist h } ];
        };
      ]
  in
  Alcotest.(check string) "cumulative buckets, +Inf, sum/count"
    "# HELP repro_d Latency.\n\
     # TYPE repro_d histogram\n\
     repro_d_bucket{kind=\"analyze\",le=\"0.001\"} 1\n\
     repro_d_bucket{kind=\"analyze\",le=\"0.01\"} 3\n\
     repro_d_bucket{kind=\"analyze\",le=\"+Inf\"} 6\n\
     repro_d_sum{kind=\"analyze\"} 0.125\n\
     repro_d_count{kind=\"analyze\"} 6\n"
    got

let expect_invalid name fams =
  match E.render fams with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

let test_render_rejections () =
  expect_invalid "bad name" [ counter "Repro2" "Bad." 1.0 ];
  expect_invalid "scalar family, histogram sample"
    [
      {
        E.name = "repro_x";
        help = "Mismatch.";
        kind = E.Counter;
        samples =
          [
            {
              E.labels = [];
              value =
                E.Hist { E.bounds = [||]; counts = [| 0 |]; sum = 0.0; count = 0 };
            };
          ];
      };
    ];
  expect_invalid "histogram family, scalar sample"
    [
      {
        E.name = "repro_x";
        help = "Mismatch.";
        kind = E.Histogram;
        samples = [ { E.labels = []; value = E.Value 1.0 } ];
      };
    ]

(* ------------------------------- http ------------------------------- *)

let parse s = H.parse_request (Bytes.of_string s) (String.length s)

let test_parse_request () =
  (match parse "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n" with
  | H.Request { meth; path } ->
      Alcotest.(check string) "meth" "GET" meth;
      Alcotest.(check string) "path" "/metrics" path
  | H.Incomplete | H.Bad _ -> Alcotest.fail "CRLF request not parsed");
  (match parse "GET /health HTTP/1.1\n\n" with
  | H.Request { path; _ } -> Alcotest.(check string) "bare LF" "/health" path
  | H.Incomplete | H.Bad _ -> Alcotest.fail "bare-LF request not parsed");
  (match parse "GET /metrics HTTP/1.0\r\nHost: x\r\n" with
  | H.Incomplete -> ()
  | H.Request _ | H.Bad _ -> Alcotest.fail "head without blank line completed");
  (match parse "" with
  | H.Incomplete -> ()
  | H.Request _ | H.Bad _ -> Alcotest.fail "empty buffer not Incomplete");
  (match parse "NOT A REQUEST LINE AT ALL\r\n\r\n" with
  | H.Bad _ -> ()
  | H.Request _ | H.Incomplete -> Alcotest.fail "garbage head accepted");
  (match parse "GET /\r\n\r\n" with
  | H.Bad _ -> ()
  | H.Request _ | H.Incomplete -> Alcotest.fail "missing HTTP version accepted");
  let oversized = "GET /metrics HTTP/1.0\r\n" ^ String.make (H.max_head + 1) 'h' in
  match parse oversized with
  | H.Bad _ -> ()
  | H.Request _ | H.Incomplete -> Alcotest.fail "over-max_head head not refused"

let test_response () =
  Alcotest.(check string) "200 with default content type"
    "HTTP/1.0 200 OK\r\n\
     Content-Type: text/plain; charset=utf-8\r\n\
     Content-Length: 2\r\n\
     Connection: close\r\n\
     \r\n\
     hi"
    (H.response ~status:200 "hi");
  Alcotest.(check string) "503 with exposition content type"
    "HTTP/1.0 503 Service Unavailable\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: 0\r\n\
     Connection: close\r\n\
     \r\n"
    (H.response ~status:503 ~content_type:H.exposition_content_type "")

(* ---------------------------- bucket layout -------------------------- *)

let test_bucket_bounds () =
  let b = M.bucket_bounds in
  Alcotest.(check int) "24 bounds" 24 (Array.length b);
  Alcotest.(check (float 1e-12)) "first bound is 1us" 1e-6 b.(0);
  for i = 0 to Array.length b - 2 do
    Alcotest.(check bool)
      (Printf.sprintf "bound %d strictly ascending" i)
      true
      (b.(i) < b.(i + 1));
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "bound %d doubles" i)
      (2.0 *. b.(i))
      b.(i + 1)
  done

(* ------------------------- latency histograms ------------------------ *)

let test_observe_latency () =
  let t = M.create () in
  M.observe_latency t ~kind:"quadrant" ~seconds:0.5;
  M.observe_latency t ~kind:"analyze" ~seconds:M.bucket_bounds.(0);
  M.observe_latency t ~kind:"analyze" ~seconds:1.5e-6;
  M.observe_latency t ~kind:"analyze" ~seconds:1000.0;
  M.observe_latency t ~kind:"analyze" ~seconds:(-1.0);
  match M.latency t with
  | [ a; q ] ->
      Alcotest.(check string) "kinds sorted" "analyze" a.M.hist_kind;
      Alcotest.(check string) "second kind" "quadrant" q.M.hist_kind;
      Alcotest.(check int) "analyze count" 4 a.M.hist_count;
      Alcotest.(check int) "buckets carry the overflow slot"
        (Array.length M.bucket_bounds + 1)
        (Array.length a.M.hist_buckets);
      (* <= bound 0 catches both the exact bound and the negative clamp *)
      Alcotest.(check int) "bucket 0" 2 a.M.hist_buckets.(0);
      Alcotest.(check int) "bucket 1" 1 a.M.hist_buckets.(1);
      Alcotest.(check int) "overflow bucket" 1
        a.M.hist_buckets.(Array.length M.bucket_bounds);
      Alcotest.(check int) "buckets sum to count" a.M.hist_count
        (Array.fold_left ( + ) 0 a.M.hist_buckets);
      Alcotest.(check (float 1e-9)) "sum clamps negatives"
        (M.bucket_bounds.(0) +. 1.5e-6 +. 1000.0)
        a.M.hist_sum;
      Alcotest.(check int) "quadrant count" 1 q.M.hist_count
  | l -> Alcotest.fail (Printf.sprintf "expected 2 kinds, got %d" (List.length l))

let qcheck_histogram_invariants =
  QCheck2.Test.make ~name:"histogram buckets partition every observation"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) (float_range (-0.5) 20.0))
    (fun obs ->
      let t = M.create () in
      List.iter (fun s -> M.observe_latency t ~kind:"analyze" ~seconds:s) obs;
      match M.latency t with
      | [] -> obs = []
      | [ h ] ->
          h.M.hist_count = List.length obs
          && Array.fold_left ( + ) 0 h.M.hist_buckets = h.M.hist_count
          && Array.for_all (fun c -> c >= 0) h.M.hist_buckets
      | _ -> false)

(* ------------------------- the full exposition ----------------------- *)

(* A tiny structural lint over rendered text, mirroring what
   scripts/check_metrics.sh enforces from the outside: every sample's
   family is declared, histogram buckets are cumulative and +Inf equals
   _count. *)
let assert_exposition_well_formed text =
  let declared = Hashtbl.create 32 in
  let last_bucket = ref (-1) in
  let last_inf = ref 0 in
  List.iter
    (fun line ->
      if String.length line = 0 then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | _ :: _ :: name :: _ -> Hashtbl.replace declared name ()
        | _ -> Alcotest.fail ("malformed TYPE line: " ^ line)
      end
      else if line.[0] = '#' then ()
      else begin
        let name =
          match String.index_opt line '{' with
          | Some i -> String.sub line 0 i
          | None -> (
              match String.index_opt line ' ' with
              | Some i -> String.sub line 0 i
              | None -> line)
        in
        let strip suffix n =
          if
            String.length n > String.length suffix
            && String.sub n (String.length n - String.length suffix)
                 (String.length suffix)
               = suffix
          then String.sub n 0 (String.length n - String.length suffix)
          else n
        in
        let fam = strip "_bucket" (strip "_sum" (strip "_count" name)) in
        if not (Hashtbl.mem declared fam || Hashtbl.mem declared name) then
          Alcotest.fail ("sample for undeclared family: " ^ line);
        let value =
          match String.rindex_opt line ' ' with
          | Some i ->
              int_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> None
        in
        match value with
        | None -> ()
        | Some v ->
            let has_sub s sub =
              let n = String.length sub in
              let rec go i =
                i + n <= String.length s
                && (String.sub s i n = sub || go (i + 1))
              in
              go 0
            in
            if has_sub line "_bucket{" then begin
              if has_sub line "le=\"+Inf\"" then begin
                last_inf := v;
                last_bucket := -1
              end
              else begin
                if v < !last_bucket then
                  Alcotest.fail ("non-cumulative bucket: " ^ line);
                last_bucket := v
              end
            end
            else if has_sub line "_count{" || has_sub name "_count" then
              if Hashtbl.mem declared (strip "_count" name) && v <> !last_inf
              then Alcotest.fail ("_count differs from +Inf bucket: " ^ line)
      end)
    (String.split_on_char '\n' text)

let test_exposition_render () =
  let t = M.create () in
  M.incr_accepted t;
  M.set_active t 1;
  M.incr_request t ~kind:"analyze";
  M.incr_request t ~kind:"health";
  M.incr_ok t;
  M.incr_ok t;
  M.incr_error t ~code:"timeout";
  M.incr_cache_miss t;
  M.set_io_shards t 2;
  M.incr_shard_accept t ~shard:1;
  M.observe_latency t ~kind:"analyze" ~seconds:0.25;
  M.observe_latency t ~kind:"health" ~seconds:3e-6;
  let text =
    Serve.Exposition.render ~snapshot:(M.snapshot t) ~latency:(M.latency t)
      ~queue_depth:3 ~inflight:1 ~accept_pauses:2 ~draining:true
  in
  assert_exposition_well_formed text;
  let must_contain line =
    let found =
      List.exists (String.equal line) (String.split_on_char '\n' text)
    in
    Alcotest.(check bool) ("exposition contains: " ^ line) true found
  in
  must_contain "repro_connections_accepted_total 1";
  must_contain "repro_requests_total 2";
  must_contain "repro_requests_kind_total{kind=\"analyze\"} 1";
  must_contain "repro_responses_error_total{code=\"timeout\"} 1";
  must_contain "repro_queue_depth 3";
  must_contain "repro_inflight 1";
  must_contain "repro_io_shards 2";
  must_contain "repro_shard_accepted_total{shard=\"01\"} 1";
  must_contain "repro_accept_paused_total 2";
  must_contain "repro_draining 1";
  must_contain "# TYPE repro_request_duration_seconds histogram";
  must_contain "repro_request_duration_seconds_count{kind=\"analyze\"} 1";
  (* Not draining renders the gauge at zero, same shape otherwise. *)
  let calm =
    Serve.Exposition.render ~snapshot:(M.snapshot t) ~latency:(M.latency t)
      ~queue_depth:0 ~inflight:0 ~accept_pauses:0 ~draining:false
  in
  assert_exposition_well_formed calm;
  Alcotest.(check bool) "draining gauge drops to zero" true
    (List.exists
       (String.equal "repro_draining 0")
       (String.split_on_char '\n' calm))

(* ----------------------------- alcotest ----------------------------- *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "metrics_http"
    [
      ( "expo",
        [
          Alcotest.test_case "name charset" `Quick test_valid_name;
          Alcotest.test_case "scalar rendering" `Quick test_render_scalar;
          Alcotest.test_case "label escaping" `Quick test_render_labels_escaped;
          Alcotest.test_case "histogram rendering" `Quick test_render_histogram;
          Alcotest.test_case "invalid families rejected" `Quick
            test_render_rejections;
        ] );
      ( "http",
        [
          Alcotest.test_case "request parsing" `Quick test_parse_request;
          Alcotest.test_case "response writing" `Quick test_response;
        ] );
      ( "latency",
        [
          Alcotest.test_case "bucket layout" `Quick test_bucket_bounds;
          Alcotest.test_case "observe/snapshot" `Quick test_observe_latency;
        ]
        @ qcheck [ qcheck_histogram_invariants ] );
      ( "exposition",
        [ Alcotest.test_case "full families render" `Quick test_exposition_render ] );
    ]
