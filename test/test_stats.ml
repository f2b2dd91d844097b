(* Unit and property tests for the stats substrate. *)

module Rng = Stats.Rng
module Dist = Stats.Dist
module Describe = Stats.Describe
module Sv = Stats.Sparse_vec

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* ------------------------------- Rng ------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits a = Rng.bits b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-3) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -3 && v <= 5)
  done

let test_rng_uniformity () =
  let rng = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  (* Chi-square with 9 dof: 99.9th percentile ~ 27.9. *)
  let expected = float_of_int n /. 10.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  Alcotest.(check bool) (Printf.sprintf "chi2=%.1f < 27.9" chi2) true (chi2 < 27.9)

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 1.0 in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

(* The first outputs of each entry point, captured from the build before
   the generator state moved from a boxed [int64] field into [Bytes]:
   every simulated result is downstream of these streams, so they must
   not move by a bit. *)
let test_rng_vectors () =
  let draws n f = List.init n (fun _ -> f ()) in
  let r = Rng.create 42 in
  Alcotest.(check (list int64)) "create 42"
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ]
    (draws 3 (fun () -> Rng.int64 r));
  let r = Rng.create 42 in
  let child = Rng.split r in
  Alcotest.(check (list int64)) "split child"
    [ 6332618229526065668L; -816328817471504299L ]
    (draws 2 (fun () -> Rng.int64 child));
  Alcotest.(check int64) "split advances parent" 2949826092126892291L (Rng.int64 r);
  let l = Rng.split_label 7 "odb_c" in
  Alcotest.(check (list int64)) "split_label 7 odb_c"
    [ 6525141621966508585L; 3172367696740575956L ]
    (draws 2 (fun () -> Rng.int64 l));
  let r = Rng.create 1 in
  Alcotest.(check (list int)) "int"
    [ 0; 1; 7; 58; 2048809309281742190; 1316676407973089130 ]
    (List.map (Rng.int r) [ 1; 2; 10; 1000; max_int; (1 lsl 61) + 1 ]);
  let r = Rng.create 2 in
  Alcotest.(check (list string)) "float"
    [ "0x1.2eb06bbc392eap-1"; "0x1.7f908c2017f83p-1"; "0x1.30f7797fbafcap-1"; "0x1.87e504f5ffcfep-1" ]
    (draws 4 (fun () -> Printf.sprintf "%h" (Rng.float r 1.0)));
  let r = Rng.create 3 in
  Alcotest.(check (list bool)) "bool"
    [ true; true; true; true; false; true; false; false ]
    (draws 8 (fun () -> Rng.bool r));
  let r = Rng.create 4 in
  Alcotest.(check (list bool)) "bernoulli 0.5"
    [ true; false; false; true; true; false; false; true; true; false; false; false ]
    (draws 12 (fun () -> Rng.bernoulli r 0.5));
  let a = Rng.create 42 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues the stream" (Rng.int64 a) (Rng.int64 b)

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits a = Rng.bits b then incr matches
  done;
  Alcotest.(check bool) "split streams differ" true (!matches < 4)

let test_shuffle_permutes () =
  let rng = Rng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  Array.sort compare b;
  Alcotest.(check (array int)) "same multiset" a b

let test_permutation () =
  let rng = Rng.create 13 in
  let p = Rng.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_bernoulli_rate () =
  let rng = Rng.create 17 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_close 0.02 "p=0.3" 0.3 rate

(* ------------------------------- Dist ------------------------------ *)

let test_exponential_mean () =
  let rng = Rng.create 23 in
  let acc = Describe.Acc.create () in
  for _ = 1 to 50_000 do
    Describe.Acc.add acc (Dist.exponential rng ~mean:4.0)
  done;
  check_close 0.15 "mean 4" 4.0 (Describe.Acc.mean acc)

let test_normal_moments () =
  let rng = Rng.create 29 in
  let acc = Describe.Acc.create () in
  for _ = 1 to 50_000 do
    Describe.Acc.add acc (Dist.normal rng ~mean:2.0 ~stddev:3.0)
  done;
  check_close 0.1 "mean" 2.0 (Describe.Acc.mean acc);
  check_close 0.1 "stddev" 3.0 (Describe.Acc.stddev acc)

let test_geometric_support () =
  let rng = Rng.create 31 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "non-negative" true (Dist.geometric rng ~p:0.4 >= 0)
  done

let test_geometric_mean () =
  let rng = Rng.create 37 in
  let acc = Describe.Acc.create () in
  for _ = 1 to 50_000 do
    Describe.Acc.add acc (float_of_int (Dist.geometric rng ~p:0.25))
  done;
  (* mean of failures-before-success = (1-p)/p = 3 *)
  check_close 0.12 "mean 3" 3.0 (Describe.Acc.mean acc)

let test_poisson_mean () =
  let rng = Rng.create 41 in
  let acc = Describe.Acc.create () in
  for _ = 1 to 20_000 do
    Describe.Acc.add acc (float_of_int (Dist.poisson_knuth rng ~mean:3.5))
  done;
  check_close 0.1 "mean 3.5" 3.5 (Describe.Acc.mean acc)

let test_zipf_monotone () =
  let rng = Rng.create 43 in
  let z = Dist.zipf ~n:100 ~s:1.2 in
  let counts = Array.make 100 0 in
  for _ = 1 to 100_000 do
    let k = Dist.zipf_draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank0 > rank10" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "rank10 > rank60" true (counts.(10) > counts.(60))

let test_zipf_uniform_degenerate () =
  let rng = Rng.create 47 in
  let z = Dist.zipf ~n:10 ~s:0.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    counts.(Dist.zipf_draw z rng) <- counts.(Dist.zipf_draw z rng) + 1
  done;
  let mn = Array.fold_left min max_int counts and mx = Array.fold_left max 0 counts in
  Alcotest.(check bool) "near-uniform" true (float_of_int mn /. float_of_int mx > 0.8)

let test_categorical_weights () =
  let rng = Rng.create 53 in
  let c = Dist.categorical [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let k = Dist.categorical_draw c rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check int) "zero-weight never drawn" 0 counts.(1);
  check_close 0.05 "3:1 ratio" 0.75
    (float_of_int counts.(2) /. float_of_int (counts.(0) + counts.(2)))

let test_categorical_rejects_bad () =
  Alcotest.check_raises "empty" (Invalid_argument "Dist.categorical: empty weights")
    (fun () -> ignore (Dist.categorical [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Dist.categorical: negative weight") (fun () ->
      ignore (Dist.categorical [| 1.0; -1.0; 2.0 |]))

(* ----------------------------- Describe ---------------------------- *)

let test_welford_matches_naive () =
  let xs = [| 1.0; 2.5; -3.0; 4.25; 0.0; 10.0; -2.0 |] in
  let acc = Describe.Acc.create () in
  Array.iter (Describe.Acc.add acc) xs;
  let n = float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. n in
  let var = Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs /. n in
  check_float "mean" mean (Describe.Acc.mean acc);
  check_close 1e-9 "variance" var (Describe.Acc.variance acc)

let test_acc_min_max_sum () =
  let acc = Describe.Acc.create () in
  List.iter (Describe.Acc.add acc) [ 3.0; -1.0; 7.0 ];
  check_float "min" (-1.0) (Describe.Acc.min acc);
  check_float "max" 7.0 (Describe.Acc.max acc);
  check_float "sum" 9.0 (Describe.Acc.sum acc)

let test_acc_merge () =
  let xs = Array.init 100 (fun i -> float_of_int i *. 0.37) in
  let all = Describe.Acc.create () in
  Array.iter (Describe.Acc.add all) xs;
  let a = Describe.Acc.create () and b = Describe.Acc.create () in
  Array.iteri (fun i x -> Describe.Acc.add (if i < 33 then a else b) x) xs;
  let merged = Describe.Acc.merge a b in
  check_close 1e-9 "merged mean" (Describe.Acc.mean all) (Describe.Acc.mean merged);
  check_close 1e-9 "merged var" (Describe.Acc.variance all) (Describe.Acc.variance merged)

let test_variance_constant_series () =
  check_float "constant -> 0" 0.0 (Describe.variance (Array.make 50 3.14))

let test_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "p0" 1.0 (Describe.percentile xs 0.0);
  check_float "p100" 5.0 (Describe.percentile xs 100.0);
  check_float "p50" 3.0 (Describe.percentile xs 50.0);
  check_float "p25" 2.0 (Describe.percentile xs 25.0)

(* ---------------------------- Sparse_vec --------------------------- *)

let test_sv_of_assoc_dedup () =
  let v = Sv.of_assoc [ (3, 1.0); (1, 2.0); (3, 4.0); (2, 0.0) ] in
  Alcotest.(check int) "nnz" 2 (Sv.nnz v);
  check_float "sum of dup" 5.0 (Sv.get v 3);
  check_float "absent" 0.0 (Sv.get v 2)

let test_sv_get_binary_search () =
  let v = Sv.of_assoc (List.init 100 (fun i -> (i * 7, float_of_int i))) in
  for i = 0 to 99 do
    check_float "get" (float_of_int i) (Sv.get v (i * 7))
  done;
  check_float "miss" 0.0 (Sv.get v 5)

let test_sv_dot_dense () =
  let v = Sv.of_assoc [ (0, 1.0); (2, 3.0) ] in
  check_float "dot" 6.5 (Sv.dot_dense v [| 0.5; 100.0; 2.0 |])

let test_sv_sq_dist () =
  let v = Sv.of_assoc [ (0, 1.0); (1, 2.0) ] in
  let c = [| 0.0; 2.0; 3.0 |] in
  let norm = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 c in
  (* ||v-c||^2 = 1 + 0 + 9 = 10 *)
  check_close 1e-9 "sq dist" 10.0 (Sv.sq_dist_dense v c ~norm2_dense:norm)

let test_sv_map_indices () =
  let v = Sv.of_assoc [ (1, 5.0); (3, 7.0) ] in
  let w = Sv.map_indices (fun i -> i * 10) v in
  check_float "mapped" 5.0 (Sv.get w 10);
  check_float "mapped" 7.0 (Sv.get w 30)

let test_sv_rejects_negative_index () =
  Alcotest.check_raises "negative" (Invalid_argument "Sparse_vec.of_assoc: negative index")
    (fun () -> ignore (Sv.of_assoc [ (-1, 1.0) ]))

let sv_gen =
  QCheck2.Gen.(
    map
      (fun pairs -> Sv.of_assoc (List.map (fun (i, v) -> (abs i mod 64, float_of_int v)) pairs))
      (small_list (pair small_int (int_range (-5) 5))))

let prop_sv_norm2_nonneg =
  QCheck2.Test.make ~name:"sparse_vec norm2 non-negative" ~count:200 sv_gen (fun v ->
      Sv.norm2 v >= 0.0)

let prop_sv_roundtrip =
  QCheck2.Test.make ~name:"sparse_vec to_assoc/of_assoc roundtrip" ~count:200 sv_gen (fun v ->
      Sv.equal v (Sv.of_assoc (Sv.to_assoc v)))

let prop_sv_dot_self =
  QCheck2.Test.make ~name:"sparse_vec dot with dense self = norm2" ~count:200 sv_gen (fun v ->
      let n = Sv.max_index v + 1 in
      let dense = Array.make (max 1 n) 0.0 in
      Sv.add_into_dense v dense;
      Float.abs (Sv.dot_dense v dense -. Sv.norm2 v) < 1e-6)

let prop_sv_dist_to_self_zero =
  QCheck2.Test.make ~name:"sparse_vec distance to own dense image = 0" ~count:200 sv_gen
    (fun v ->
      let n = Sv.max_index v + 1 in
      let dense = Array.make (max 1 n) 0.0 in
      Sv.add_into_dense v dense;
      let norm = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 dense in
      Sv.sq_dist_dense v dense ~norm2_dense:norm < 1e-6)

(* ----------------------------- Histogram --------------------------- *)

let test_histogram_basic () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -5.0; 15.0 ];
  Alcotest.(check int) "bin0 has 0.5 and clamped -5" 2 (Stats.Histogram.count h 0);
  Alcotest.(check int) "bin1" 2 (Stats.Histogram.count h 1);
  Alcotest.(check int) "last bin has 9.9 and clamped 15" 2 (Stats.Histogram.count h 9);
  Alcotest.(check int) "total" 6 (Stats.Histogram.total h)

let test_histogram_mode () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:4.0 ~bins:4 in
  List.iter (Stats.Histogram.add h) [ 2.5; 2.6; 2.7; 0.1 ];
  Alcotest.(check int) "mode bin" 2 (Stats.Histogram.mode_bin h)

(* ------------------------------- Folds ----------------------------- *)

let test_folds_partition () =
  let rng = Rng.create 61 in
  let folds = Stats.Folds.make rng ~n:53 ~k:10 in
  Alcotest.(check int) "10 folds" 10 (Array.length folds);
  let seen = Array.make 53 0 in
  Array.iter
    (fun { Stats.Folds.train; test } ->
      Alcotest.(check int) "train+test = n" 53 (Array.length train + Array.length test);
      Array.iter (fun i -> seen.(i) <- seen.(i) + 1) test)
    folds;
  Array.iter (fun c -> Alcotest.(check int) "each index tested once" 1 c) seen

let test_folds_sizes_balanced () =
  let rng = Rng.create 67 in
  let folds = Stats.Folds.make rng ~n:25 ~k:10 in
  Array.iter
    (fun { Stats.Folds.test; _ } ->
      let l = Array.length test in
      Alcotest.(check bool) "test size 2 or 3" true (l = 2 || l = 3))
    folds

let test_folds_rejects () =
  let rng = Rng.create 71 in
  Alcotest.check_raises "k too small" (Invalid_argument "Folds.make: k must be >= 2")
    (fun () -> ignore (Stats.Folds.make rng ~n:10 ~k:1))

(* QCheck: the fold partition invariants the parallel CV relies on. *)

let folds_gen =
  (* k in [2,12], n >= k. *)
  QCheck2.Gen.(
    triple (int_range 2 12) (int_range 0 80) (int_range 0 1_000_000)
    |> map (fun (k, extra, seed) -> (k + extra, k, seed)))

let prop_folds_partition_exact =
  QCheck2.Test.make ~name:"folds partition 0..n-1 exactly (disjoint, covering)" ~count:200
    folds_gen (fun (n, k, seed) ->
      let folds = Stats.Folds.make (Rng.create seed) ~n ~k in
      let seen = Array.make n 0 in
      Array.iter (fun { Stats.Folds.test; _ } -> Array.iter (fun i -> seen.(i) <- seen.(i) + 1) test) folds;
      let complement_ok =
        Array.for_all
          (fun { Stats.Folds.train; test } ->
            (* train is exactly the complement of test. *)
            let in_test = Array.make n false in
            Array.iter (fun i -> in_test.(i) <- true) test;
            Array.length train + Array.length test = n
            && Array.for_all (fun i -> not in_test.(i)) train)
          folds
      in
      complement_ok && Array.for_all (fun c -> c = 1) seen)

let prop_folds_nonempty =
  QCheck2.Test.make ~name:"every fold non-empty for n >= k" ~count:200 folds_gen
    (fun (n, k, seed) ->
      let folds = Stats.Folds.make (Rng.create seed) ~n ~k in
      Array.length folds = k
      && Array.for_all (fun { Stats.Folds.test; _ } -> Array.length test > 0) folds)

(* ----------------------------- split_label -------------------------- *)

let stream_prefix rng len = Array.init len (fun _ -> Rng.int64 rng)

let test_split_label_reproducible () =
  let a = Rng.split_label 42 "odb_c" and b = Rng.split_label 42 "odb_c" in
  Alcotest.(check bool) "same (seed, label) -> same stream" true
    (stream_prefix a 64 = stream_prefix b 64)

let test_split_label_distinct_labels () =
  let a = Rng.split_label 42 "odb_c" and b = Rng.split_label 42 "sjas" in
  Alcotest.(check bool) "distinct labels -> distinct streams" true
    (stream_prefix a 16 <> stream_prefix b 16)

let test_split_label_distinct_seeds () =
  let a = Rng.split_label 1 "gzip" and b = Rng.split_label 2 "gzip" in
  Alcotest.(check bool) "distinct seeds -> distinct streams" true
    (stream_prefix a 16 <> stream_prefix b 16)

let label_gen =
  QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 16))

let prop_split_label_streams =
  QCheck2.Test.make ~name:"split_label: reproducible per label, distinct across labels"
    ~count:200
    QCheck2.Gen.(triple (int_range 0 10_000) label_gen label_gen)
    (fun (seed, l1, l2) ->
      let s1 = stream_prefix (Rng.split_label seed l1) 8 in
      let s1' = stream_prefix (Rng.split_label seed l1) 8 in
      let s2 = stream_prefix (Rng.split_label seed l2) 8 in
      s1 = s1' && (l1 = l2 || s1 <> s2))

(* ------------------------------- Series ---------------------------- *)

let test_moving_average_constant () =
  let xs = Array.make 20 5.0 in
  let ma = Stats.Series.moving_average xs ~window:5 in
  Array.iter (fun v -> check_float "flat" 5.0 v) ma

let test_downsample () =
  let xs = Array.init 100 float_of_int in
  let pts = Stats.Series.downsample xs ~points:10 in
  Alcotest.(check int) "10 buckets" 10 (Array.length pts);
  let _, first_mean = pts.(0) in
  check_float "bucket mean" 4.5 first_mean

let test_autocorrelation_periodic () =
  let xs = Array.init 200 (fun i -> if i mod 10 < 5 then 1.0 else 0.0) in
  let r10 = Stats.Series.autocorrelation xs ~lag:10 in
  let r5 = Stats.Series.autocorrelation xs ~lag:5 in
  Alcotest.(check bool) "period-10 signal" true (r10 > 0.8 && r5 < -0.8)

let test_crossings () =
  let xs = [| 0.0; 2.0; 0.0; 2.0; 0.0 |] in
  Alcotest.(check int) "4 crossings of 1" 4 (Stats.Series.crossings xs ~level:1.0)

(* ------------------------------- Table ----------------------------- *)

let test_table_render () =
  let s =
    Stats.Table.render ~header:[| "a"; "bb" |]
      ~rows:[ [| "x"; "1" |]; [| "longer"; "22" |] ]
      ()
  in
  Alcotest.(check bool) "contains header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines)

let test_table_rejects_arity () =
  Alcotest.check_raises "arity" (Invalid_argument "Table.render: row arity mismatch")
    (fun () -> ignore (Stats.Table.render ~header:[| "a" |] ~rows:[ [| "x"; "y" |] ] ()))

(* ------------------------------ Growvec ---------------------------- *)

let test_growvec_int () =
  let v = Stats.Growvec.Int.create ~capacity:2 () in
  for i = 0 to 99 do
    Stats.Growvec.Int.push v i
  done;
  Alcotest.(check int) "length" 100 (Stats.Growvec.Int.length v);
  Alcotest.(check int) "get" 57 (Stats.Growvec.Int.get v 57);
  Alcotest.(check (array int)) "to_array" (Array.init 100 (fun i -> i))
    (Stats.Growvec.Int.to_array v);
  Stats.Growvec.Int.clear v;
  Alcotest.(check int) "cleared" 0 (Stats.Growvec.Int.length v)

let test_growvec_bool () =
  let v = Stats.Growvec.Bool.create () in
  for i = 0 to 63 do
    Stats.Growvec.Bool.push v (i mod 3 = 0)
  done;
  Alcotest.(check bool) "get" true (Stats.Growvec.Bool.get v 63);
  Alcotest.(check bool) "get" false (Stats.Growvec.Bool.get v 62);
  Alcotest.(check int) "length" 64 (Stats.Growvec.Bool.length v)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------ Sealed ----------------------------- *)

let test_sealed_roundtrip () =
  let sealed = Stats.Sealed.seal ~magic:"fuzzystore" "two\nlines\n" in
  Alcotest.(check string) "trailer bytes"
    (Printf.sprintf "two\nlines\nfuzzystore-end 10 %d\n" (Stats.Sealed.adler32 "two\nlines\n"))
    sealed;
  Alcotest.(check (result string string)) "unseal" (Ok "two\nlines\n")
    (Stats.Sealed.unseal ~magic:"fuzzystore" sealed);
  Alcotest.(check (result string string)) "empty body" (Ok "")
    (Stats.Sealed.unseal ~magic:"fuzzytrace" (Stats.Sealed.seal ~magic:"fuzzytrace" ""))

(* Under either magic, every single-byte flip (each position, each of
   the 255 changes) and every proper prefix of a sealed (line-oriented)
   body is rejected, and a seal under one magic is not accepted as the
   other. *)
let prop_sealed_rejects_corruption =
  QCheck2.Test.make ~name:"unseal rejects flips, truncations and the other magic" ~count:30
    QCheck2.Gen.(pair bool (string_size ~gen:printable (int_range 0 40)))
    (fun (trace, body) ->
      let magic, other =
        if trace then ("fuzzytrace", "fuzzystore") else ("fuzzystore", "fuzzytrace")
      in
      let body = if body = "" then body else body ^ "\n" in
      let sealed = Stats.Sealed.seal ~magic body in
      let rejected s = Result.is_error (Stats.Sealed.unseal ~magic s) in
      let flipped pos flip =
        let b = Bytes.of_string sealed in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
        Bytes.to_string b
      in
      Stats.Sealed.unseal ~magic sealed = Ok body
      && Result.is_error (Stats.Sealed.unseal ~magic:other sealed)
      && List.for_all
           (fun pos ->
             rejected (String.sub sealed 0 pos)
             && List.for_all (fun flip -> rejected (flipped pos flip)) (List.init 255 succ))
           (List.init (String.length sealed) Fun.id))

let test_sealed_files () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sealed-test-%d" (Unix.getpid ()))
  in
  let path = Filename.concat (Filename.concat dir "a/b") "file" in
  Stats.Sealed.mkdir_p (Filename.dirname path);
  Stats.Sealed.mkdir_p (Filename.dirname path);
  Stats.Sealed.write_file path "first";
  Stats.Sealed.write_file path "second";
  Alcotest.(check string) "rewritten in place" "second" (Stats.Sealed.read_file path);
  Alcotest.(check (array string)) "no temp file left" [| "file" |]
    (Sys.readdir (Filename.dirname path));
  Sys.remove path

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "uniformity chi2" `Quick test_rng_uniformity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "output vectors" `Quick test_rng_vectors;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "permutation" `Quick test_permutation;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
        ] );
      ( "dist",
        [
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "geometric support" `Quick test_geometric_support;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
          Alcotest.test_case "zipf monotone" `Quick test_zipf_monotone;
          Alcotest.test_case "zipf s=0 uniform" `Quick test_zipf_uniform_degenerate;
          Alcotest.test_case "categorical weights" `Quick test_categorical_weights;
          Alcotest.test_case "categorical rejects bad input" `Quick test_categorical_rejects_bad;
        ] );
      ( "describe",
        [
          Alcotest.test_case "welford vs naive" `Quick test_welford_matches_naive;
          Alcotest.test_case "min/max/sum" `Quick test_acc_min_max_sum;
          Alcotest.test_case "merge" `Quick test_acc_merge;
          Alcotest.test_case "constant variance" `Quick test_variance_constant_series;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "sparse_vec",
        Alcotest.test_case "of_assoc dedups" `Quick test_sv_of_assoc_dedup
        :: Alcotest.test_case "get binary search" `Quick test_sv_get_binary_search
        :: Alcotest.test_case "dot dense" `Quick test_sv_dot_dense
        :: Alcotest.test_case "squared distance" `Quick test_sv_sq_dist
        :: Alcotest.test_case "map indices" `Quick test_sv_map_indices
        :: Alcotest.test_case "rejects negative index" `Quick test_sv_rejects_negative_index
        :: qcheck [ prop_sv_norm2_nonneg; prop_sv_roundtrip; prop_sv_dot_self; prop_sv_dist_to_self_zero ]
      );
      ( "histogram",
        [
          Alcotest.test_case "binning and clamping" `Quick test_histogram_basic;
          Alcotest.test_case "mode" `Quick test_histogram_mode;
        ] );
      ( "folds",
        Alcotest.test_case "partition covers exactly" `Quick test_folds_partition
        :: Alcotest.test_case "balanced sizes" `Quick test_folds_sizes_balanced
        :: Alcotest.test_case "rejects k<2" `Quick test_folds_rejects
        :: qcheck [ prop_folds_partition_exact; prop_folds_nonempty ] );
      ( "split_label",
        Alcotest.test_case "reproducible" `Quick test_split_label_reproducible
        :: Alcotest.test_case "distinct labels" `Quick test_split_label_distinct_labels
        :: Alcotest.test_case "distinct seeds" `Quick test_split_label_distinct_seeds
        :: qcheck [ prop_split_label_streams ] );
      ( "series",
        [
          Alcotest.test_case "moving average of constant" `Quick test_moving_average_constant;
          Alcotest.test_case "downsample" `Quick test_downsample;
          Alcotest.test_case "autocorrelation of periodic" `Quick test_autocorrelation_periodic;
          Alcotest.test_case "crossings" `Quick test_crossings;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "rejects arity mismatch" `Quick test_table_rejects_arity;
        ] );
      ( "growvec",
        [
          Alcotest.test_case "int vector" `Quick test_growvec_int;
          Alcotest.test_case "bool vector" `Quick test_growvec_bool;
        ] );
      ( "sealed",
        Alcotest.test_case "seal and unseal" `Quick test_sealed_roundtrip
        :: Alcotest.test_case "write, read, mkdir_p" `Quick test_sealed_files
        :: qcheck [ prop_sealed_rejects_corruption ] );
    ]
