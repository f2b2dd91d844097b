(* Tests for the microarchitecture model. *)

module Cache = March.Cache
module Branch = March.Branch
module Tlb = March.Tlb
module Config = March.Config
module Hierarchy = March.Hierarchy
module Breakdown = March.Breakdown
module Quantum = March.Quantum
module Cpu = March.Cpu

(* ------------------------------- Cache ----------------------------- *)

let test_cache_hit_after_fill () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0x1000);
  Alcotest.(check bool) "second access hits" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x103F);
  Alcotest.(check bool) "next line misses" false (Cache.access c 0x1040)

let test_cache_lru_eviction () =
  (* Direct-mapped-ish: 2 ways, force 3 conflicting lines. *)
  let c = Cache.create ~size_bytes:128 ~ways:2 ~line_bytes:64 in
  (* One set only: 128 / (2*64) = 1. *)
  Alcotest.(check int) "one set" 1 (Cache.sets c);
  ignore (Cache.access c 0x0000);
  ignore (Cache.access c 0x1000);
  ignore (Cache.access c 0x0000);
  (* touch A so B is the LRU *)
  ignore (Cache.access c 0x2000);
  (* evicts B *)
  Alcotest.(check bool) "A still resident" true (Cache.access c 0x0000);
  Alcotest.(check bool) "B evicted" false (Cache.access c 0x1000)

let test_cache_miss_rate () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
  for i = 0 to 63 do
    ignore (Cache.access c (i * 64))
  done;
  Alcotest.(check (float 1e-9)) "all cold misses" 1.0 (Cache.miss_rate c);
  Cache.reset_stats c;
  for i = 0 to 63 do
    ignore (Cache.access c (i * 64))
  done;
  Alcotest.(check (float 1e-9)) "fits: all hits" 0.0 (Cache.miss_rate c)

let test_cache_working_set_ordering () =
  (* A working set larger than the cache misses more than a smaller one. *)
  let rng = Stats.Rng.create 1 in
  let run ws_bytes =
    let c = Cache.create ~size_bytes:32768 ~ways:4 ~line_bytes:64 in
    for _ = 1 to 20_000 do
      ignore (Cache.access c (Stats.Rng.int rng (ws_bytes / 64) * 64))
    done;
    Cache.miss_rate c
  in
  let small = run 16384 and big = run (1 lsl 20) in
  Alcotest.(check bool)
    (Printf.sprintf "small ws %.3f < big ws %.3f" small big)
    true (small < big)

let test_cache_probe_no_state_change () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
  Alcotest.(check bool) "probe miss" false (Cache.probe c 0x1000);
  Alcotest.(check bool) "probe did not fill" false (Cache.probe c 0x1000);
  Alcotest.(check int) "probe not counted" 0 (Cache.accesses c)

let test_cache_clear () =
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
  ignore (Cache.access c 0x40);
  Cache.clear c;
  Alcotest.(check bool) "cleared" false (Cache.probe c 0x40);
  Alcotest.(check int) "stats reset" 0 (Cache.accesses c)

let test_cache_rejects_geometry () =
  Alcotest.check_raises "bad line"
    (Invalid_argument "Cache.create: line size must be a power of two") (fun () ->
      ignore (Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:60))

let test_cache_rejects_negative_address () =
  (* Line -1 was the invalid-way marker: the old model reported a hit. *)
  let r = Cache.Reference.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
  Alcotest.(check bool) "reference aliases the empty marker" true (Cache.Reference.access r (-64));
  let c = Cache.create ~size_bytes:4096 ~ways:4 ~line_bytes:64 in
  Alcotest.check_raises "access" (Invalid_argument "Cache.access: negative address") (fun () ->
      ignore (Cache.access c (-64)));
  Alcotest.check_raises "probe" (Invalid_argument "Cache.probe: negative address") (fun () ->
      ignore (Cache.probe c (-64)));
  Alcotest.(check int) "nothing counted" 0 (Cache.accesses c)

(* ------------------------------- Branch ---------------------------- *)

let test_branch_learns_bias () =
  let b = Branch.create ~table_bits:10 () in
  for _ = 1 to 200 do
    ignore (Branch.update b ~pc:0x400 ~taken:true)
  done;
  Branch.reset_stats b;
  for _ = 1 to 100 do
    ignore (Branch.update b ~pc:0x400 ~taken:true)
  done;
  Alcotest.(check int) "biased branch fully predicted" 0 (Branch.mispredicts b)

let test_branch_random_mispredicts () =
  let rng = Stats.Rng.create 2 in
  let b = Branch.create ~table_bits:10 () in
  for _ = 1 to 4000 do
    ignore (Branch.update b ~pc:0x400 ~taken:(Stats.Rng.bool rng))
  done;
  let rate = Branch.mispredict_rate b in
  Alcotest.(check bool) (Printf.sprintf "random ~50%% (%.2f)" rate) true (rate > 0.35)

let test_branch_alternating_learned () =
  (* gshare with history should learn a strict alternation. *)
  let b = Branch.create ~table_bits:12 () in
  let taken = ref false in
  for _ = 1 to 2000 do
    taken := not !taken;
    ignore (Branch.update b ~pc:0x80 ~taken:!taken)
  done;
  Branch.reset_stats b;
  for _ = 1 to 500 do
    taken := not !taken;
    ignore (Branch.update b ~pc:0x80 ~taken:!taken)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "alternation learned (%.3f)" (Branch.mispredict_rate b))
    true
    (Branch.mispredict_rate b < 0.05)

let test_branch_counts () =
  let b = Branch.create ~table_bits:8 () in
  for i = 1 to 10 do
    ignore (Branch.update b ~pc:i ~taken:true)
  done;
  Alcotest.(check int) "10 branches" 10 (Branch.branches b)

(* -------------------------------- Tlb ------------------------------ *)

let test_tlb_hit_miss () =
  let t = Tlb.create ~entries:4 ~page_bytes:4096 in
  Alcotest.(check bool) "cold miss" false (Tlb.access t 0x1000);
  Alcotest.(check bool) "same page hits" true (Tlb.access t 0x1FFF);
  Alcotest.(check int) "one miss" 1 (Tlb.misses t)

let test_tlb_lru () =
  let t = Tlb.create ~entries:2 ~page_bytes:4096 in
  ignore (Tlb.access t 0x0000);
  ignore (Tlb.access t 0x1000);
  ignore (Tlb.access t 0x0000);
  ignore (Tlb.access t 0x2000);
  (* evicts page 1 *)
  Alcotest.(check bool) "page 0 resident" true (Tlb.access t 0x0000);
  Alcotest.(check bool) "page 1 evicted" false (Tlb.access t 0x1000)

let page n = n * 4096

let test_tlb_cold_fill_order () =
  let t = Tlb.create ~entries:4 ~page_bytes:4096 in
  (* A miss takes a free entry while one is left: nothing is evicted. *)
  for p = 0 to 3 do
    Alcotest.(check bool) (Printf.sprintf "page %d cold" p) false (Tlb.access t (page p))
  done;
  for p = 0 to 3 do
    Alcotest.(check bool) (Printf.sprintf "page %d kept" p) true (Tlb.access t (page p))
  done;
  (* Full: the next miss evicts the first page filled and touched. *)
  Alcotest.(check bool) "page 4 misses" false (Tlb.access t (page 4));
  Alcotest.(check bool) "page 1 kept" true (Tlb.access t (page 1));
  Alcotest.(check bool) "page 0 evicted" false (Tlb.access t (page 0))

let test_tlb_hit_refreshes_victim () =
  let t = Tlb.create ~entries:3 ~page_bytes:4096 in
  List.iter (fun p -> ignore (Tlb.access t (page p))) [ 0; 1; 2 ];
  Alcotest.(check bool) "page 0 hits" true (Tlb.access t (page 0));
  (* Page 1 is now the least recently used, not page 0. *)
  Alcotest.(check bool) "page 3 misses" false (Tlb.access t (page 3));
  Alcotest.(check bool) "page 0 kept" true (Tlb.access t (page 0));
  Alcotest.(check bool) "page 2 kept" true (Tlb.access t (page 2));
  Alcotest.(check bool) "page 3 kept" true (Tlb.access t (page 3));
  Alcotest.(check bool) "page 1 evicted" false (Tlb.access t (page 1))

let test_tlb_one_entry () =
  let t = Tlb.create ~entries:1 ~page_bytes:4096 in
  let outcomes = List.map (fun p -> Tlb.access t (page p)) [ 0; 0; 1; 1; 0; 2; 2 ] in
  Alcotest.(check (list bool)) "only the last page is held"
    [ false; true; false; true; false; false; true ]
    outcomes;
  Alcotest.(check int) "misses" 4 (Tlb.misses t)

let test_tlb_miss_count () =
  let t = Tlb.create ~entries:2 ~page_bytes:4096 in
  (* A cycle over three pages in a two-entry LRU TLB misses every time. *)
  for _ = 1 to 5 do
    List.iter (fun p -> ignore (Tlb.access t (page p))) [ 0; 1; 2 ]
  done;
  Alcotest.(check int) "cyclic misses" 15 (Tlb.misses t);
  ignore (Tlb.access t (page 2));
  ignore (Tlb.access t (page 1));
  Alcotest.(check int) "hits are not counted" 15 (Tlb.misses t)

let test_tlb_page_boundaries () =
  let t = Tlb.create ~entries:8 ~page_bytes:16384 in
  Alcotest.(check bool) "first byte misses" false (Tlb.access t 0x8000);
  Alcotest.(check bool) "last byte of the page hits" true (Tlb.access t 0xBFFF);
  Alcotest.(check bool) "next page misses" false (Tlb.access t 0xC000);
  Alcotest.(check bool) "previous page misses" false (Tlb.access t 0x7FFF);
  Alcotest.(check bool) "start of the next page now hits" true (Tlb.access t 0xC000);
  Alcotest.(check int) "three pages" 3 (Tlb.misses t)

let test_tlb_rejects_negative_address () =
  let r = Tlb.Reference.create ~entries:4 ~page_bytes:4096 in
  Alcotest.(check bool) "reference aliases the empty marker" true (Tlb.Reference.access r (-1));
  let t = Tlb.create ~entries:4 ~page_bytes:4096 in
  Alcotest.check_raises "access" (Invalid_argument "Tlb.access: negative address") (fun () ->
      ignore (Tlb.access t (-1)));
  Alcotest.(check int) "nothing counted" 0 (Tlb.misses t)

(* ----------------------- Reference equivalence --------------------- *)

(* The O(1) TLB and the recency-ordered cache must give the reference
   models' hit/miss outcome on every access of any trace.  Addresses come
   from a small page or line space so that evictions dominate. *)

let tlb_geometries =
  List.sort_uniq compare
    ((1, 4096) :: (5, 4096) :: List.map (fun c -> (c.Config.tlb_entries, c.Config.page_bytes)) Config.all)

let prop_tlb_equals_reference (entries, page_bytes) =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 800)
        (triple bool (int_range 0 (entries + (entries / 2))) (int_range 0 (page_bytes - 1))))
  in
  QCheck2.Test.make ~count:100
    ~name:(Printf.sprintf "Tlb == Reference (%d entries, %d B pages)" entries page_bytes)
    gen (fun trace ->
      let t = Tlb.create ~entries ~page_bytes and r = Tlb.Reference.create ~entries ~page_bytes in
      List.for_all
        (fun (high, p, off) ->
          let addr = (((if high then 1 lsl 33 else 0) + p) * page_bytes) + off in
          Tlb.access t addr = Tlb.Reference.access r addr)
        trace
      && Tlb.misses t = Tlb.Reference.misses r)

let cache_geometries =
  let presets =
    List.concat_map
      (fun c -> [ c.Config.l1i; c.Config.l1d; c.Config.l2 ] @ Option.to_list c.Config.l3)
      Config.all
  in
  List.sort_uniq compare
    ({ Config.size_bytes = 4096; ways = 1; line_bytes = 64 }
    :: { Config.size_bytes = 64; ways = 1; line_bytes = 64 }
    :: presets)

let prop_cache_equals_reference (g : Config.geometry) =
  let sets = g.size_bytes / (g.ways * g.line_bytes) in
  (* A few sets, each offered twice as many tags as it has ways. *)
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 800)
        (triple (int_range 0 (min 3 (sets - 1))) (int_range 0 (2 * g.ways)) (int_range 0 (g.line_bytes - 1))))
  in
  QCheck2.Test.make ~count:100
    ~name:(Printf.sprintf "Cache == Reference (%d B, %d ways, %d B lines)" g.size_bytes g.ways g.line_bytes)
    gen (fun trace ->
      let c = Cache.create ~size_bytes:g.size_bytes ~ways:g.ways ~line_bytes:g.line_bytes
      and r = Cache.Reference.create ~size_bytes:g.size_bytes ~ways:g.ways ~line_bytes:g.line_bytes in
      List.for_all
        (fun (set, tag, off) ->
          let addr = (((tag * sets) + set) * g.line_bytes) + off in
          Cache.access c addr = Cache.Reference.access r addr)
        trace
      && Cache.accesses c = Cache.Reference.accesses r
      && Cache.miss_rate c = Cache.Reference.miss_rate r)

(* ------------------------------ Config ----------------------------- *)

let test_config_presets_valid () =
  List.iter Config.validate Config.all;
  Alcotest.(check int) "3 presets" 3 (List.length Config.all)

let test_config_by_name () =
  Alcotest.(check string) "lookup" "pentium4" (Config.by_name "pentium4").Config.name;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Config.by_name "alpha"))

let test_config_p4_has_no_l3 () =
  Alcotest.(check bool) "p4 no L3" true (Config.pentium4.Config.l3 = None);
  Alcotest.(check bool) "itanium2 has L3" true (Config.itanium2.Config.l3 <> None)

(* ----------------------------- Hierarchy --------------------------- *)

let test_hierarchy_levels () =
  let h = Hierarchy.create Config.itanium2 in
  Alcotest.(check bool) "cold goes to Mem" true (Hierarchy.access_data h 0x10000 = Hierarchy.Mem);
  Alcotest.(check bool) "then L1" true (Hierarchy.access_data h 0x10000 = Hierarchy.L1)

let test_hierarchy_l2_after_l1_eviction () =
  let h = Hierarchy.create Config.itanium2 in
  ignore (Hierarchy.access_data h 0);
  (* Thrash L1D (32 KB) with 64 KB of lines; line 0 should fall to L2. *)
  for i = 1 to 1024 do
    ignore (Hierarchy.access_data h (i * 64))
  done;
  let lvl = Hierarchy.access_data h 0 in
  Alcotest.(check bool) "L1 evicted but L2/L3 resident" true
    (lvl = Hierarchy.L2 || lvl = Hierarchy.L3)

let test_hierarchy_mem_counter () =
  let h = Hierarchy.create Config.itanium2 in
  for i = 0 to 9 do
    ignore (Hierarchy.access_data h (i * 1024 * 1024))
  done;
  Alcotest.(check int) "10 memory accesses" 10 (Hierarchy.mem_data_accesses h)

let test_hierarchy_p4_misses_cost_memory () =
  let h = Hierarchy.create Config.pentium4 in
  ignore h;
  Alcotest.(check (float 1e-9)) "mem latency" Config.pentium4.Config.lat_mem
    (Hierarchy.data_latency Config.pentium4 Hierarchy.Mem);
  Alcotest.(check (float 1e-9)) "L1 free" 0.0 (Hierarchy.data_latency Config.pentium4 Hierarchy.L1)

(* ----------------------------- Breakdown --------------------------- *)

let test_breakdown_arith () =
  let a = { Breakdown.work = 1.0; fe = 2.0; exe = 3.0; other = 4.0 } in
  let b = Breakdown.scale a 2.0 in
  Alcotest.(check (float 1e-9)) "scale" 6.0 b.Breakdown.exe;
  let c = Breakdown.add a b in
  Alcotest.(check (float 1e-9)) "add" 9.0 c.Breakdown.exe;
  Alcotest.(check (float 1e-9)) "total" 10.0 (Breakdown.total a);
  Alcotest.(check (float 1e-9)) "exe fraction" 0.3 (Breakdown.exe_fraction a);
  let d = Breakdown.sub c a in
  Alcotest.(check (float 1e-9)) "sub" 6.0 d.Breakdown.exe

let test_breakdown_per_instr () =
  let a = { Breakdown.work = 10.0; fe = 0.0; exe = 20.0; other = 0.0 } in
  let p = Breakdown.per_instr a ~instrs:10 in
  Alcotest.(check (float 1e-9)) "work cpi" 1.0 p.Breakdown.work;
  Alcotest.(check (float 1e-9)) "exe cpi" 2.0 p.Breakdown.exe

(* -------------------------------- Cpu ------------------------------ *)

let quantum_no_misses () =
  (* Tiny loop: one hot line, one biased branch, refs that always hit after
     warmup. *)
  Quantum.make ~instrs:1000
    ~inst_lines:[| 0x4000 |]
    ~ref_addrs:(Array.make 16 0x100)
    ~branch_pcs:(Array.make 8 0x40)
    ~branch_taken:(Array.make 8 true)
    ()

let test_cpu_base_cpi_floor () =
  let cpu = Cpu.create Config.itanium2 in
  (* Warm up. *)
  for _ = 1 to 20 do
    ignore (Cpu.run cpu (quantum_no_misses ()))
  done;
  let r = Cpu.run cpu (quantum_no_misses ()) in
  let cpi = Cpu.cpi r ~instrs:1000 in
  let floor = Config.itanium2.Config.base_cpi +. Config.itanium2.Config.other_base_cpi in
  Alcotest.(check bool)
    (Printf.sprintf "warm loop near base CPI (%.3f vs floor %.3f)" cpi floor)
    true
    (cpi < floor +. 0.05)

let test_cpu_misses_raise_cpi () =
  let cpu = Cpu.create Config.itanium2 in
  let rng = Stats.Rng.create 3 in
  let q () =
    Quantum.make ~instrs:1000
      ~ref_addrs:(Array.init 64 (fun _ -> Stats.Rng.int rng (64 lsl 20)))
      ()
  in
  for _ = 1 to 5 do
    ignore (Cpu.run cpu (q ()))
  done;
  let r = Cpu.run cpu (q ()) in
  Alcotest.(check bool) "memory-bound CPI >> base" true (Cpu.cpi r ~instrs:1000 > 2.0);
  Alcotest.(check bool) "exe dominates" true (Breakdown.exe_fraction r.Cpu.breakdown > 0.5)

let test_cpu_breakdown_total_equals_cycles () =
  let cpu = Cpu.create Config.xeon in
  let r = Cpu.run cpu (quantum_no_misses ()) in
  Alcotest.(check (float 1e-6)) "components sum to cycles" r.Cpu.cycles
    (Breakdown.total r.Cpu.breakdown)

let test_cpu_mispredicts_feed_fe () =
  let cpu = Cpu.create Config.pentium4 in
  let rng = Stats.Rng.create 5 in
  let q () =
    Quantum.make ~instrs:1000
      ~branch_pcs:(Array.make 64 0x99)
      ~branch_taken:(Array.init 64 (fun _ -> Stats.Rng.bool rng))
      ()
  in
  for _ = 1 to 5 do
    ignore (Cpu.run cpu (q ()))
  done;
  let r = Cpu.run cpu (q ()) in
  Alcotest.(check bool) "random branches cost FE" true (r.Cpu.breakdown.Breakdown.fe > 10.0);
  Alcotest.(check bool) "mispredicts counted" true (r.Cpu.branch_mispredicts > 5.0)

let test_cpu_ref_weight_scales_exe () =
  let run weight =
    let cpu = Cpu.create Config.itanium2 in
    let q =
      Quantum.make ~instrs:1000
        ~ref_addrs:(Array.init 32 (fun i -> 0x100000 * (i + 1)))
        ~ref_weight:weight ()
    in
    (Cpu.run cpu q).Cpu.breakdown.Breakdown.exe
  in
  let e1 = run 1.0 and e4 = run 4.0 in
  Alcotest.(check (float 1e-6)) "exe scales with ref weight" (4.0 *. e1) e4

let test_cpu_extra_other_cycles () =
  let cpu = Cpu.create Config.itanium2 in
  let q = Quantum.make ~instrs:100 ~extra_other_cycles:123.0 () in
  let r = Cpu.run cpu q in
  Alcotest.(check bool) "other includes extra" true (r.Cpu.breakdown.Breakdown.other >= 123.0)

let test_cpu_pollute_evicts () =
  let cpu = Cpu.create Config.itanium2 in
  (* Fill some lines, pollute fully, expect at least one to be gone. *)
  let addrs = Array.init 256 (fun i -> i * 64) in
  ignore (Cpu.run cpu (Quantum.make ~instrs:100 ~ref_addrs:addrs ()));
  Cpu.pollute cpu ~fraction:1.0;
  let r = Cpu.run cpu (Quantum.make ~instrs:100 ~ref_addrs:addrs ()) in
  Alcotest.(check bool) "pollution causes repeat misses" true (r.Cpu.dcache_misses > 0.0)

let test_quantum_validation () =
  Alcotest.check_raises "bad instrs" (Invalid_argument "Quantum.make: instrs must be positive")
    (fun () -> ignore (Quantum.make ~instrs:0 ()));
  Alcotest.check_raises "bad arrays"
    (Invalid_argument "Quantum.make: branch_taken length mismatch") (fun () ->
      ignore (Quantum.make ~instrs:1 ~branch_pcs:[| 1 |] ()))

let () =
  Alcotest.run "march"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "miss rate" `Quick test_cache_miss_rate;
          Alcotest.test_case "working-set ordering" `Quick test_cache_working_set_ordering;
          Alcotest.test_case "probe is read-only" `Quick test_cache_probe_no_state_change;
          Alcotest.test_case "clear" `Quick test_cache_clear;
          Alcotest.test_case "rejects bad geometry" `Quick test_cache_rejects_geometry;
          Alcotest.test_case "rejects negative address" `Quick test_cache_rejects_negative_address;
        ] );
      ( "branch",
        [
          Alcotest.test_case "learns bias" `Quick test_branch_learns_bias;
          Alcotest.test_case "random ~50%" `Quick test_branch_random_mispredicts;
          Alcotest.test_case "learns alternation" `Quick test_branch_alternating_learned;
          Alcotest.test_case "counts" `Quick test_branch_counts;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "LRU" `Quick test_tlb_lru;
          Alcotest.test_case "cold fill order" `Quick test_tlb_cold_fill_order;
          Alcotest.test_case "hit refreshes victim" `Quick test_tlb_hit_refreshes_victim;
          Alcotest.test_case "one entry" `Quick test_tlb_one_entry;
          Alcotest.test_case "miss count" `Quick test_tlb_miss_count;
          Alcotest.test_case "page boundaries" `Quick test_tlb_page_boundaries;
          Alcotest.test_case "rejects negative address" `Quick test_tlb_rejects_negative_address;
        ] );
      ( "reference_equivalence",
        List.map QCheck_alcotest.to_alcotest
          (List.map prop_tlb_equals_reference tlb_geometries
          @ List.map prop_cache_equals_reference cache_geometries) );
      ( "config",
        [
          Alcotest.test_case "presets valid" `Quick test_config_presets_valid;
          Alcotest.test_case "by_name" `Quick test_config_by_name;
          Alcotest.test_case "p4 lacks L3" `Quick test_config_p4_has_no_l3;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hierarchy_levels;
          Alcotest.test_case "L2 after L1 eviction" `Quick test_hierarchy_l2_after_l1_eviction;
          Alcotest.test_case "memory counter" `Quick test_hierarchy_mem_counter;
          Alcotest.test_case "latencies" `Quick test_hierarchy_p4_misses_cost_memory;
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "arithmetic" `Quick test_breakdown_arith;
          Alcotest.test_case "per instr" `Quick test_breakdown_per_instr;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "base CPI floor" `Quick test_cpu_base_cpi_floor;
          Alcotest.test_case "misses raise CPI" `Quick test_cpu_misses_raise_cpi;
          Alcotest.test_case "breakdown sums to cycles" `Quick test_cpu_breakdown_total_equals_cycles;
          Alcotest.test_case "mispredicts feed FE" `Quick test_cpu_mispredicts_feed_fe;
          Alcotest.test_case "ref weight scales EXE" `Quick test_cpu_ref_weight_scales_exe;
          Alcotest.test_case "extra other cycles" `Quick test_cpu_extra_other_cycles;
          Alcotest.test_case "pollute evicts" `Quick test_cpu_pollute_evicts;
          Alcotest.test_case "quantum validation" `Quick test_quantum_validation;
        ] );
    ]
