module Gv = Stats.Growvec

type t = {
  mutable instr_total : int;
  (* Per-region tally: [region_ids.(i)] has [region_counts.(i)] instrs,
     for i < [n_regions], in first-seen order.  A quantum touches a
     handful of regions, so a linear scan beats hashing. *)
  mutable region_ids : int array;
  mutable region_counts : int array;
  mutable n_regions : int;
  addrs : Gv.Int.t;
  writes : Gv.Bool.t;
  branch_pcs : Gv.Int.t;
  branch_taken : Gv.Bool.t;
  mutable io : int;
  mutable extra_refs : int;
  mutable extra_branches : int;
}

type drained = {
  instrs : int;
  region_instrs : (int * int) array;
  addrs : int array;
  writes : bool array;
  branch_pcs : int array;
  branch_taken : bool array;
  io_waits : int;
  extra_refs : int;
  extra_branches : int;
}

let create () =
  {
    instr_total = 0;
    region_ids = Array.make 16 0;
    region_counts = Array.make 16 0;
    n_regions = 0;
    addrs = Gv.Int.create ~capacity:1024 ();
    writes = Gv.Bool.create ~capacity:1024 ();
    branch_pcs = Gv.Int.create ~capacity:256 ();
    branch_taken = Gv.Bool.create ~capacity:256 ();
    io = 0;
    extra_refs = 0;
    extra_branches = 0;
  }

let instrs (t : t) ~region n =
  if n < 0 then invalid_arg "Sink.instrs: negative count";
  t.instr_total <- t.instr_total + n;
  let ids = t.region_ids in
  let i = ref 0 in
  while !i < t.n_regions && Array.unsafe_get ids !i <> region do
    incr i
  done;
  if !i < t.n_regions then t.region_counts.(!i) <- t.region_counts.(!i) + n
  else begin
    if t.n_regions = Array.length ids then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      t.region_ids <- grow ids;
      t.region_counts <- grow t.region_counts
    end;
    t.region_ids.(t.n_regions) <- region;
    t.region_counts.(t.n_regions) <- n;
    t.n_regions <- t.n_regions + 1
  end

let data_ref (t : t) ?(write = false) addr =
  Gv.Int.push t.addrs addr;
  Gv.Bool.push t.writes write

let branch (t : t) ~pc ~taken =
  Gv.Int.push t.branch_pcs pc;
  Gv.Bool.push t.branch_taken taken

let io_wait (t : t) = t.io <- t.io + 1

let account_refs (t : t) n =
  if n < 0 then invalid_arg "Sink.account_refs: negative count";
  t.extra_refs <- t.extra_refs + n

let account_branches (t : t) n =
  if n < 0 then invalid_arg "Sink.account_branches: negative count";
  t.extra_branches <- t.extra_branches + n
let total_instrs (t : t) = t.instr_total
let n_refs (t : t) = Gv.Int.length t.addrs
let io_waits (t : t) = t.io

let drain (t : t) =
  let d =
    {
      instrs = t.instr_total;
      region_instrs =
        (* Region order feeds RNG draws and feature interning downstream:
           sorted by region id, not first-seen order. *)
        (let a = Array.init t.n_regions (fun i -> (t.region_ids.(i), t.region_counts.(i))) in
         Array.sort (fun (r, _) (r', _) -> Int.compare r r') a;
         a);
      addrs = Gv.Int.to_array t.addrs;
      writes = Gv.Bool.to_array t.writes;
      branch_pcs = Gv.Int.to_array t.branch_pcs;
      branch_taken = Gv.Bool.to_array t.branch_taken;
      io_waits = t.io;
      extra_refs = t.extra_refs;
      extra_branches = t.extra_branches;
    }
  in
  t.instr_total <- 0;
  t.n_regions <- 0;
  Gv.Int.clear t.addrs;
  Gv.Bool.clear t.writes;
  Gv.Int.clear t.branch_pcs;
  Gv.Bool.clear t.branch_taken;
  t.io <- 0;
  t.extra_refs <- 0;
  t.extra_branches <- 0;
  d
