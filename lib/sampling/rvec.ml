type t = {
  rows : Stats.Sparse_vec.t array;
  cpis : float array;
  region_of_feature : int array;
  n_features : int;
}

let build (run : Driver.run) ~samples_per_interval =
  if samples_per_interval <= 0 then
    invalid_arg "Rvec.build: samples_per_interval must be positive";
  let samples = run.Driver.samples in
  let n_intervals = Array.length samples / samples_per_interval in
  if n_intervals = 0 then invalid_arg "Rvec.build: not enough samples for one interval";
  let feature_of_region = Hashtbl.create 64 in
  let regions = ref [] and next = ref 0 in
  let intern region =
    match Hashtbl.find_opt feature_of_region region with
    | Some f -> f
    | None ->
        let f = !next in
        incr next;
        Hashtbl.add feature_of_region region f;
        regions := region :: !regions;
        f
  in
  let rows = Array.make n_intervals Stats.Sparse_vec.empty in
  let cpis = Array.make n_intervals 0.0 in
  for j = 0 to n_intervals - 1 do
    let counts = Hashtbl.create 16 in
    let instrs = ref 0 and cycles = ref 0.0 in
    for s = j * samples_per_interval to ((j + 1) * samples_per_interval) - 1 do
      let smp = samples.(s) in
      instrs := !instrs + smp.Driver.instrs;
      cycles := !cycles +. smp.Driver.cycles;
      Array.iter
        (fun (region, n) ->
          let f = intern region in
          let cur = try Hashtbl.find counts f with Not_found -> 0.0 in
          Hashtbl.replace counts f (cur +. (float_of_int n /. 1e6)))
        smp.Driver.region_instrs
    done;
    rows.(j) <-
      Stats.Sparse_vec.of_assoc (Stats.Det.hashtbl_bindings counts);
    cpis.(j) <- !cycles /. float_of_int (Int.max 1 !instrs)
  done;
  { rows; cpis; region_of_feature = Array.of_list (List.rev !regions); n_features = !next }

let dataset t = Rtree.Dataset.make ~rows:t.rows ~y:t.cpis

