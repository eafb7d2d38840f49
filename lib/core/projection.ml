module Bgp = Ef_bgp
module Snapshot = Ef_collector.Snapshot

type placement = {
  placed_prefix : Bgp.Prefix.t;
  rate_bps : float;
  route : Bgp.Route.t;
  iface_id : int;
  overridden : bool;
}

(* Unroutable prefixes with their rates, in the snapshot's consideration
   order (rate desc, prefix asc). Kept as a set so the incremental path
   can retract/re-add one prefix and re-fold the remainder in exactly the
   float-addition sequence a cold [project] performs. *)
module RSet = Set.Make (struct
  type t = Bgp.Prefix.t * float

  let compare (pa, ra) (pb, rb) =
    let c = Float.compare rb ra in
    if c <> 0 then c else Bgp.Prefix.compare pa pb
end)

(* Interface loads and the overridden-traffic aggregate accumulate in
   integer millibps. Integer addition is associative, so adding and
   subtracting single placements — the incremental path — lands on
   exactly the value a cold fold over the same set computes, in any
   order; float accumulation would make the result depend on insertion
   history. Milli-resolution keeps quantization (≤ 1 mbps per placement)
   far below anything a threshold can see; int64 gives ~9 Pbps of range. *)
let mbps_of_bps r = Int64.of_float (r *. 1000.0)
let bps_of_mbps m = Int64.to_float m /. 1000.0

type t = {
  ifaces : Ef_netsim.Iface.t list;
  loads : int64 array; (* indexed by iface id, millibps *)
  placements : placement Bgp.Ptrie.t;
  total_bps : float;
  overridden_m : int64; (* millibps on overridden placements *)
  unroutable_bps : float;
  unplaced : RSet.t;
  stale : Bgp.Prefix.t list; (* ascending prefix order *)
}

let max_iface_id ifaces =
  List.fold_left (fun acc i -> max acc (Ef_netsim.Iface.id i)) (-1) ifaces

(* Decide one prefix's route exactly the way the full pass does: honour an
   override only if that neighbor still offers a candidate; a stale
   override falls back to the preferred route and is reported. Shared by
   the cold pass and [Working.apply_dirty] so the two paths cannot
   diverge. *)
let choose_route ~overrides ~candidates prefix =
  match overrides prefix with
  | Some want -> (
      let still_valid =
        List.find_opt
          (fun r -> Bgp.Route.peer_id r = Bgp.Route.peer_id want)
          candidates
      in
      match still_valid with
      | Some r -> (Some r, true, false)
      | None -> (
          match candidates with
          | [] -> (None, false, true)
          | r :: _ -> (Some r, false, true)))
  | None -> (
      match candidates with [] -> (None, false, false) | r :: _ -> (Some r, false, false))

(* --- the cold pass -------------------------------------------------------

   One path at every shard count. The snapshot's rated prefixes, in
   ascending prefix order ({!Snapshot.rates_by_prefix}), split into
   contiguous ranges — a single range on the calling domain when serial,
   one per pool lane when sharded — and each range is decided into
   private scratch: an int64 loads array, its placements and stale
   prefixes in range order, its unplaced pairs. Decisions are per prefix,
   so their order is free; the merge is deterministic by construction:

   - loads and overridden_m accumulate in integer millibps, and integer
     addition is associative and commutative, so the ranges' partial sums
     add to the same value however the table is split or ordered;
   - the ranges' placements, concatenated, are in ascending prefix order,
     so the placement trie comes straight from the bulk constructor (a
     prefix rated twice sits in adjacent slots in canonical order, and
     the last wins, as in a fold over the canonical order);
   - the unplaced set is content-determined, and unroutable_bps folds it
     in its canonical (rate desc, prefix asc) order;
   - total_bps is the snapshot's own precomputed fold.

   Candidate ranking goes through [Snapshot.routes_uncached] on the
   workers (the memo Hashtbl is not safe for concurrent writes); each
   range writes its answers into its own slots of one array, which the
   calling domain hands to [Snapshot.prime_ranked] afterwards, so the
   relief loop and guard see the same cache hits at any shard count.
   [overrides] runs on worker domains when sharded — it must be pure. *)

let shard_pool ~shards =
  if shards <= 1 || Ef_util.Pool.in_task () then None
  else Some (Ef_util.Pool.global ~jobs:shards ())

type range = {
  r_loads : int64 array;
  r_overridden : int64;
  r_placed : placement list; (* descending prefix *)
  r_unplaced : (Bgp.Prefix.t * float) list;
  r_stale : Bgp.Prefix.t list; (* descending prefix *)
}

(* [ranked] is shared: each range writes only its own slots *)
let decide_range ~overrides ~width snapshot rated ranked (lo, hi) =
  let loads = Array.make width 0L in
  let overridden_m = ref 0L in
  let placed = ref [] and unplaced = ref [] and stale = ref [] in
  for i = lo to hi - 1 do
    let prefix, rate = rated.(i) in
    let candidates = Snapshot.routes_uncached snapshot prefix in
    ranked.(i) <- candidates;
    let route, overridden, is_stale = choose_route ~overrides ~candidates prefix in
    if is_stale then stale := prefix :: !stale;
    let iface =
      match route with
      | None -> None
      | Some route -> Snapshot.iface_of_route snapshot route
    in
    match (route, iface) with
    | Some route, Some iface ->
        let iface_id = Ef_netsim.Iface.id iface in
        let m = mbps_of_bps rate in
        loads.(iface_id) <- Int64.add loads.(iface_id) m;
        if overridden then overridden_m := Int64.add !overridden_m m;
        placed :=
          { placed_prefix = prefix; rate_bps = rate; route; iface_id; overridden }
          :: !placed
    | _ -> unplaced := (prefix, rate) :: !unplaced
  done;
  {
    r_loads = loads;
    r_overridden = !overridden_m;
    r_placed = !placed;
    r_unplaced = !unplaced;
    r_stale = !stale;
  }

let project ?(overrides = fun _ -> None) ?(shards = 1) snapshot =
  let rated = Snapshot.rates_by_prefix snapshot in
  let ifaces = Snapshot.ifaces snapshot in
  let width = max_iface_id ifaces + 1 in
  let ranked = Array.make (Array.length rated) [] in
  let ranges =
    Ef_util.Pool.map_ranges (shard_pool ~shards) ~n:(Array.length rated)
      (decide_range ~overrides ~width snapshot rated ranked)
  in
  Snapshot.prime_ranked snapshot ranked;
  let loads = Array.make width 0L in
  let overridden_m = ref 0L in
  List.iter
    (fun rg ->
      for id = 0 to width - 1 do
        loads.(id) <- Int64.add loads.(id) rg.r_loads.(id)
      done;
      overridden_m := Int64.add !overridden_m rg.r_overridden)
    ranges;
  (* back to front over ranges whose lists run back to front *)
  let ascending field =
    List.fold_left (fun acc rg -> List.rev_append (field rg) acc) [] (List.rev ranges)
  in
  let placed = Array.of_list (ascending (fun rg -> rg.r_placed)) in
  (* a prefix rated twice can be stale twice *)
  let stale =
    List.fold_left
      (fun acc p ->
        match acc with q :: _ when Bgp.Prefix.equal p q -> acc | _ -> p :: acc)
      [] (ascending (fun rg -> rg.r_stale))
    |> List.rev
  in
  let unplaced = RSet.of_list (List.concat_map (fun rg -> rg.r_unplaced) ranges) in
  let unroutable = [| 0.0 |] in
  RSet.iter (fun (_, r) -> unroutable.(0) <- unroutable.(0) +. r) unplaced;
  {
    ifaces;
    loads;
    placements =
      Bgp.Ptrie.init_sorted (Array.length placed)
        (fun i -> placed.(i).placed_prefix)
        (fun i -> placed.(i));
    total_bps = Snapshot.total_rate_bps snapshot;
    overridden_m = !overridden_m;
    unroutable_bps = unroutable.(0);
    unplaced;
    stale;
  }

let load_bps t ~iface_id =
  if iface_id < 0 || iface_id >= Array.length t.loads then 0.0
  else bps_of_mbps t.loads.(iface_id)

let utilization t iface =
  load_bps t ~iface_id:(Ef_netsim.Iface.id iface)
  /. Ef_netsim.Iface.capacity_bps iface

let overloaded_by t ~threshold_of =
  t.ifaces
  |> List.filter_map (fun iface ->
         let u = utilization t iface in
         if u > threshold_of (Ef_netsim.Iface.id iface) then Some (iface, u)
         else None)
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let overloaded t ~threshold = overloaded_by t ~threshold_of:(fun _ -> threshold)

let placements t =
  Bgp.Ptrie.fold (fun _ pl acc -> pl :: acc) t.placements []

(* Total order: rate descending, then prefix ascending. Rate alone left
   ties to fold order, which made allocator decisions (and golden traces)
   depend on trie shape; the prefix tiebreak makes them byte-stable. *)
let compare_placement a b =
  let c = Float.compare b.rate_bps a.rate_bps in
  if c <> 0 then c else Bgp.Prefix.compare a.placed_prefix b.placed_prefix

let placements_on t ~iface_id =
  placements t
  |> List.filter (fun pl -> pl.iface_id = iface_id)
  |> List.sort compare_placement

let placement_of t prefix = Bgp.Ptrie.find prefix t.placements

let move t prefix ~to_route ~to_iface =
  match Bgp.Ptrie.find prefix t.placements with
  | None -> invalid_arg "Projection.move: prefix has no placement"
  | Some pl ->
      let loads = Array.copy t.loads in
      let m = mbps_of_bps pl.rate_bps in
      loads.(pl.iface_id) <- Int64.sub loads.(pl.iface_id) m;
      loads.(to_iface) <- Int64.add loads.(to_iface) m;
      let overridden_m =
        if pl.overridden then t.overridden_m else Int64.add t.overridden_m m
      in
      let pl' = { pl with route = to_route; iface_id = to_iface; overridden = true } in
      { t with loads; overridden_m; placements = Bgp.Ptrie.add prefix pl' t.placements }

let add_placement t ~prefix ~rate_bps ~route ~iface_id ~overridden =
  let loads = Array.copy t.loads in
  let m = mbps_of_bps rate_bps in
  loads.(iface_id) <- Int64.add loads.(iface_id) m;
  let overridden_m =
    if overridden then Int64.add t.overridden_m m else t.overridden_m
  in
  let pl = { placed_prefix = prefix; rate_bps; route; iface_id; overridden } in
  { t with loads; overridden_m; placements = Bgp.Ptrie.add prefix pl t.placements }

let remove_placement t prefix =
  match Bgp.Ptrie.find prefix t.placements with
  | None -> t
  | Some pl ->
      let loads = Array.copy t.loads in
      let m = mbps_of_bps pl.rate_bps in
      loads.(pl.iface_id) <- Int64.sub loads.(pl.iface_id) m;
      let overridden_m =
        if pl.overridden then Int64.sub t.overridden_m m else t.overridden_m
      in
      { t with loads; overridden_m; placements = Bgp.Ptrie.remove prefix t.placements }

let total_bps t = t.total_bps
let overridden_bps t = bps_of_mbps t.overridden_m
let unroutable_bps t = t.unroutable_bps
let stale_overrides t = t.stale
let ifaces t = t.ifaces

let iface_loads t =
  List.map (fun iface -> (iface, load_bps t ~iface_id:(Ef_netsim.Iface.id iface))) t.ifaces

(* ---------------------------------------------------------------------- *)
(* Working view: the allocator's mutable scratch projection.              *)
(* ---------------------------------------------------------------------- *)

module Working = struct
  module PSet = Set.Make (struct
    type nonrec t = placement

    let compare = compare_placement
  end)

  type proj = t

  type t = {
    mutable w_ifaces : Ef_netsim.Iface.t list;
    mutable w_loads : int64 array; (* millibps, updated in place *)
    mutable w_placements : placement Bgp.Ptrie.t;
    mutable w_by_iface : PSet.t array;
        (* iface id -> placements, (rate desc, prefix); replaced (with
           w_loads) only when an added interface grows the id universe *)
    mutable w_total : float;
    mutable w_overridden : int64;
    mutable w_unroutable : float;
    mutable w_unplaced : RSet.t;
    mutable w_stale : unit Bgp.Ptrie.t;
    mutable w_touched : int list; (* iface ids with load changes, undrained *)
  }

  (* The per-iface placement index: placements bucketed by interface in
     one trie walk, then one bulk [PSet.of_list] per interface, the
     interfaces fanned out over the pool when sharded. Sets are
     content-determined, so every observable (elements, to_seq, fold) is
     the same at any shard count. *)
  let of_projection ?(shards = 1) (p : proj) =
    let width = Array.length p.loads in
    let buckets = Array.make width [] in
    Bgp.Ptrie.iter
      (fun _ pl -> buckets.(pl.iface_id) <- pl :: buckets.(pl.iface_id))
      p.placements;
    let index id = PSet.of_list buckets.(id) in
    let ids = List.init width Fun.id in
    let by_iface =
      Array.of_list
        (match shard_pool ~shards with
        | None -> List.map index ids
        | Some pool -> Ef_util.Pool.map pool index ids)
    in
    let stale = Array.of_list p.stale in
    {
      w_ifaces = p.ifaces;
      w_loads = Array.copy p.loads;
      w_placements = p.placements;
      w_by_iface = by_iface;
      w_total = p.total_bps;
      w_overridden = p.overridden_m;
      w_unroutable = p.unroutable_bps;
      w_unplaced = p.unplaced;
      w_stale =
        Bgp.Ptrie.init_sorted (Array.length stale) (Array.get stale) (fun _ -> ());
      w_touched = [];
    }

  let copy w =
    {
      w_ifaces = w.w_ifaces;
      w_loads = Array.copy w.w_loads;
      w_placements = w.w_placements;
      w_by_iface = Array.copy w.w_by_iface;
      w_total = w.w_total;
      w_overridden = w.w_overridden;
      w_unroutable = w.w_unroutable;
      w_unplaced = w.w_unplaced;
      w_stale = w.w_stale;
      w_touched = [];
    }

  let seal w : proj =
    {
      ifaces = w.w_ifaces;
      loads = Array.copy w.w_loads;
      placements = w.w_placements;
      total_bps = w.w_total;
      overridden_m = w.w_overridden;
      unroutable_bps = w.w_unroutable;
      unplaced = w.w_unplaced;
      stale = Bgp.Ptrie.keys w.w_stale;
    }

  let load_bps w ~iface_id =
    if iface_id < 0 || iface_id >= Array.length w.w_loads then 0.0
    else bps_of_mbps w.w_loads.(iface_id)

  let touch w iface_id = w.w_touched <- iface_id :: w.w_touched

  let drain_touched w =
    let t = w.w_touched in
    w.w_touched <- [];
    t

  let placement_of w prefix = Bgp.Ptrie.find prefix w.w_placements

  let placements_on w ~iface_id =
    if iface_id < 0 || iface_id >= Array.length w.w_by_iface then []
    else PSet.elements w.w_by_iface.(iface_id)

  let placements_seq w ~iface_id =
    if iface_id < 0 || iface_id >= Array.length w.w_by_iface then Seq.empty
    else PSet.to_seq w.w_by_iface.(iface_id)

  let placements_rev_seq w ~iface_id =
    if iface_id < 0 || iface_id >= Array.length w.w_by_iface then Seq.empty
    else PSet.to_rev_seq w.w_by_iface.(iface_id)

  let move w prefix ~to_route ~to_iface =
    match Bgp.Ptrie.find prefix w.w_placements with
    | None -> invalid_arg "Projection.Working.move: prefix has no placement"
    | Some pl ->
        let m = mbps_of_bps pl.rate_bps in
        w.w_loads.(pl.iface_id) <- Int64.sub w.w_loads.(pl.iface_id) m;
        w.w_loads.(to_iface) <- Int64.add w.w_loads.(to_iface) m;
        if not pl.overridden then w.w_overridden <- Int64.add w.w_overridden m;
        touch w pl.iface_id;
        touch w to_iface;
        let pl' =
          { pl with route = to_route; iface_id = to_iface; overridden = true }
        in
        w.w_by_iface.(pl.iface_id) <- PSet.remove pl w.w_by_iface.(pl.iface_id);
        w.w_by_iface.(to_iface) <- PSet.add pl' w.w_by_iface.(to_iface);
        w.w_placements <- Bgp.Ptrie.add prefix pl' w.w_placements

  let add_placement w ~prefix ~rate_bps ~route ~iface_id ~overridden =
    let m = mbps_of_bps rate_bps in
    w.w_loads.(iface_id) <- Int64.add w.w_loads.(iface_id) m;
    if overridden then w.w_overridden <- Int64.add w.w_overridden m;
    touch w iface_id;
    let pl = { placed_prefix = prefix; rate_bps; route; iface_id; overridden } in
    w.w_by_iface.(iface_id) <- PSet.add pl w.w_by_iface.(iface_id);
    w.w_placements <- Bgp.Ptrie.add prefix pl w.w_placements

  let remove_placement w prefix =
    match Bgp.Ptrie.find prefix w.w_placements with
    | None -> ()
    | Some pl ->
        let m = mbps_of_bps pl.rate_bps in
        w.w_loads.(pl.iface_id) <- Int64.sub w.w_loads.(pl.iface_id) m;
        if pl.overridden then w.w_overridden <- Int64.sub w.w_overridden m;
        touch w pl.iface_id;
        w.w_by_iface.(pl.iface_id) <- PSet.remove pl w.w_by_iface.(pl.iface_id);
        w.w_placements <- Bgp.Ptrie.remove prefix w.w_placements

  let apply_dirty w ~snapshot ?(overrides = fun _ -> None) ~dirty () =
    (* Retract every dirty prefix from wherever it currently sits —
       placed, unroutable, or stale. Loads move by the placement's exact
       integer contribution, so no re-summation is ever needed. *)
    List.iter
      (fun (ch : Snapshot.change) ->
        let prefix = ch.Snapshot.ch_prefix in
        (match Bgp.Ptrie.find prefix w.w_placements with
        | Some _ -> remove_placement w prefix
        | None -> (
            match ch.Snapshot.ch_old_rate with
            | Some r -> w.w_unplaced <- RSet.remove (prefix, r) w.w_unplaced
            | None -> ()));
        w.w_stale <- Bgp.Ptrie.remove prefix w.w_stale)
      dirty;
    (* Re-place the ones still rated, with the cold pass's decision rule. *)
    List.iter
      (fun (ch : Snapshot.change) ->
        match ch.Snapshot.ch_new_rate with
        | None -> ()
        | Some rate -> (
            let prefix = ch.Snapshot.ch_prefix in
            let candidates = Snapshot.routes snapshot prefix in
            let route, overridden, is_stale =
              choose_route ~overrides ~candidates prefix
            in
            if is_stale then w.w_stale <- Bgp.Ptrie.add prefix () w.w_stale;
            let placed =
              match route with
              | None -> None
              | Some route -> (
                  match Snapshot.iface_of_route snapshot route with
                  | None -> None
                  | Some iface -> Some (route, Ef_netsim.Iface.id iface))
            in
            match placed with
            | None -> w.w_unplaced <- RSet.add (prefix, rate) w.w_unplaced
            | Some (route, iface_id) ->
                add_placement w ~prefix ~rate_bps:rate ~route ~iface_id
                  ~overridden))
      dirty;
    (* Aggregates the integer bookkeeping doesn't cover: total is the
       snapshot's canonical fold (the same float the cold pass takes),
       unroutable re-folds the unplaced set in its (rate desc, prefix)
       order — the cold pass's fold of the same set. *)
    w.w_total <- Snapshot.total_rate_bps snapshot;
    let unroutable = [| 0.0 |] in
    RSet.iter (fun (_, r) -> unroutable.(0) <- unroutable.(0) +. r) w.w_unplaced;
    w.w_unroutable <- unroutable.(0);
    w.w_ifaces <- Snapshot.ifaces snapshot

  (* --- interface-set deltas -------------------------------------------

     The affected set of an interface change is exact, not heuristic,
     because [choose_route] follows only the head candidate (or a
     still-valid override) and a placement whose interface does not
     resolve goes unplaced rather than falling through to the next
     candidate:

     - a REMOVED interface can only change prefixes currently placed on
       it (their chosen route stops resolving) — found in O(affected)
       via the per-iface placement index;
     - an ADDED interface can only change prefixes currently unplaced
       (a placed prefix's chosen route and its resolution are
       untouched) — the unplaced pool is re-decided;
     - a CAPACITY-only change affects nothing here: placement ignores
       capacity, and thresholds re-derive from the snapshot every
       allocator run.

     Each op builds synthetic dirty records carrying the image's own
     rates (rate churn arrives separately through the regular dirty
     list) and delegates to [apply_dirty], so the decision rule is the
     cold pass's by construction and the result stays byte-identical. *)

  let ensure_width w width =
    if width > Array.length w.w_loads then begin
      let loads = Array.make width 0L in
      Array.blit w.w_loads 0 loads 0 (Array.length w.w_loads);
      let by = Array.make width PSet.empty in
      Array.blit w.w_by_iface 0 by 0 (Array.length w.w_by_iface);
      w.w_loads <- loads;
      w.w_by_iface <- by
    end

  let change_of ~prefix ~rate =
    {
      Snapshot.ch_prefix = prefix;
      ch_old_rate = Some rate;
      ch_new_rate = Some rate;
      ch_routes = false;
    }

  let remove_iface w ~snapshot ?overrides ~iface_id () =
    ensure_width w (Snapshot.max_iface_id snapshot + 1);
    let dirty =
      if iface_id < 0 || iface_id >= Array.length w.w_by_iface then []
      else
        PSet.fold
          (fun pl acc ->
            change_of ~prefix:pl.placed_prefix ~rate:pl.rate_bps :: acc)
          w.w_by_iface.(iface_id) []
    in
    apply_dirty w ~snapshot ?overrides ~dirty ()

  let add_iface w ~snapshot ?overrides ~iface_id:_ () =
    ensure_width w (Snapshot.max_iface_id snapshot + 1);
    let dirty =
      RSet.fold
        (fun (prefix, rate) acc -> change_of ~prefix ~rate :: acc)
        w.w_unplaced []
    in
    apply_dirty w ~snapshot ?overrides ~dirty ()

  let apply_iface_delta w ~snapshot ?overrides ~delta () =
    ensure_width w (Snapshot.max_iface_id snapshot + 1);
    let added = ref false in
    List.iter
      (fun (ic : Snapshot.iface_change) ->
        match (ic.Snapshot.ic_old_capacity, ic.Snapshot.ic_new_capacity) with
        | Some _, None ->
            remove_iface w ~snapshot ?overrides ~iface_id:ic.Snapshot.ic_id ()
        | None, Some _ -> added := true
        | Some _, Some _ | None, None -> ())
      delta;
    (* one unplaced-pool pass covers every added interface (and is
       idempotent for prefixes the removals just unplaced: re-deciding
       with the same inputs retracts and re-adds the same set entry) *)
    if !added then add_iface w ~snapshot ?overrides ~iface_id:(-1) ()
end
