module Bgp = Ef_bgp

(* Rated prefixes in the canonical consideration order: rate descending,
   prefix ascending. A total order (no ties), so every consumer that
   iterates rates — projection, allocator, trace — sees one byte-stable
   sequence however the snapshot was built (fresh assembly or a chain of
   patches). *)
module RSet = Set.Make (struct
  type t = Bgp.Prefix.t * float

  let compare (pa, ra) (pb, rb) =
    let c = Float.compare rb ra in
    if c <> 0 then c else Bgp.Prefix.compare pa pb
end)

type change = {
  ch_prefix : Bgp.Prefix.t;
  ch_old_rate : float option;
  ch_new_rate : float option;
  ch_routes : bool;
}

type iface_change = {
  ic_id : int;
  ic_old_capacity : float option;
  ic_new_capacity : float option;
}

type diff = {
  changes : change list;
  iface_changes : iface_change list;
  linked : bool;
}

type t = {
  time_s : int;
  prefix_rates : (Bgp.Prefix.t * float) list Lazy.t;
  by_prefix : (Bgp.Prefix.t * float) array Lazy.t;
      (* the rated set in ascending prefix order *)
  rate_set : RSet.t;
  rate_trie : float Bgp.Ptrie.t;
  routes : Bgp.Prefix.t -> Bgp.Route.t list;
  routes_memo : (Bgp.Prefix.t, Bgp.Route.t list) Hashtbl.t;
  mutable ranked : Bgp.Route.t list array;
      (* candidates of [by_prefix], slot for slot, once a cold pass has
         ranked them all; [||] before *)
  ifaces : Ef_netsim.Iface.t list;
  iface_index : Ef_netsim.Iface.t option array; (* indexed by iface id *)
  iface_id_of_peer : int -> int option;
  total_rate_bps : float;
  prefix_count : int;
  stamp : int; (* unique per snapshot; parent links are by stamp *)
  parent : (int * change list * iface_change list) option;
      (* parent stamp + recorded dirty set + recorded iface delta *)
}

let stamps = Atomic.make 0
let next_stamp () = Atomic.fetch_and_add stamps 1

let index_ifaces ifaces =
  let max_id =
    List.fold_left (fun acc i -> max acc (Ef_netsim.Iface.id i)) (-1) ifaces
  in
  let index = Array.make (max_id + 1) None in
  List.iter (fun i -> index.(Ef_netsim.Iface.id i) <- Some i) ifaces;
  index

let compare_rated (pa, ra) (pb, rb) =
  let c = Float.compare rb ra in
  if c <> 0 then c else Bgp.Prefix.compare pa pb

(* Interface-set delta between two indexes, ascending id order (the one
   deterministic order both sides of a diff agree on). Identity is
   (id, capacity): a re-made interface with the same id and capacity is
   not a change — placement resolves by id and thresholds re-derive from
   capacity every run, so nothing downstream can observe it. *)
let iface_delta prev_index next_index =
  let cap a i =
    if i >= Array.length a then None
    else Option.map Ef_netsim.Iface.capacity_bps a.(i)
  in
  let width = max (Array.length prev_index) (Array.length next_index) in
  let acc = ref [] in
  for id = width - 1 downto 0 do
    let o = cap prev_index id and n = cap next_index id in
    if o <> n then
      acc := { ic_id = id; ic_old_capacity = o; ic_new_capacity = n } :: !acc
  done;
  !acc

(* --- table build --------------------------------------------------------

   One path at every pool size: without a pool (or below [par_threshold]
   prefixes) the build below runs as a single chunk on the calling
   domain.

   - Canonical order: input chunks are filtered and stably sorted per
     domain, then merged pairwise (left-first on ties — but compare_rated
     ties are structurally equal pairs, so tie order cannot be observed).
   - Rated set: contiguous ranges of the sorted order build RSet shards
     bottom-up that union cheaply, each being a separated interval of
     the set's comparator.
   - Prefix order, for the rate trie and {!rates_by_prefix}: full-table
     feeds (Dfz.current_rates) arrive prefix-ascending already, which one
     O(n) pass confirms; anything else is sorted on the packed int key,
     ties kept in canonical order. The trie is then built bottom-up in one
     pass, and a duplicated prefix keeps the pair that comes last in
     canonical order — the winner of a fold of [Ptrie.add] over the
     sorted list.
   - The float total is folded serially over the merged array: the one
     exact addition sequence every builder, {!patch} included, performs. *)

let par_threshold = 8192

let merge_rated a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) a.(0) in
    let i = ref 0 and j = ref 0 in
    for k = 0 to la + lb - 1 do
      if !i < la && (!j >= lb || compare_rated a.(!i) b.(!j) <= 0) then begin
        out.(k) <- a.(!i);
        incr i
      end
      else begin
        out.(k) <- b.(!j);
        incr j
      end
    done;
    out
  end

let rec merge_runs = function
  | [] -> [||]
  | [ a ] -> a
  | runs ->
      let rec pair = function
        | a :: b :: rest -> merge_rated a b :: pair rest
        | tail -> tail
      in
      merge_runs (pair runs)

(* The set of [a.(lo) .. a.(hi - 1)] by unions of balanced halves: on a
   range sorted in the set's order each union joins two separated sets
   along their spines, so the build is linear where folding [add] is
   n log n. *)
let rec rset_of_sorted a lo hi =
  match hi - lo with
  | len when len <= 0 -> RSet.empty
  | 1 -> RSet.singleton a.(lo)
  | len ->
      let mid = lo + (len / 2) in
      RSet.union (rset_of_sorted a lo mid) (rset_of_sorted a mid hi)

let strictly_ascending rated =
  let n = Array.length rated in
  let rec go i prev =
    i >= n
    ||
    let k = Bgp.Ptrie.key (fst rated.(i)) in
    k > prev && go (i + 1) k
  in
  go 0 (-1)

(* [rated] (canonical order) re-sorted on the packed prefix key, ties
   left in canonical order, structurally equal pairs kept once — the
   rated set's content in ascending prefix order *)
let sort_by_prefix rated =
  let keys = Array.map (fun (p, _) -> Bgp.Ptrie.key p) rated in
  let idx = Array.init (Array.length rated) Fun.id in
  Array.stable_sort (fun i j -> Int.compare keys.(i) keys.(j)) idx;
  let out = ref [] in
  for j = Array.length idx - 1 downto 0 do
    let pr = rated.(idx.(j)) in
    match !out with
    | (p, r) :: _ when Bgp.Prefix.equal p (fst pr) && r = snd pr -> ()
    | _ -> out := pr :: !out
  done;
  Array.of_list !out

let assemble ?obs ?pool ~routes ~iface_of_peer ~ifaces ~prefix_rates ~time_s ()
    =
  let obs = match obs with Some r -> r | None -> Ef_obs.Registry.default () in
  Ef_obs.Span.time ~registry:obs "collector.assemble" @@ fun () ->
  let raw = Array.of_list prefix_rates in
  let n = Array.length raw in
  let pool =
    match pool with
    | Some p
      when Ef_util.Pool.jobs p > 1
           && (not (Ef_util.Pool.in_task ()))
           && n >= par_threshold ->
        Some p
    | _ -> None
  in
  let runs =
    Ef_util.Pool.map_ranges pool ~n (fun (lo, hi) ->
        let kept = ref [] in
        for i = hi - 1 downto lo do
          let (_, r) as pr = raw.(i) in
          if r > 0.0 then kept := pr :: !kept
        done;
        let kept = Array.of_list !kept in
        let sorted = Array.copy kept in
        Array.stable_sort compare_rated sorted;
        (kept, sorted))
  in
  let sorted = merge_runs (List.map snd runs) in
  let prefix_count = Array.length sorted in
  let rate_set =
    Ef_util.Pool.map_ranges pool ~n:prefix_count (fun (lo, hi) ->
        rset_of_sorted sorted lo hi)
    |> List.fold_left RSet.union RSet.empty
  in
  let by_prefix =
    let kept = Array.concat (List.map fst runs) in
    if strictly_ascending kept then kept else sort_by_prefix sorted
  in
  let rate_trie =
    Bgp.Ptrie.init_sorted (Array.length by_prefix)
      (fun i -> fst by_prefix.(i))
      (fun i -> snd by_prefix.(i))
  in
  let total = ref 0.0 in
  Array.iter (fun (_, r) -> total := !total +. r) sorted;
  Ef_obs.Counter.inc (Ef_obs.Registry.counter obs "collector.snapshots");
  Ef_obs.Gauge.set
    (Ef_obs.Registry.gauge obs "collector.snapshot.prefixes")
    (float_of_int prefix_count);
  {
    time_s;
    prefix_rates = lazy (Array.to_list sorted);
    by_prefix = Lazy.from_val by_prefix;
    rate_set;
    rate_trie;
    routes;
    routes_memo = Hashtbl.create 256;
    ranked = [||];
    ifaces;
    iface_index = index_ifaces ifaces;
    iface_id_of_peer =
      (fun peer_id -> Option.map Ef_netsim.Iface.id (iface_of_peer peer_id));
    total_rate_bps = !total;
    prefix_count;
    stamp = next_stamp ();
    parent = None;
  }

let of_pop ?obs ?ifaces pop ~prefix_rates ~time_s =
  let rib = Ef_netsim.Pop.rib pop in
  let pop_ifaces =
    match ifaces with Some l -> l | None -> Ef_netsim.Pop.interfaces pop
  in
  let index = index_ifaces pop_ifaces in
  let iface_by_id id =
    if id < 0 || id >= Array.length index then None else index.(id)
  in
  assemble ?obs
    ~routes:(fun p -> Bgp.Rib.ranked rib p)
    ~iface_of_peer:(fun peer_id ->
      match Ef_netsim.Pop.peer pop peer_id with
      | None -> None
      | Some _ ->
          iface_by_id
            (Ef_netsim.Iface.id (Ef_netsim.Pop.iface_of_peer pop ~peer_id)))
    ~ifaces:pop_ifaces ~prefix_rates ~time_s ()

(* Delta construction: [prev] with some rates replaced and some prefixes'
   candidate routes invalidated. All unchanged structure — the rate trie,
   the rated set, every clean prefix's entry — is shared with [prev]
   (persistent structures), so a 1%-churn patch over a million prefixes
   allocates proportionally to the churn, not the table.

   The one O(n) pass left is the total: it is re-folded over the rated
   set in canonical order, which is the exact float-addition sequence a
   fresh [assemble] of the same content performs — so a patched snapshot
   is byte-identical to an assembled one, not merely close. *)
let patch ?obs ~prev ?routes ?ifaces ?(routes_changed = []) ~rate_updates
    ~time_s () =
  let obs = match obs with Some r -> r | None -> Ef_obs.Registry.default () in
  Ef_obs.Span.time ~registry:obs "collector.patch" @@ fun () ->
  let rate_set = ref prev.rate_set in
  let rate_trie = ref prev.rate_trie in
  let count = ref prev.prefix_count in
  let changes = ref [] in
  (* dirty prefix -> its record's routes flag *)
  let changed = Hashtbl.create (List.length rate_updates + 8) in
  List.iter
    (fun (p, rate) ->
      let old = Bgp.Ptrie.find p !rate_trie in
      let fresh = if rate > 0.0 then Some rate else None in
      if old <> fresh && not (Hashtbl.mem changed p) then begin
        (match old with
        | Some r ->
            rate_set := RSet.remove (p, r) !rate_set;
            decr count
        | None -> ());
        (match fresh with
        | Some r ->
            rate_set := RSet.add (p, r) !rate_set;
            rate_trie := Bgp.Ptrie.add p r !rate_trie;
            incr count
        | None -> rate_trie := Bgp.Ptrie.remove p !rate_trie);
        let routes_flag = ref false in
        Hashtbl.replace changed p routes_flag;
        changes := (p, old, fresh, routes_flag) :: !changes
      end)
    rate_updates;
  let route_only =
    List.fold_left
      (fun acc p ->
        match Hashtbl.find_opt changed p with
        | Some routes_flag ->
            (* already dirty: flip the routes flag on its record *)
            routes_flag := true;
            acc
        | None ->
            Hashtbl.replace changed p (ref true);
            let r = Bgp.Ptrie.find p !rate_trie in
            { ch_prefix = p; ch_old_rate = r; ch_new_rate = r; ch_routes = true }
            :: acc)
      [] routes_changed
  in
  let changes =
    List.rev_append (List.rev route_only)
      (List.rev_map
         (fun (p, old, fresh, routes_flag) ->
           { ch_prefix = p; ch_old_rate = old; ch_new_rate = fresh;
             ch_routes = !routes_flag })
         !changes)
  in
  let rate_set = !rate_set in
  let total =
    let acc = [| 0.0 |] in
    RSet.iter (fun (_, r) -> acc.(0) <- acc.(0) +. r) rate_set;
    acc.(0)
  in
  (* the iface delta is recorded content-based, not identity-based: a
     caller re-passing an equal interface list records no change, so a
     derate-aware caller can pass [ifaces] every cycle without cost *)
  let ifaces, iface_index, iface_changes =
    match ifaces with
    | None -> (prev.ifaces, prev.iface_index, [])
    | Some l ->
        let index = index_ifaces l in
        (l, index, iface_delta prev.iface_index index)
  in
  Ef_obs.Counter.inc (Ef_obs.Registry.counter obs "collector.patches");
  {
    time_s;
    prefix_rates = lazy (RSet.elements rate_set);
    by_prefix = lazy (sort_by_prefix (Array.of_list (RSet.elements rate_set)));
    rate_set;
    rate_trie = !rate_trie;
    routes = Option.value routes ~default:prev.routes;
    routes_memo = Hashtbl.create 256;
    ranked = [||];
    ifaces;
    iface_index;
    iface_id_of_peer = prev.iface_id_of_peer;
    total_rate_bps = total;
    prefix_count = !count;
    stamp = next_stamp ();
    parent = Some (prev.stamp, changes, iface_changes);
  }

let linked prev next =
  prev == next
  ||
  match next.parent with
  | Some (stamp, _, _) -> stamp = prev.stamp
  | None -> false

let diff prev next =
  if prev == next then { changes = []; iface_changes = []; linked = true }
  else
    match next.parent with
    | Some (stamp, changes, iface_changes) when stamp = prev.stamp ->
        { changes; iface_changes; linked = true }
    | _ ->
        (* Unlinked pair: recover the exact rate difference by merge-walking
           the two tries (physical sharing prunes common structure). Route
           changes are unknowable from the outside, so every changed prefix
           is conservatively flagged and [linked] is false — consumers that
           need route stability for *clean* prefixes must fall back to a
           full recompute. The iface delta, by contrast, is exact either
           way: both indexes are at hand. *)
        let changes =
          Bgp.Ptrie.fold2
            ~eq:(fun (a : float) b -> a = b)
            (fun p o n acc ->
              { ch_prefix = p; ch_old_rate = o; ch_new_rate = n;
                ch_routes = true }
              :: acc)
            prev.rate_trie next.rate_trie []
        in
        {
          changes;
          iface_changes = iface_delta prev.iface_index next.iface_index;
          linked = false;
        }

let time_s t = t.time_s
let prefix_rates t = Lazy.force t.prefix_rates

let rates_by_prefix t = Lazy.force t.by_prefix

let rate_of t prefix =
  Option.value (Bgp.Ptrie.find prefix t.rate_trie) ~default:0.0

(* Candidate sets are memoized per snapshot: the allocator asks for the
   same prefix's routes on every relief attempt (and the guard again
   after that), and re-ranking the Loc-RIB each time dominated the cycle.
   A snapshot is one coherent view, so first answer wins — this also
   pins the view against later RIB churn when [routes] closes over a
   live RIB.

   The memo has two tiers. A cold pass ranks every rated prefix at once
   and hands the answers over as one array aligned with [by_prefix]
   ({!prime_ranked}) — no million hash inserts on the coordinator; a
   lookup that misses the Hashtbl bisects the prefix-ordered array on
   the packed key. The Hashtbl holds everything asked outside such a
   pass, and is consulted first, so an answer cached before the pass
   stays the answer. *)
let ranked_find t prefix =
  let ranked = t.ranked in
  if Array.length ranked = 0 then None
  else
    let rated = Lazy.force t.by_prefix in
    let k = Bgp.Ptrie.key prefix in
    let rec go lo hi =
      if lo >= hi then None
      else
        let mid = (lo + hi) lsr 1 in
        let c = Int.compare (Bgp.Ptrie.key (fst rated.(mid))) k in
        if c = 0 then Some ranked.(mid)
        else if c < 0 then go (mid + 1) hi
        else go lo mid
    in
    go 0 (Array.length rated)

let routes t prefix =
  match Hashtbl.find_opt t.routes_memo prefix with
  | Some rs -> rs
  | None -> (
      match ranked_find t prefix with
      | Some rs -> rs
      | None ->
          let rs = t.routes prefix in
          Hashtbl.add t.routes_memo prefix rs;
          rs)

(* The memo Hashtbl is not safe for concurrent mutation, so sharded
   consumers rank through the raw closure on the worker domains and the
   coordinating domain hands their answers over afterwards. *)
let routes_uncached t prefix =
  match Hashtbl.find_opt t.routes_memo prefix with
  | Some rs -> rs
  | None -> (
      match ranked_find t prefix with Some rs -> rs | None -> t.routes prefix)

let prime_ranked t ranked =
  if Array.length ranked <> Array.length (Lazy.force t.by_prefix) then
    invalid_arg "Snapshot.prime_ranked: not aligned with rates_by_prefix";
  if Array.length t.ranked = 0 then t.ranked <- ranked

let preferred_route t prefix =
  match routes t prefix with [] -> None | r :: _ -> Some r

let ifaces t = t.ifaces

let iface_by_id t id =
  if id < 0 || id >= Array.length t.iface_index then None else t.iface_index.(id)

let max_iface_id t = Array.length t.iface_index - 1

let iface_of_peer t ~peer_id =
  match t.iface_id_of_peer peer_id with
  | None -> None
  | Some id -> iface_by_id t id

let iface_of_route t route = iface_of_peer t ~peer_id:(Bgp.Route.peer_id route)
let total_rate_bps t = t.total_rate_bps
let prefix_count t = t.prefix_count
