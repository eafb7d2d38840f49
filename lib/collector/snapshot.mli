(** The controller's input: one coherent view per cycle.

    Every allocator run starts from a snapshot combining the three feeds —
    candidate routes per prefix (BMP), estimated per-prefix rates (sFlow),
    and interface capacities (SNMP/config). The allocator never touches
    live router state; it recomputes from the snapshot alone, which is
    what makes the controller stateless and restartable (§5 of the
    paper). *)

type t

type change = {
  ch_prefix : Ef_bgp.Prefix.t;
  ch_old_rate : float option;  (** rate in the older snapshot, if rated *)
  ch_new_rate : float option;  (** rate in the newer snapshot, if rated *)
  ch_routes : bool;  (** candidate routes may differ between the two *)
}
(** One dirty prefix in a snapshot-to-snapshot delta. *)

type iface_change = {
  ic_id : int;  (** the interface id the change is about *)
  ic_old_capacity : float option;
      (** capacity in the older snapshot; [None] = the id carried no
          interface there (the change is an addition) *)
  ic_new_capacity : float option;
      (** capacity in the newer snapshot; [None] = removed *)
}
(** One interface-set difference in a snapshot-to-snapshot delta.
    Identity is [(id, capacity)]: an interface re-made with the same id
    and capacity is not a change (placement resolves by id; thresholds
    re-derive from capacity every allocator run), so a caller may pass
    a freshly built but equal interface list to {!patch} every cycle
    without recording spurious deltas. *)

type diff = {
  changes : change list;
  iface_changes : iface_change list;
      (** interface-set delta, ascending id order. Exact whether or not
          the pair is [linked] — both interface indexes are at hand. *)
  linked : bool;
      (** [true] when the delta was recorded by {!patch} (exact, including
          route invalidations); [false] when reconstructed from two
          unrelated snapshots, where rate changes are exact but route
          changes are unknowable and conservatively flagged on every
          changed prefix. Clean prefixes of an unlinked pair may still
          have changed routes — incremental consumers must treat
          [linked = false] as "recompute from scratch". *)
}

val assemble :
  ?obs:Ef_obs.Registry.t ->
  ?pool:Ef_util.Pool.t ->
  routes:(Ef_bgp.Prefix.t -> Ef_bgp.Route.t list) ->
  iface_of_peer:(int -> Ef_netsim.Iface.t option) ->
  ifaces:Ef_netsim.Iface.t list ->
  prefix_rates:(Ef_bgp.Prefix.t * float) list ->
  time_s:int ->
  unit ->
  t
(** [routes] must return candidates in decision-ranked order (head =
    BGP-preferred). Rates at or below zero are dropped.

    [pool] shards the table build (filter/sort/rated set) across the
    pool's domains — a pure throughput knob: the result is byte-identical
    at any pool size (tables below a few thousand prefixes, a 1-lane
    pool, or a call from inside a pool task build as one chunk on the
    calling domain). The rate trie is built in one bulk pass; input that
    is already in ascending prefix order, as a full-table feed is, skips
    the key sort that pass otherwise needs. A prefix listed twice keeps
    both pairs in {!prefix_rates}, and {!rate_of} answers the pair that
    comes last in that order.

    Assembly is instrumented: the [collector.assemble] span and the
    [collector.snapshots] counter (plus a [collector.snapshot.prefixes]
    gauge) land in [obs], defaulting to {!Ef_obs.Registry.default}. *)

val of_pop :
  ?obs:Ef_obs.Registry.t ->
  ?ifaces:Ef_netsim.Iface.t list ->
  Ef_netsim.Pop.t ->
  prefix_rates:(Ef_bgp.Prefix.t * float) list ->
  time_s:int ->
  t
(** Assemble directly from a PoP (simulator fast path — identical content
    to the BMP-reconstructed view, which tests verify). [ifaces]
    substitutes the PoP's interface list — the fault injector passes
    capacity-derated copies so the controller sees degraded links the way
    SNMP would report them; [iface_of_peer] resolves into the substituted
    list by id. Defaults to the PoP's own interfaces. *)

val patch :
  ?obs:Ef_obs.Registry.t ->
  prev:t ->
  ?routes:(Ef_bgp.Prefix.t -> Ef_bgp.Route.t list) ->
  ?ifaces:Ef_netsim.Iface.t list ->
  ?routes_changed:Ef_bgp.Prefix.t list ->
  rate_updates:(Ef_bgp.Prefix.t * float) list ->
  time_s:int ->
  unit ->
  t
(** Delta construction: [prev] with the given absolute rates applied
    (a rate at or below zero, or NaN, withdraws the prefix; a no-op
    update — same rate, not in [routes_changed] — is dropped from the
    recorded delta) and the [routes_changed] prefixes' candidate lists
    invalidated. All unchanged structure is shared with [prev], so cost
    is proportional to the churn plus one O(n) float re-fold for the
    total. The result is byte-identical to a fresh {!assemble} of the
    same content, and remembers its delta so {!diff} [prev] the-result
    is exact and [linked].

    [routes] must agree with [prev]'s closure on every prefix outside
    [routes_changed] (clean prefixes keep their meaning); omitting it
    reuses [prev]'s closure (whose memo is per-snapshot, so invalidated
    prefixes are re-asked). [ifaces] substitutes the interface list the
    way {!of_pop}'s [ifaces] does — peer resolution is by stable
    interface id, so derated copies are picked up. Added, removed and
    capacity-changed interfaces are recorded as the delta's
    {!iface_change} list (content-based: re-passing an equal list
    records nothing), which is what lets the allocator's warm path
    survive interface-set churn instead of recomputing cold. *)

val linked : t -> t -> bool
(** [linked prev next]: [next] is [prev] itself or was built from it by
    {!patch} — i.e. {!diff} would be exact and cheap. O(1); incremental
    consumers use it to decide warm vs cold without paying the
    merge-walk an unlinked {!diff} performs. *)

val diff : t -> t -> diff
(** [diff prev next]: the prefixes whose rates or candidate routes
    differ. When [next] was built by {!patch} from [prev] this returns
    the recorded delta ([linked = true]); otherwise it merge-walks the
    two rate tries — cost proportional to the structural difference —
    and conservatively flags routes on every changed prefix
    ([linked = false]). *)

val time_s : t -> int
val prefix_rates : t -> (Ef_bgp.Prefix.t * float) list
(** Descending by rate, prefix-ascending within a rate tie — the order
    the allocator considers prefixes. Materialized lazily, on first
    call. *)

val rates_by_prefix : t -> (Ef_bgp.Prefix.t * float) array
(** The distinct {!prefix_rates} pairs in ascending prefix order (a
    prefix rated twice keeps its pairs in {!prefix_rates} order) — the
    order the cold projection decides in, since it is the order
    bulk-built tries want. Computed at assembly, lazily on patched
    snapshots. The array is shared: do not mutate it. *)

val rate_of : t -> Ef_bgp.Prefix.t -> float

val routes : t -> Ef_bgp.Prefix.t -> Ef_bgp.Route.t list
(** Memoized per snapshot: the first call for a prefix runs the supplied
    [routes] function, later calls return the cached candidate list. One
    snapshot therefore ranks each prefix at most once per cycle, however
    many times the allocator and guard revisit it. *)

val routes_uncached : t -> Ef_bgp.Prefix.t -> Ef_bgp.Route.t list
(** Like {!routes} but never writes the memo: a hit is answered from the
    cache, a miss runs the closure without recording the answer. Safe to
    call concurrently from several domains (the cold projection ranks
    through this on workers, then hands the answers to
    {!prime_ranked}). *)

val prime_ranked : t -> Ef_bgp.Route.t list array -> unit
(** [prime_ranked t ranked] memoizes [ranked.(i)] as the candidates of
    the [i]-th prefix of {!rates_by_prefix} — one array for a whole
    table's answers, obtained via {!routes_uncached}. First answer wins,
    as with {!routes}: answers cached before stay, and a second priming
    is ignored. Raises [Invalid_argument] when [ranked] is not aligned
    with {!rates_by_prefix}. Not thread-safe — call from one domain
    only. *)

val preferred_route : t -> Ef_bgp.Prefix.t -> Ef_bgp.Route.t option
val ifaces : t -> Ef_netsim.Iface.t list

val iface_by_id : t -> int -> Ef_netsim.Iface.t option
(** O(1) (array-indexed) lookup by interface id; [None] for ids no
    interface carries. *)

val max_iface_id : t -> int
(** Largest interface id in the snapshot; [-1] when there are none.
    Sizes the allocator's dense per-interface tables. *)

val iface_of_peer : t -> peer_id:int -> Ef_netsim.Iface.t option
val iface_of_route : t -> Ef_bgp.Route.t -> Ef_netsim.Iface.t option

val total_rate_bps : t -> float
(** Precomputed at assembly (not re-folded per call). *)

val prefix_count : t -> int
(** Precomputed at assembly. *)
