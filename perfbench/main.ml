(* The repository benchmark.

   One process and one caller drive the program through its public
   functions in a closed loop: each round starts only after the previous
   one returned, and simulated time advances 30 s per round.

   - dfz-steady: [Scenario.dfz] (1M /24 prefixes, 6 transit interfaces,
     1% churn per cycle, 30% of it route events), [shards = 2].
   - dfz-flap: the same generator at 250k prefixes, [shards = 1], with
     interface 1 down on every odd cycle and back on every even one.
   - pop-stress: [Engine] on [Scenario.stress], 30 s steps from 22:00.

   A dfz cycle is [Snapshot.patch] + [Controller.cycle] +
   [Controller.bgp_updates]; a pop-stress cycle is one [Engine.step]. A
   dfz run cycles three generator worlds in turn (see [worlds]). The
   workload generator ([Dfz.create], [Dfz.current_rates], [Dfz.churn],
   the flap plan) runs outside every timed region.

   [--trace 0] measures the end-to-end metrics with tracing off.
   [--trace 1] is a separate run that records spans — the benchmark's own
   around each public call, and the program's own through an [Ef_obs]
   profile hook — on alternate pairs of cycles, and reports per-layer
   metrics. The last line of stdout is one JSON object; the exit code is
   non-zero when the output check fails. *)

module Snapshot = Ef_collector.Snapshot
module Controller = Edge_fabric.Controller
module Config = Edge_fabric.Config
module Allocator = Edge_fabric.Allocator
module Projection = Edge_fabric.Projection
module Guard = Edge_fabric.Guard
module Override = Edge_fabric.Override
module Dfz = Ef_netsim.Dfz
module Scenario = Ef_netsim.Scenario
module Iface = Ef_netsim.Iface
module Engine = Ef_sim.Engine
module Registry = Ef_obs.Registry
module Clock = Ef_obs.Clock
module Json = Ef_obs.Json

let cycle_s = 30

(* ---------------------------------------------------------------- *)
(* small statistics                                                   *)

let sum l = List.fold_left ( +. ) 0.0 l

let mean l = match l with [] -> 0.0 | _ -> sum l /. float_of_int (List.length l)

(* nearest-rank percentile *)
let percentile l q =
  match l with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median l = percentile l 0.5

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.elapsed_s t0)

(* ---------------------------------------------------------------- *)
(* span recording                                                     *)

(* Spans stay in memory until the run ends. [id] is the cycle a span
   belongs to (negative ids are set-up repetitions); parents are
   recovered afterwards by interval containment, since every span of one
   cycle is opened and closed on the calling domain. *)
module Spans = struct
  type span = { name : string; t0 : int64; t1 : int64; id : int }

  type t = {
    reg : Registry.t;
    mutable on : bool;
    mutable id : int;
    mutable spans : span list;
  }

  let add t name t0 t1 =
    if t.on then t.spans <- { name; t0; t1; id = t.id } :: t.spans

  let hook t = { Registry.on_span = add t; on_counter = (fun _ _ -> ()) }
  let create reg = { reg; on = false; id = 0; spans = [] }

  (* with recording off the program's registry carries no hook at all,
     exactly as in an end-to-end run *)
  let set t ~on ~id =
    t.on <- on;
    t.id <- id;
    Registry.set_profile_hook t.reg (if on then Some (hook t) else None)

  let time t name f =
    if not t.on then f ()
    else begin
      let t0 = Clock.now_ns () in
      let r = f () in
      add t name t0 (Clock.now_ns ());
      r
    end

  let dur s = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-9

  (* sorted by start (outermost first on ties) with each span's parent
     index, -1 for a root *)
  let nest spans =
    let a = Array.of_list spans in
    Array.stable_sort
      (fun x y ->
        match Int64.compare x.t0 y.t0 with 0 -> Int64.compare y.t1 x.t1 | c -> c)
      a;
    let parent = Array.make (Array.length a) (-1) in
    let stack = ref [] in
    Array.iteri
      (fun i s ->
        let rec pop = function
          | j :: rest when Int64.compare s.t1 a.(j).t1 > 0 -> pop rest
          | st -> st
        in
        let st = pop !stack in
        parent.(i) <- (match st with j :: _ -> j | [] -> -1);
        stack := i :: st)
      a;
    (a, parent)

  (* self time: duration minus the time the direct children cover *)
  let self_times (a, parent) =
    let self = Array.map dur a in
    Array.iteri (fun i p -> if p >= 0 then self.(p) <- self.(p) -. dur a.(i)) parent;
    self

  let by_id t =
    let tbl = Hashtbl.create 256 in
    List.iter
      (fun (s : span) ->
        let l = Option.value (Hashtbl.find_opt tbl s.id) ~default:[] in
        Hashtbl.replace tbl s.id (s :: l))
      t.spans;
    tbl

  let write t ~path =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    Hashtbl.fold (fun id l acc -> (id, l) :: acc) (by_id t) []
    |> List.sort compare
    |> List.iter (fun (id, l) ->
           let a, parent = nest l in
           Array.iteri
             (fun i s ->
               output_string oc
                 (Json.to_string
                    (Json.Obj
                       [
                         ("id", Json.Int id);
                         ("index", Json.Int i);
                         ("name", Json.String s.name);
                         ("start_ns", Json.String (Int64.to_string s.t0));
                         ("end_ns", Json.String (Int64.to_string s.t1));
                         ( "parent",
                           if parent.(i) < 0 then Json.Null else Json.Int parent.(i) );
                       ]));
               output_char oc '\n')
             a)
end

(* The layer each span's self time is charged to. Anything unlisted —
   the benchmark's own wrappers, [engine.step] and [engine.accounting]
   glue — is unattributed. *)
let layer_of = function
  | "collector.assemble" -> Some "snapshot.assemble"
  | "collector.patch" -> Some "snapshot.patch"
  | "controller.cycle" | "bench.controller.bgp_updates" -> Some "controller"
  | "controller.allocate" -> Some "allocator"
  | "controller.project" | "engine.placement" -> Some "projection"
  | "controller.reconcile" -> Some "hysteresis"
  | "controller.guard.clamp" | "controller.guard.audit" -> Some "guard"
  | "engine.demand" -> Some "engine.demand"
  | "engine.estimate" -> Some "engine.estimate"
  | "engine.controller" -> Some "engine.controller"
  | _ -> None

let layers =
  [
    "snapshot.assemble"; "snapshot.patch"; "controller"; "allocator"; "projection";
    "hysteresis"; "guard"; "engine.demand"; "engine.estimate"; "engine.controller";
  ]

(* One traced cycle, broken down. [root] names the benchmark span that
   covers the whole cycle. *)
type traced_cycle = {
  wall : float;
  self : (string * float) list;  (** span name -> self time, summed *)
  durs : (string * float list) list;  (** span name -> durations *)
}

let analyse ~root spans =
  let ((a, _) as nested) = Spans.nest spans in
  let self = Spans.self_times nested in
  let wall =
    Array.fold_left
      (fun acc s -> if s.Spans.name = root then acc +. Spans.dur s else acc)
      0.0 a
  in
  let selfs = Hashtbl.create 16 and durs = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let name = s.Spans.name in
      Hashtbl.replace selfs name
        (self.(i) +. Option.value (Hashtbl.find_opt selfs name) ~default:0.0);
      Hashtbl.replace durs name
        (Spans.dur s :: Option.value (Hashtbl.find_opt durs name) ~default:[]))
    a;
  {
    wall;
    self = Hashtbl.fold (fun k v acc -> (k, v) :: acc) selfs [];
    durs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) durs [];
  }

let durs_of tc name = Option.value (List.assoc_opt name tc.durs) ~default:[]
let self_of tc name = Option.value (List.assoc_opt name tc.self) ~default:0.0

let layer_self tc layer =
  List.fold_left
    (fun acc (name, s) -> if layer_of name = Some layer then acc +. s else acc)
    0.0 tc.self

(* ---------------------------------------------------------------- *)
(* what every workload records                                        *)

type acc = {
  mutable setups : float list;  (** set-up wall time per repetition *)
  mutable walls : float list;  (** timed cycle wall times *)
  mutable traced_walls : float list;
  mutable untraced_walls : float list;
  mutable attempted : int;
  mutable failed : int;  (** raised, or [check_invariants] returned [Error] *)
  mutable bad_cycles : int;  (** failed, or the guard audit reported a violation *)
  mutable stale_target : int;
  mutable target_overloaded : int;
  mutable iface_cycles : int;
  mutable overloaded_iface_cycles : int;
  mutable dirty : int;
  mutable iface_changes : int;
  mutable patches : int;
  mutable incremental_hits : int;
  mutable moves : int;
  mutable overrides : int;
  mutable alloc_runs : int;
  mutable churn : int;  (** hysteresis adds + removes + retargets *)
  mutable gen_s : float list;  (** generator time per cycle *)
  mutable minor_words : float list;
  mutable major_words : float list;
  mutable cycle_errors : string list;  (** why cycles failed *)
  mutable errors : string list;  (** end-of-run output check findings *)
}

let new_acc () =
  {
    setups = []; walls = []; traced_walls = []; untraced_walls = []; attempted = 0;
    failed = 0; bad_cycles = 0; stale_target = 0;
    target_overloaded = 0; iface_cycles = 0; overloaded_iface_cycles = 0; dirty = 0;
    iface_changes = 0; patches = 0; incremental_hits = 0; moves = 0; overrides = 0;
    alloc_runs = 0; churn = 0; gen_s = []; minor_words = []; major_words = [];
    cycle_errors = []; errors = [];
  }

let error acc fmt = Printf.ksprintf (fun s -> acc.errors <- s :: acc.errors) fmt

let fail_cycle acc fmt =
  acc.failed <- acc.failed + 1;
  acc.bad_cycles <- acc.bad_cycles + 1;
  Printf.ksprintf (fun s -> acc.cycle_errors <- s :: acc.cycle_errors) fmt

let record_wall acc ~traced wall =
  acc.walls <- wall :: acc.walls;
  if traced then acc.traced_walls <- wall :: acc.traced_walls
  else acc.untraced_walls <- wall :: acc.untraced_walls

let record_gc acc (g0 : Gc.stat) (g1 : Gc.stat) =
  acc.minor_words <- (g1.Gc.minor_words -. g0.Gc.minor_words) :: acc.minor_words;
  acc.major_words <- (g1.Gc.major_words -. g0.Gc.major_words) :: acc.major_words

let record_guard acc violations =
  List.iter
    (function
      | Guard.Stale_target _ -> acc.stale_target <- acc.stale_target + 1
      | Guard.Target_overloaded _ -> acc.target_overloaded <- acc.target_overloaded + 1
      | Guard.Detour_fraction_exceeded _ | Guard.Override_count_exceeded _ -> ())
    violations

let record_allocation acc (r : Allocator.result) =
  acc.alloc_runs <- acc.alloc_runs + 1;
  acc.moves <- acc.moves + r.Allocator.moves_considered;
  acc.overrides <- acc.overrides + List.length r.Allocator.overrides

(* Tracing runs on alternate blocks of four cycles. Every block holds
   each phase of the flap workload's down/up cycle (and of anything else
   with a period dividing four) once, so the traced and the untraced
   halves see the same mix and their difference is the tracing
   overhead. *)
let traced_cycle ~trace c = trace && c / 4 mod 2 = 0

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* A timed loop runs until its [seconds] of wall time have passed, and
   for at least [min] cycles so percentiles have samples. *)
let keep_running ~t0 ~seconds ~min c = c < min || Clock.elapsed_s t0 < seconds

(* ---------------------------------------------------------------- *)
(* output check                                                       *)

let same_override (a : Override.t) (b : Override.t) =
  Override.equal a b
  && a.Override.from_iface = b.Override.from_iface
  && a.Override.to_iface = b.Override.to_iface
  && a.Override.preference_level = b.Override.preference_level
  && a.Override.rate_bps = b.Override.rate_bps

let iface_ids p = List.map Iface.id (Projection.ifaces p)

let load_mismatches what ~expected ~actual =
  if iface_ids expected <> iface_ids actual then [ what ^ ": interface sets differ" ]
  else
    List.filter_map
      (fun id ->
        let e = Projection.load_bps expected ~iface_id:id
        and a = Projection.load_bps actual ~iface_id:id in
        if e = a then None
        else Some (Printf.sprintf "%s load on iface %d: %.17g <> %.17g" what id a e))
      (iface_ids expected)

(* the last warm cycle's allocation against a cold one on a fresh
   assembly of the same world *)
let allocation_mismatches ~(warm : Allocator.result) ~(cold : Allocator.result) =
  let residual r = List.map (fun (i, u) -> (Iface.id i, u)) r.Allocator.residual in
  (if List.equal same_override warm.Allocator.overrides cold.Allocator.overrides then []
   else
     [
       Printf.sprintf "overrides differ (%d warm, %d cold)"
         (List.length warm.Allocator.overrides)
         (List.length cold.Allocator.overrides);
     ])
  @ (if residual warm = residual cold then [] else [ "residual overloads differ" ])
  @ load_mismatches "preferred" ~expected:cold.Allocator.before
      ~actual:warm.Allocator.before

(* the negative control's perturbation: drop the largest override *)
let perturb overrides =
  match
    List.sort
      (fun (a : Override.t) b -> Float.compare b.Override.rate_bps a.Override.rate_bps)
      overrides
  with
  | [] -> None
  | top :: _ -> Some (List.filter (fun o -> o != top) overrides)

(* [mismatches o] compares the run's output, with [o] as its enforced
   override set, against the independently recomputed reference. The
   real set must match and the negative control's perturbation must not;
   [negative] hands the real check the perturbation too. *)
let output_check acc ~negative ~overrides ~mismatches =
  let perturbed = perturb overrides in
  Option.iter
    (fun o -> List.iter (error acc "end-of-run check: %s") (mismatches o))
    (if negative then perturbed else Some overrides);
  match perturbed with
  | None -> error acc "negative control: no override to perturb"
  | Some o ->
      if mismatches o = [] then
        error acc "negative control: a perturbed override set passed the check"

(* ---------------------------------------------------------------- *)
(* dfz workloads                                                      *)

type dfz_spec = { dfz_cfg : Dfz.config; shards : int; flap : bool; worlds : int }

(* Interface 1 is down on every odd cycle and up on every even one: one
   single-outage flap per down cycle ([period_s = 1] leaves no onset
   jitter, so each window is exactly one cycle). *)
let flap_plan ~cycles =
  Ef_fault.Plan.make
    (List.init ((cycles / 2) + 1) (fun k ->
         let from_s = ((2 * k) + 1) * cycle_s in
         Ef_fault.Plan.Link_flap
           { iface_id = 1; from_s; until_s = from_s + cycle_s; period_s = 1; down_s = cycle_s }))

let max_flap_cycles = 4096

(* A run drives [spec.worlds] generator worlds in turn, seeded
   [seed * worlds] onwards, each set up once and then cycled for its share
   of the timed loop. How much relief work a dfz world needs depends on
   where its few heaviest prefixes land, so pooling worlds keeps one
   seed's luck from setting the run's figures; their set-ups give the
   [setup_s] median. *)
let run_dfz spec ~seed ~seconds ~trace ~negative acc spans reg =
  let ctl_cfg = Config.with_shards spec.shards Config.default in
  let worlds = spec.worlds in
  let pool =
    if spec.shards > 1 then Some (Ef_util.Pool.global ~jobs:spec.shards ()) else None
  in
  let injector =
    if spec.flap then Some (Ef_fault.Injector.create (flap_plan ~cycles:max_flap_cycles))
    else None
  in
  let patches_counter = Registry.counter reg "collector.patches" in
  let patches0 = Ef_obs.Counter.value patches_counter in
  (* one world: generate, set up, cycle; returns what the output check needs *)
  let run_world w =
    (* the previous world is garbage by now: free it before building this one *)
    Gc.full_major ();
    let gen = Dfz.create { spec.dfz_cfg with Dfz.seed = (seed * worlds) + w } in
    let ifaces_at ~time_s =
      Option.map
        (fun inj ->
          List.filter
            (fun i -> not (Ef_fault.Injector.link_down inj ~iface_id:(Iface.id i) ~time_s))
            (Dfz.ifaces gen))
        injector
    in
    let assemble ~obs ~time_s ~ifaces ~rates =
      Snapshot.assemble ~obs ?pool ~routes:(Dfz.routes gen)
        ~iface_of_peer:(Dfz.iface_of_peer gen)
        ~ifaces:(Option.value ifaces ~default:(Dfz.ifaces gen))
        ~prefix_rates:rates ~time_s ()
    in
    (* set-up: the full-table assembly plus the first (cold) round *)
    let rates0 = Dfz.current_rates gen and ifaces0 = ifaces_at ~time_s:0 in
    Spans.set spans ~on:trace ~id:(-(w + 1));
    let t0 = Clock.now_ns () in
    let snap, ctl, stats =
      Spans.time spans "bench.setup" @@ fun () ->
      let snap =
        Spans.time spans "bench.snapshot.assemble" (fun () ->
            assemble ~obs:reg ~time_s:0 ~ifaces:ifaces0 ~rates:rates0)
      in
      let ctl = Controller.create ~config:ctl_cfg ~obs:reg ~name:"perfbench" () in
      let stats =
        Spans.time spans "bench.controller.cycle" (fun () -> Controller.cycle ctl snap)
      in
      Spans.time spans "bench.controller.bgp_updates" (fun () ->
          ignore (Controller.bgp_updates ctl stats : Ef_bgp.Msg.update list));
      (snap, ctl, stats)
    in
    acc.setups <- Clock.elapsed_s t0 :: acc.setups;
    Spans.set spans ~on:false ~id:0;
    let snap = ref snap and last_stats = ref stats in
    let hits0 = Controller.incremental_hits ctl in
    let max_cycles = if spec.flap then max_flap_cycles else max_int in
    let share = seconds /. float_of_int worlds in
    let t_loop = Clock.now_ns () in
    let c = ref 0 in
    (try
       while !c < max_cycles && keep_running ~t0:t_loop ~seconds:share ~min:4 !c do
         incr c;
         let cycle = !c in
         let time_s = cycle * cycle_s in
         let traced = traced_cycle ~trace cycle in
         acc.attempted <- acc.attempted + 1;
         Spans.set spans ~on:traced ~id:acc.attempted;
         let (ev, ifaces), gen_s =
           timed (fun () ->
               Spans.time spans "bench.dfz.churn" (fun () ->
                   (Dfz.churn gen ~cycle, ifaces_at ~time_s)))
         in
         acc.gen_s <- gen_s :: acc.gen_s;
         let prev = !snap in
         let g0 = Gc.quick_stat () in
         let t0 = Clock.now_ns () in
         let stats =
           Spans.time spans "bench.cycle" @@ fun () ->
           let next =
             Spans.time spans "bench.snapshot.patch" (fun () ->
                 Snapshot.patch ~obs:reg ~prev ?ifaces ~routes_changed:ev.Dfz.routes_changed
                   ~rate_updates:ev.Dfz.rate_updates ~time_s ())
           in
           snap := next;
           let stats =
             Spans.time spans "bench.controller.cycle" (fun () -> Controller.cycle ctl next)
           in
           Spans.time spans "bench.controller.bgp_updates" (fun () ->
               ignore (Controller.bgp_updates ctl stats : Ef_bgp.Msg.update list));
           stats
         in
         let wall = Clock.elapsed_s t0 in
         let g1 = Gc.quick_stat () in
         Spans.set spans ~on:false ~id:0;
         last_stats := stats;
         record_wall acc ~traced wall;
         record_gc acc g0 g1;
         (* per-cycle output checks, outside the timed region *)
         let alloc = Controller.allocator_result stats in
         let violations = Controller.guard_violations stats in
         (match Allocator.check_invariants ~config:ctl_cfg alloc with
         | Ok () -> if violations <> [] then acc.bad_cycles <- acc.bad_cycles + 1
         | Error e -> fail_cycle acc "world %d cycle %d: %s" w cycle e);
         record_guard acc violations;
         record_allocation acc alloc;
         let d = Snapshot.diff prev !snap in
         acc.dirty <- acc.dirty + List.length d.Snapshot.changes;
         acc.iface_changes <- acc.iface_changes + List.length d.Snapshot.iface_changes;
         acc.iface_cycles <- acc.iface_cycles + List.length (Snapshot.ifaces !snap);
         acc.overloaded_iface_cycles <-
           acc.overloaded_iface_cycles + List.length (Controller.overloaded_after stats);
         acc.churn <-
           acc.churn
           + List.length (Controller.overrides_added stats)
           + List.length (Controller.overrides_removed stats)
           + List.length (Controller.overrides_retargeted stats)
       done
     with e -> fail_cycle acc "world %d cycle %d raised %s" w !c (Printexc.to_string e));
    Spans.set spans ~on:false ~id:0;
    acc.incremental_hits <- acc.incremental_hits + Controller.incremental_hits ctl - hits0;
    let time_s = !c * cycle_s in
    let final () =
      assemble ~obs:(Registry.create ()) ~time_s ~ifaces:(ifaces_at ~time_s)
        ~rates:(Dfz.current_rates gen)
    in
    (Controller.allocator_result !last_stats, final)
  in
  let last = ref None in
  for w = 0 to worlds - 1 do
    last := None;
    last := Some (run_world w)
  done;
  acc.patches <- int_of_float (Ef_obs.Counter.value patches_counter -. patches0);
  let peak = heap_mb () in
  (* end-of-run check: the last world assembled fresh and allocated cold
     must reproduce its last warm cycle *)
  let warm, final = Option.get !last in
  let cold = Allocator.run ~obs:(Registry.create ()) ~config:ctl_cfg (final ()) in
  (match Allocator.check_invariants ~config:ctl_cfg cold with
  | Ok () -> ()
  | Error e -> error acc "cold reference: %s" e);
  output_check acc ~negative ~overrides:warm.Allocator.overrides ~mismatches:(fun o ->
      allocation_mismatches ~warm:{ warm with Allocator.overrides = o } ~cold);
  peak

(* ---------------------------------------------------------------- *)
(* pop-stress                                                         *)

let field_int fields name =
  match List.assoc_opt name fields with Some (Json.Int n) -> n | _ -> 0

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* The engine keeps its [cycle_stats] to itself: the guard audit's
   verdicts reach the benchmark through the controller's journal event
   (totals) and its warning log (kinds). *)
let guard_log_reporter acc =
  let report src level ~over k msgf =
    if level = Logs.Warning && Logs.Src.name src = "edge_fabric.controller" then
      msgf (fun ?header:_ ?tags:_ fmt ->
          Format.kasprintf
            (fun s ->
              if contains s "targets a vanished route" then
                acc.stale_target <- acc.stale_target + 1
              else if contains s "projected at" then
                acc.target_overloaded <- acc.target_overloaded + 1;
              over ();
              k ())
            fmt)
    else begin
      over ();
      k ()
    end
  in
  { Logs.report }

(* [Engine.create] takes about 0.1 s: enough repetitions for a steady
   median cost little *)
let stress_reps = 9

let run_stress ~seed ~seconds ~trace ~negative acc spans reg =
  let config =
    Engine.make_config ~seed ~cycle_s ~start_s:(22 * 3600) ~duration_s:(24 * 3600) ()
  in
  let ctl_cfg = config.Engine.controller_config in
  let setup rep =
    Spans.set spans ~on:trace ~id:(-rep);
    let t0 = Clock.now_ns () in
    let e =
      Spans.time spans "bench.setup" (fun () ->
          Spans.time spans "bench.engine.create" (fun () ->
              Engine.create ~config ~obs:reg Scenario.stress))
    in
    acc.setups <- Clock.elapsed_s t0 :: acc.setups;
    e
  in
  let engine = ref None in
  for rep = 1 to stress_reps do
    engine := None;
    Gc.full_major ();
    engine := Some (setup rep)
  done;
  let e = Option.get !engine in
  let event = ref [] in
  Registry.add_sink reg (fun ev ->
      if ev.Registry.Event.ev_name = "controller.cycle" then
        event := ev.Registry.Event.ev_fields);
  let patches_counter = Registry.counter reg "collector.patches" in
  let patches0 = Ef_obs.Counter.value patches_counter in
  let hits0 =
    match Engine.controller e with Some c -> Controller.incremental_hits c | None -> 0
  in
  if trace then Logs.set_reporter (guard_log_reporter acc);
  let t_loop = Clock.now_ns () in
  let c = ref 0 in
  (try
     while keep_running ~t0:t_loop ~seconds ~min:10 !c do
       incr c;
       let traced = traced_cycle ~trace !c in
       Spans.set spans ~on:traced ~id:!c;
       event := [];
       acc.attempted <- acc.attempted + 1;
       let g0 = Gc.quick_stat () in
       let t0 = Clock.now_ns () in
       let row =
         Spans.time spans "bench.cycle" (fun () ->
             Spans.time spans "bench.engine.step" (fun () -> Engine.step e))
       in
       let wall = Clock.elapsed_s t0 in
       let g1 = Gc.quick_stat () in
       Spans.set spans ~on:false ~id:!c;
       record_wall acc ~traced wall;
       record_gc acc g0 g1;
       let fields = !event in
       if fields = [] then fail_cycle acc "step %d: no controller round" !c
       else if field_int fields "violations" > 0 then acc.bad_cycles <- acc.bad_cycles + 1;
       acc.iface_cycles <- acc.iface_cycles + List.length row.Ef_sim.Metrics.ifaces;
       acc.overloaded_iface_cycles <-
         acc.overloaded_iface_cycles + field_int fields "overloaded_after";
       acc.churn <-
         acc.churn + field_int fields "added" + field_int fields "removed"
         + field_int fields "retargeted"
     done
   with e -> fail_cycle acc "step %d raised %s" !c (Printexc.to_string e));
  Logs.set_reporter Logs.nop_reporter;
  Spans.set spans ~on:false ~id:0;
  acc.incremental_hits <-
    (match Engine.controller e with
    | Some ctl -> Controller.incremental_hits ctl - hits0
    | None -> 0);
  acc.patches <- int_of_float (Ef_obs.Counter.value patches_counter -. patches0);
  let peak = heap_mb () in
  (* end-of-run check: the last step's ground-truth placements, recomputed
     from the public demand and the enforced override set; the allocator
     is checked on a cold run over the same ground truth *)
  (match Engine.last_state e with
  | None -> error acc "end-of-run check: no step completed"
  | Some st ->
      let time_s = Engine.now_s e - cycle_s in
      let scratch = Registry.create () in
      let truth =
        Snapshot.of_pop ~obs:scratch (Engine.world e).Ef_netsim.Topo_gen.pop
          ~prefix_rates:(Engine.true_rates e ~time_s) ~time_s
      in
      List.iter (error acc "end-of-run check: %s")
        (load_mismatches "preferred" ~expected:(Projection.project truth)
           ~actual:st.Engine.preferred);
      output_check acc ~negative ~overrides:st.Engine.active_overrides
        ~mismatches:(fun o ->
          load_mismatches "actual"
            ~expected:(Projection.project ~overrides:(Override.lookup o) truth)
            ~actual:st.Engine.actual);
      let cold = Allocator.run ~obs:scratch ~config:ctl_cfg truth in
      record_allocation acc cold;
      match Allocator.check_invariants ~config:ctl_cfg cold with
      | Ok () -> ()
      | Error e -> error acc "cold allocation: %s" e);
  peak

(* ---------------------------------------------------------------- *)
(* metrics                                                            *)

let end_to_end acc ~peak =
  let cycles = List.length acc.walls in
  [
    ("setup_s", median acc.setups, "s");
    ("cycle_p50_s", percentile acc.walls 0.5, "s");
    ("cycle_p90_s", percentile acc.walls 0.9, "s");
    ("cycles_per_s", float_of_int cycles /. sum acc.walls, "1/s");
    ("peak_heap_mb", peak, "MB");
  ]

let per_layer acc spans ~dfz =
  let tbl = Spans.by_id spans in
  let cycles_of pred =
    Hashtbl.fold (fun id l acc' -> if pred id then l :: acc' else acc') tbl []
  in
  let timed = List.map (analyse ~root:"bench.cycle") (cycles_of (fun id -> id > 0)) in
  let setups = List.map (analyse ~root:"bench.setup") (cycles_of (fun id -> id < 0)) in
  let all name = List.concat_map (fun tc -> durs_of tc name) timed in
  let per_cycle f = mean (List.map f timed) in
  let self layer = per_cycle (fun tc -> layer_self tc layer) in
  let self_span name = per_cycle (fun tc -> self_of tc name) in
  let setup_dur name = median (List.map (fun tc -> sum (durs_of tc name)) setups) in
  let n = acc.attempted in
  let ctl = all "controller.cycle" in
  let wall = per_cycle (fun tc -> tc.wall) in
  let attributed = List.fold_left (fun a l -> a +. self l) 0.0 layers in
  [
    ("run.cycles", float_of_int n, "count");
    ("run.traced_cycles", float_of_int (List.length timed), "count");
    ( "snapshot.assemble_s",
      (if dfz then setup_dur "collector.assemble"
       else per_cycle (fun tc -> sum (durs_of tc "collector.assemble"))),
      "s" );
    ("snapshot.patch_p50_s", percentile (all "collector.patch") 0.5, "s");
    ("snapshot.patch_p90_s", percentile (all "collector.patch") 0.9, "s");
    ("snapshot.patches_per_cycle", ratio acc.patches n, "count/cycle");
    ("snapshot.dirty_per_cycle", ratio acc.dirty n, "count/cycle");
    ("snapshot.iface_changes_per_cycle", ratio acc.iface_changes n, "count/cycle");
    ("controller.cycle_p50_s", percentile ctl 0.5, "s");
    ("controller.cycle_p90_s", percentile ctl 0.9, "s");
    ( "controller.cold_cycle_s",
      (if dfz then setup_dur "controller.cycle" else percentile ctl 0.5),
      "s" );
    ( "controller.enforce_s",
      per_cycle (fun tc ->
          sum (durs_of tc "controller.cycle")
          -. sum (durs_of tc "controller.allocate")
          +. sum (durs_of tc "bench.controller.bgp_updates")),
      "s" );
    ("controller.self_s", self "controller", "s");
    ("controller.incremental_hit_ratio", ratio acc.incremental_hits acc.patches, "ratio");
    ("allocator.self_s", self "allocator", "s");
    ("allocator.moves_considered", ratio acc.moves acc.alloc_runs, "count/cycle");
    ("allocator.overrides", ratio acc.overrides acc.alloc_runs, "count/cycle");
    ("allocator.move_yield", ratio acc.overrides acc.moves, "ratio");
    ("projection.self_s", self "projection", "s");
    ("hysteresis.self_s", self "hysteresis", "s");
    ("hysteresis.churn", ratio acc.churn n, "count/cycle");
    ("guard.self_s", self "guard", "s");
    ("guard.stale_target", ratio acc.stale_target n, "count/cycle");
    ("guard.target_overloaded", ratio acc.target_overloaded n, "count/cycle");
    ("engine.demand_s", self_span "engine.demand", "s");
    ("engine.estimate_s", self_span "engine.estimate", "s");
    ("engine.controller_s", self_span "engine.controller", "s");
    ("engine.placement_s", self_span "engine.placement", "s");
    ("dfz.churn_s", mean acc.gen_s, "s");
    ("gc.minor_words", mean acc.minor_words, "words/cycle");
    ("gc.major_words", mean acc.major_words, "words/cycle");
    ("trace.unattributed_share", (if wall > 0.0 then (wall -. attributed) /. wall else 0.0), "ratio");
    ( "trace.overhead_ratio",
      (match (acc.traced_walls, acc.untraced_walls) with
      | [], _ | _, [] -> 0.0
      | t, u -> (median t /. median u) -. 1.0),
      "ratio" );
    ("failed_cycle_ratio", ratio acc.bad_cycles n, "ratio");
    ("overload_ratio", ratio acc.overloaded_iface_cycles acc.iface_cycles, "ratio");
  ]

(* ---------------------------------------------------------------- *)
(* entry point                                                        *)

let workloads =
  [
    ("dfz-steady", `Dfz { dfz_cfg = Scenario.dfz; shards = 2; flap = false; worlds = 3 });
    ( "dfz-flap",
      `Dfz
        {
          dfz_cfg = { Scenario.dfz with Dfz.n_prefixes = 250_000 };
          shards = 1;
          flap = true;
          worlds = 6;
        } );
    ("pop-stress", `Stress);
  ]

(* where a traced run writes its spans, relative to the repository root *)
let trace_dir = ".perfbench"

let metric_json l =
  Json.Obj
    (List.map
       (fun (name, value, unit) ->
         (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
       l)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let negative = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of dfz-steady, dfz-flap, pop-stress");
      ("--seed", Arg.Set_int seed, "N workload seed (Dfz.config / Engine.make_config)");
      ("--seconds", Arg.Set_int seconds, "S wall time of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or traced per-layer run (1)");
      ( "--negative-control",
        Arg.Set negative,
        " drop one enforced override before the output check, which must then fail" );
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let kind =
    match List.assoc_opt !workload workloads with
    | Some k -> k
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  let acc = new_acc () and reg = Registry.create () in
  let spans = Spans.create reg in
  let seconds = float_of_int !seconds and negative = !negative in
  let peak, dfz =
    match kind with
    | `Dfz spec ->
        (run_dfz spec ~seed:!seed ~seconds ~trace:traced ~negative acc spans reg, true)
    | `Stress -> (run_stress ~seed:!seed ~seconds ~trace:traced ~negative acc spans reg, false)
  in
  let n = acc.attempted in
  let correct = acc.errors = [] in
  List.iteri
    (fun i e -> if i < 5 then Printf.eprintf "perfbench: %s\n" e)
    (List.rev acc.cycle_errors);
  List.iter (fun e -> Printf.eprintf "perfbench: %s\n" e) (List.rev acc.errors);
  Printf.printf
    "%s seed %d: %d timed cycles (p90 over %d samples), set-up runs [%s] s, \
     failed %d/%d cycles, guard breach or failed %d/%d, overloaded %d/%d \
     interface-cycles\n"
    !workload !seed n n
    (String.concat "; " (List.rev_map (Printf.sprintf "%.3f") acc.setups))
    acc.failed n acc.bad_cycles n acc.overloaded_iface_cycles acc.iface_cycles;
  let metrics =
    if traced then begin
      (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
      Spans.write spans
        ~path:(Filename.concat trace_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
      per_layer acc spans ~dfz
    end
    else end_to_end acc ~peak
  in
  List.iter (fun (name, v, unit) -> Printf.printf "  %-36s %.6g %s\n" name v unit) metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int n);
            ("failed", Json.Int acc.failed);
            ("metrics", metric_json metrics);
          ]));
  exit (if correct then 0 else 1)
