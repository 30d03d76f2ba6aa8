(* runner_as64: one run of the message-level protocol ([Runner.run],
   every node faithful) on a seeded as:64:2 topology with uniform traffic
   at rate 1 — the paper's protocol at the largest size that fits a run.

   The traced op drives the same construction, execution and settlement
   through the public [Engine]/[Node]/[Bank] calls, timing every handler,
   every [Engine.run] and every bank call, and must reach the untraced
   run's digests, message counts and byte counts exactly. A second
   traced run of [Runner] itself, under an [Obs.memory] sink, supplies
   the per-phase spans. *)

module Graph = Damd_graph.Graph
module Gen = Damd_graph.Gen
module Rng = Damd_util.Rng
module Traffic = Damd_fpss.Traffic
module Tables = Damd_fpss.Tables
module Pricing = Damd_fpss.Pricing
module Engine = Damd_sim.Engine
module Node = Damd_faithful.Node
module Bank = Damd_faithful.Bank
module Protocol = Damd_faithful.Protocol
module Runner = Damd_faithful.Runner
module Adversary = Damd_faithful.Adversary
module Obs = Damd_obs.Obs
module Clock = Damd_obs.Clock
module Layers = Measure.Layers

(* Ops cycle through [topologies] seeded as:64:2 graphs, so that a run's
   figures average several draws rather than hang on one. The first is
   the graph [damd_cli routing -t as:64:2 --seed SEED] builds. *)
let topologies = 8

let inputs ~n seed =
  let root = Rng.create seed in
  ( Array.init topologies (fun j ->
        fst
          (Gen.as_like (if j = 0 then Rng.create seed else Rng.fork root j) ~n ~m:2
             (Gen.Uniform_int (1, 10)))),
    Traffic.uniform ~n ~rate:1. )

let certified_correct ~oracle (r : Runner.result) =
  r.Runner.completed && r.Runner.detections = []
  &&
  match r.Runner.tables with
  | Some t -> Tables.routing_equal t oracle && Tables.prices_equal t oracle
  | None -> false

(* --- the traced op --- *)

type phase_timer = { mutable ns : int; mutable calls : int; mutable words : float }

let timer () = { ns = 0; calls = 0; words = 0. }

(* What one [Gc.minor_words] reading pair costs by itself, subtracted so
   that [node.alloc_mw] counts only the handlers' allocation. *)
let words_bias =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  w1 -. w0

let timed tm f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  f ();
  let dt = Measure.ns_since t0 in
  tm.ns <- tm.ns + dt;
  tm.words <- tm.words +. (Gc.minor_words () -. w0 -. words_bias);
  tm.calls <- tm.calls + 1;
  dt

type traced = {
  nodes : Node.t array;
  construction_messages : int;
  construction_bytes : int;
  execution_messages : int;
  bank_bytes : int;
  utilities : float array;
  all_certified : bool;
  detections : int;
  (* layer totals of this op, in ns / counts *)
  handler_ns : (string * phase_timer) list;
      (** node handlers, including the calls that start each phase *)
  engine_run_ns : int;
  in_engine_ns : int;  (** the part of [handler_ns] spent inside [Engine.run] *)
  bytes : int;
  checkpoint_ns : int;
  settle_ns : int;
  events : int;
  queue_peak : int;
  lost : int;
  update_msgs : int;
  copy_msgs : int;
}

let traced_op g traffic =
  let n = Graph.n g in
  let neighbor_sets = Array.init n (Graph.neighbors g) in
  let nodes =
    Array.init n (fun id ->
        Node.create ~id ~n ~neighbor_sets ~true_cost:(Graph.cost g id)
          ~deviation:Adversary.Faithful ())
  in
  let engine : Protocol.msg Engine.t = Engine.create ~n () in
  Engine.set_size engine Protocol.msg_size;
  let sends =
    Array.init n (fun src ~dst msg ->
        if not (List.mem dst neighbor_sets.(src)) then invalid_arg "send to non-neighbor";
        Engine.send engine ~src ~dst msg)
  in
  let cost_t = timer () and routing_t = timer () and pricing_t = timer ()
  and packet_t = timer () in
  let updates = ref 0 and copies = ref 0 in
  let count = function
    | Protocol.Update _ -> incr updates
    | Protocol.Copy _ -> incr copies
    | Protocol.Packet _ -> ()
  in
  let dispatch = ref (fun _ ~sender:_ _ -> ()) in
  let in_engine = ref 0 in
  let deliver tm f = in_engine := !in_engine + timed tm f in
  for i = 0 to n - 1 do
    Engine.set_handler engine i (fun ~sender msg -> !dispatch i ~sender msg)
  done;
  let engine_ns = ref 0 and events = ref 0 and queue_peak = ref 0 and lost = ref 0
  and bytes = ref 0 in
  let quiesce () =
    let t0 = Clock.now_ns () in
    let outcome = Engine.run engine in
    engine_ns := !engine_ns + Measure.ns_since t0;
    outcome = Engine.Quiescent
  in
  let epoch_stats () =
    events := !events + Engine.events_processed engine;
    queue_peak := max !queue_peak (Engine.queue_peak engine);
    lost := !lost + Engine.messages_lost engine;
    bytes := !bytes + Engine.bytes_sent engine
  in
  let checkpoint_ns = ref 0 and detections = ref 0 in
  let certify f =
    let t0 = Clock.now_ns () in
    let ds = f () in
    checkpoint_ns := !checkpoint_ns + Measure.ns_since t0;
    detections := !detections + List.length ds;
    ds = []
  in
  let phase tm ~reset ~start ~handler ~checkpoint =
    Array.iter reset nodes;
    (dispatch :=
       fun i ~sender msg ->
         count msg;
         deliver tm (fun () -> handler nodes.(i) sends.(i) ~sender msg));
    Array.iteri (fun i node -> ignore (timed tm (fun () -> start node sends.(i)))) nodes;
    let quiet = quiesce () in
    quiet && certify checkpoint
  in
  Engine.reset_stats engine;
  let ok1 =
    phase cost_t ~reset:Node.reset_costs ~start:Node.announce_cost
      ~handler:(fun node send ~sender msg ->
        match msg with Protocol.Update u -> Node.on_cost_msg node send ~sender u | _ -> ())
      ~checkpoint:(fun () ->
        if Array.for_all Node.finalize_costs nodes then Bank.checkpoint_costs nodes
        else [ { Bank.rule = "DATA1"; culprit = None; detail = "missing costs" } ])
  in
  let ok2 =
    ok1
    && phase routing_t ~reset:Node.reset_routing_phase ~start:Node.start_routing
         ~handler:Node.on_routing_msg ~checkpoint:(fun () -> Bank.checkpoint_routing nodes)
  in
  let ok3 =
    ok2
    && phase pricing_t ~reset:Node.reset_pricing_phase ~start:Node.start_pricing
         ~handler:Node.on_pricing_msg ~checkpoint:(fun () -> Bank.checkpoint_pricing nodes)
  in
  let construction_messages = Engine.messages_sent engine in
  let construction_bytes = Engine.bytes_sent engine in
  let bank_bytes = Bank.checkpoint_bytes nodes in
  epoch_stats ();
  Engine.reset_stats engine;
  Array.iter Node.reset_execution nodes;
  (dispatch :=
     fun i ~sender msg ->
       count msg;
       deliver packet_t (fun () -> Node.on_packet nodes.(i) sends.(i) ~sender msg));
  List.iter
    (fun (src, dst, rate) ->
      ignore (timed packet_t (fun () -> Node.originate_traffic nodes.(src) sends.(src) ~dst ~rate)))
    (Traffic.demand_pairs traffic);
  let ok4 = quiesce () in
  let execution_messages = Engine.messages_sent engine in
  epoch_stats ();
  let t0 = Clock.now_ns () in
  let s =
    Bank.settle ~obs:Obs.noop ~checking:true ~epsilon:Runner.default_params.Runner.epsilon
      ~registry:(Damd_crypto.Signer.create_registry ~seed:7)
      ~nodes ~traffic
  in
  let settle_ns = Measure.ns_since t0 in
  detections := !detections + List.length s.Bank.detections;
  let value = Runner.default_params.Runner.value_per_packet in
  let utilities =
    Array.init n (fun i ->
        let node = nodes.(i) in
        let carried =
          List.fold_left (fun acc (_, _, rate, _) -> acc +. rate) 0. node.Node.carried
        in
        (value *. s.Bank.delivered.(i)) -. s.Bank.outlays.(i) -. s.Bank.penalties.(i)
        +. s.Bank.incomes.(i)
        -. (node.Node.true_cost *. carried))
  in
  {
    nodes;
    construction_messages;
    construction_bytes;
    execution_messages;
    bank_bytes;
    utilities;
    all_certified = ok3 && ok4;
    detections = !detections;
    handler_ns =
      [ ("cost", cost_t); ("routing", routing_t); ("pricing", pricing_t); ("packet", packet_t) ];
    engine_run_ns = !engine_ns;
    in_engine_ns = !in_engine;
    bytes = !bytes;
    checkpoint_ns = !checkpoint_ns;
    settle_ns;
    events = !events;
    queue_peak = !queue_peak;
    lost = !lost;
    update_msgs = !updates;
    copy_msgs = !copies;
  }

(* The traced op must be the untraced run, observed: same per-node
   digests, tables, utilities, message and byte counts. *)
let same_as_untraced (u : Runner.result) (t : traced) =
  let tables_ok =
    match u.Runner.tables with
    | None -> false
    | Some tb ->
        Array.for_all Fun.id
          (Array.mapi
             (fun i node ->
               String.equal (Node.self_routing_digest node)
                 (Protocol.routing_digest tb.Tables.routing.(i))
               && Array.map
                    (List.map (fun (pe : Protocol.price_entry) ->
                         (pe.Protocol.transit, pe.Protocol.price)))
                    node.Node.pricing
                  = tb.Tables.prices.(i))
             t.nodes)
  in
  let costs_ok =
    let d = Node.costs_digest t.nodes.(0) in
    Array.for_all (fun node -> String.equal (Node.costs_digest node) d) t.nodes
  in
  t.all_certified && t.detections = 0 && tables_ok && costs_ok
  && t.construction_messages = u.Runner.construction_messages
  && t.construction_bytes = u.Runner.construction_bytes
  && t.execution_messages = u.Runner.execution_messages
  && t.bank_bytes = u.Runner.bank_bytes
  && Array.for_all2 Float.equal t.utilities u.Runner.utilities

(* Phase spans of a [Runner] run under a memory sink, plus the bank time
   between a phase's end and its checkpoint verdict. Shared with the
   gauntlet workload, whose own runs emit the same events. *)
let phase_layer = function
  | "construction-1 (costs)" -> Some "runner.costs_s"
  | "construction-2a (routing)" -> Some "runner.routing_s"
  | "construction-2b (pricing)" -> Some "runner.pricing_s"
  | "execution" -> Some "runner.execution_s"
  | _ -> None

let add_runner_events ~bank layers events =
  let last_end = ref 0L and own_ns = ref 0 in
  List.iter
    (function
      | Obs.Span { name; ts_ns; dur_ns; _ } -> (
          match phase_layer name with
          | Some layer ->
              Layers.add_ns layers layer (Int64.to_int dur_ns);
              own_ns := !own_ns + Int64.to_int dur_ns;
              last_end := Int64.add ts_ns dur_ns
          | None ->
              if bank && String.equal name "bank.settle" then begin
                Layers.add_ns layers "bank.settle_s" (Int64.to_int dur_ns);
                own_ns := !own_ns + Int64.to_int dur_ns
              end)
      | Obs.Instant { name = "checkpoint"; ts_ns; _ } when bank ->
          let dt = Int64.to_int (Int64.sub ts_ns !last_end) in
          Layers.add_ns layers "bank.checkpoint_s" dt;
          Layers.add_count layers "bank.checkpoints" 1;
          own_ns := !own_ns + dt
      | Obs.Instant { name = "accusation"; _ } when bank ->
          Layers.add_count layers "bank.detections" 1
      | Obs.Instant _ | Obs.Sample _ -> ())
    events;
  !own_ns

let run (cfg : Measure.config) =
  let n = if cfg.small then 16 else 64 in
  let (graphs, traffic), setup_s = Measure.setup (fun () -> inputs ~n cfg.seed) in
  let oracles = Array.map Pricing.compute graphs in
  (* Traced runs stay on the first graph, so that the traced and the
     untraced median op compare like with like. *)
  let topo i = if cfg.trace then 0 else i mod topologies in
  (* Sabotage: one node miscomputes its routing table; the bank must
     catch it, so the run does not certify. *)
  let deviations =
    Array.init n (fun i ->
        if cfg.sabotage && i = 1 then Adversary.Miscompute_routing 2. else Adversary.Faithful)
  in
  let untraced i = Runner.run ~graph:graphs.(topo i) ~traffic ~deviations () in
  let reference = ref None in
  let check i r =
    (* a traced op must reproduce the first untraced run on graph 0 *)
    if cfg.trace && Option.is_none !reference then reference := Some r;
    certified_correct ~oracle:oracles.(topo i) r
  in
  let layers = Layers.create () in
  let obs = Obs.memory ~detail:false () in
  (* Untimed part of a traced op: compare with the untraced run, record
     the layers, and take the phase spans from [Runner] under [obs]. *)
  let traced_check _ t =
    let u = Option.get !reference in
    List.iter
      (fun (kind, tm) ->
        Layers.add_ns layers (Printf.sprintf "node.%s_handler_s" kind) tm.ns;
        Layers.add_count layers "node.handler_calls" tm.calls;
        Layers.add layers "node.alloc_mw" "Mw" (tm.words /. 1e6))
      t.handler_ns;
    Layers.add_count layers "node.update_msgs" t.update_msgs;
    Layers.add_count layers "node.copy_msgs" t.copy_msgs;
    let engine_self = t.engine_run_ns - t.in_engine_ns in
    Layers.add_ns layers "engine.self_s" engine_self;
    Layers.add_count layers "engine.events" t.events;
    Layers.add_count layers "engine.queue_peak" t.queue_peak;
    Layers.add_count layers "engine.lost" t.lost;
    Layers.add layers "engine.bytes" "B" (float_of_int t.bytes);
    Layers.add_ns layers "bank.checkpoint_s" t.checkpoint_ns;
    Layers.add_count layers "bank.checkpoints" 3;
    Layers.add_ns layers "bank.settle_s" t.settle_ns;
    Layers.add_count layers "bank.detections" t.detections;
    Layers.add layers "bank.bytes" "B" (float_of_int t.bank_bytes);
    Obs.reset obs;
    let r =
      Runner.run_faithful ~params:{ Runner.default_params with Runner.obs } ~graph:graphs.(0)
        ~traffic ()
    in
    ignore (add_runner_events ~bank:false layers (Obs.events obs));
    Layers.add_count layers "runner.restarts" r.Runner.restarts;
    same_as_untraced u t
    && r.Runner.tables = u.Runner.tables
    && r.Runner.construction_messages = u.Runner.construction_messages
    && Obs.dropped obs = 0
  in
  (* No warm-up: an op is seconds long, so the first one's heap growth
     is noise, and a warm-up would cost a further op per run. *)
  Measure.drive cfg ~setup_s ~run:untraced ~check
    ~traced_run:(fun _ -> traced_op graphs.(0) traffic)
    ~traced_check
    ~layers:
      (Measure.layer_report layers
         ~top:
           [
             "node.cost_handler_s"; "node.routing_handler_s"; "node.pricing_handler_s";
             "node.packet_handler_s"; "engine.self_s"; "bank.checkpoint_s"; "bank.settle_s";
           ])
    ()
