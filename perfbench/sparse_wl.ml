(* sparse_as10k: [Sparse.create ~dests] over 8 spread destinations, then
   [flood], [routing_fixpoint] and [pricing_fixpoint] on a seeded
   as:10000:2 — the change-driven per-destination kernel, called
   directly (not through [Scale]). Memory matters at this size.

   The first op on each graph is checked against Dijkstra: every node's
   distance to every destination and the transits it pays, and, for six
   seeded transits k per destination, every price paid to k against
   c_k + d(-k) - d from the avoid-node Dijkstra. Each later op must
   reproduce the checked state exactly. *)

module Graph = Damd_graph.Graph
module Gen = Damd_graph.Gen
module Dijkstra = Damd_graph.Dijkstra
module Rng = Damd_util.Rng
module Sparse = Damd_fpss.Sparse
module Obs = Damd_obs.Obs
module Clock = Damd_obs.Clock
module Layers = Measure.Layers

let k = 8
let transits_per_dest = 6

(* Ops cycle through [draws] seeded as:10000:2 graphs, so that a run's
   figures average several draws: one op takes up to 2x longer on one
   draw than on another. The first is the graph of [damd_cli topo -t
   as:10000:2 --converge --dests 8 --seed SEED], with its destinations. *)
let draws = 4

let inputs ~n seed =
  let root = Rng.create seed in
  ( Array.init draws (fun j ->
        fst
          (Gen.as_like (if j = 0 then Rng.create seed else Rng.fork root j) ~n ~m:2
             (Gen.Uniform_int (1, 10)))),
    Array.init k (fun i -> i * n / k) )

(* [record stage ns] receives each stage's time; the untraced op drops
   them. *)
let converge ?(obs = Obs.noop) ?(record = fun _ _ -> ()) ?offsets ~dests g =
  let last = ref (Clock.now_ns ()) in
  let lap stage =
    let now = Clock.now_ns () in
    record stage (Int64.to_int (Int64.sub now !last));
    last := now
  in
  let t = Sparse.create ~dests g in
  lap "sparse.create_s";
  Sparse.set_obs t obs;
  Sparse.flood t;
  lap "sparse.flood_s";
  Sparse.routing_fixpoint ?offsets t;
  lap "sparse.routing_s";
  Sparse.pricing_fixpoint t;
  lap "sparse.pricing_s";
  t

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let oracle_ok ~seed g dests t =
  let n = Graph.n g in
  let rng = Rng.create (seed lxor 0x5eed) in
  let per_dest d =
    let routes = Dijkstra.to_dest g ~dst:d in
    let interior =
      Array.map
        (Option.map (fun e -> List.sort Int.compare (Dijkstra.transit_nodes e.Dijkstra.path)))
        routes
    in
    (* Every node: its distance, and the transits it pays are exactly
       the interior of its lowest-cost path. *)
    let rows_ok =
      Array.for_all Fun.id
        (Array.init n (fun i ->
             match (routes.(i), interior.(i)) with
             | Some e, Some trs ->
                 close (Sparse.dist t i ~dest:d) e.Dijkstra.cost
                 && List.map fst (Sparse.prices t i ~dest:d) = trs
             | _ -> false))
    in
    (* Seeded transits: every price any node pays one of them must be
       c_k + d(-k) - d, with d(-k) from the avoid-node Dijkstra. *)
    let crossed = Array.make n false in
    Array.iter (Option.iter (List.iter (fun k -> crossed.(k) <- true))) interior;
    let candidates = Array.of_list (List.filter (fun k -> crossed.(k)) (List.init n Fun.id)) in
    Rng.shuffle rng candidates;
    let price_ok k =
      let avoiding = Dijkstra.to_dest ~avoid:k g ~dst:d in
      Array.for_all Fun.id
        (Array.init n (fun i ->
             match (interior.(i), routes.(i), avoiding.(i)) with
             | Some trs, Some e, Some a when List.mem k trs ->
                 close
                   (List.assoc k (Sparse.prices t i ~dest:d))
                   (Graph.cost g k +. a.Dijkstra.cost -. e.Dijkstra.cost)
             | Some trs, _, None -> not (List.mem k trs)
             | _ -> true))
    in
    rows_ok
    && List.for_all price_ok
         (Array.to_list (Array.sub candidates 0 (min transits_per_dest (Array.length candidates))))
  in
  Array.for_all per_dest dests

(* A digest of the converged state: every announced distance and price
   row plus the work counters. *)
let fingerprint dests t =
  let n = Graph.n (Sparse.graph t) in
  let b = Buffer.create (1 lsl 20) in
  let add_float x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let add_int i = Buffer.add_int64_le b (Int64.of_int i) in
  Array.iter
    (fun d ->
      for i = 0 to n - 1 do
        add_float (Sparse.dist t i ~dest:d);
        List.iter
          (fun (tr, p) ->
            add_int tr;
            add_float p)
          (Sparse.prices t i ~dest:d);
        add_int (-1)
      done)
    dests;
  List.iter add_int
    [ Sparse.messages t; Sparse.recomputes t; Sparse.rounds_routing t; Sparse.rounds_pricing t ];
  Digest.string (Buffer.contents b)

let run (cfg : Measure.config) =
  let n = if cfg.small then 1000 else 10_000 in
  let (graphs, dests), setup_s = Measure.setup ~reps:5 (fun () -> inputs ~n cfg.seed) in
  (* Traced runs stay on the first graph, so that the traced and the
     untraced median op compare like with like. *)
  let topo i = if cfg.trace then 0 else i mod draws in
  (* Sabotage: node 0 announces every route 1 dearer than it is. *)
  let offsets =
    if cfg.sabotage then Some (Array.init n (fun i -> if i = 0 then 1. else 0.)) else None
  in
  let op i = converge ?offsets ~dests graphs.(topo i) in
  (* The first op on each graph is checked against the oracle; later
     ones must reach the same state. *)
  let references = Array.make draws None in
  let check i t =
    let j = topo i in
    let fp = fingerprint dests t in
    match references.(j) with
    | Some r -> Digest.equal fp r
    | None ->
        references.(j) <- Some fp;
        oracle_ok ~seed:cfg.seed graphs.(j) dests t
  in
  let layers = Layers.create () in
  let obs = Obs.memory ~detail:false () in
  let traced_run _ =
    Obs.reset obs;
    converge ~obs ~record:(Layers.add_ns layers) ?offsets ~dests graphs.(0)
  in
  let traced_check i t =
    let dirty_pairs =
      List.fold_left
        (fun acc -> function
          | Obs.Sample
              { name = "sparse.routing.dirty_pairs" | "sparse.pricing.dirty_pairs"; value; _ }
            ->
              acc +. value
          | _ -> acc)
        0. (Obs.events obs)
    in
    Layers.add_count layers "sparse.recomputes" (Sparse.recomputes t);
    Layers.add_count layers "sparse.messages" (Sparse.messages t);
    Layers.add_count layers "sparse.rounds_routing" (Sparse.rounds_routing t);
    Layers.add_count layers "sparse.rounds_pricing" (Sparse.rounds_pricing t);
    Layers.add layers "sparse.state_words" "words" (float_of_int (Sparse.state_words t));
    Layers.add layers "sparse.useful_ratio" "ratio"
      (dirty_pairs /. float_of_int (Sparse.recomputes t));
    check i t && Obs.dropped obs = 0
  in
  Measure.drive cfg ~setup_s
    ~warmup:(fun () ->
      let ok = check 0 (op 0) in
      fun () -> ok)
    ~run:op ~check ~traced_run ~traced_check
    ~layers:
      (Measure.layer_report layers
         ~top:[ "sparse.create_s"; "sparse.flood_s"; "sparse.routing_s"; "sparse.pricing_s" ])
    ()
