module Graph = Damd_graph.Graph
module Dijkstra = Damd_graph.Dijkstra

let by_transit (a, x) (b, y) =
  let c = Int.compare a b in
  if c <> 0 then c else Float.compare x y

type result = {
  tables : Tables.t;
  rounds_flood : int;
  rounds_routing : int;
  rounds_pricing : int;
  messages : int;
}

(* DATA1: synchronous flooding of (node, cost) announcements. Each round a
   node forwards any facts it learned in the previous round to all
   neighbors; one message per (node, neighbor) per round with news. *)
let flood_costs g =
  let n = Graph.n g in
  let known = Array.init n (fun _ -> Array.make n false) in
  let fresh = Array.init n (fun i -> [ i ]) in
  for i = 0 to n - 1 do
    known.(i).(i) <- true
  done;
  let rounds = ref 0 and messages = ref 0 in
  let active = ref (n > 1) in
  while !active do
    incr rounds;
    let next_fresh = Array.make n [] in
    let progress = ref false in
    for i = 0 to n - 1 do
      if fresh.(i) <> [] then
        Array.iter
          (fun a ->
            incr messages;
            List.iter
              (fun fact ->
                if not known.(a).(fact) then begin
                  known.(a).(fact) <- true;
                  next_fresh.(a) <- fact :: next_fresh.(a);
                  progress := true
                end)
              fresh.(i))
          (Graph.neighbors_arr g i)
    done;
    Array.blit next_fresh 0 fresh 0 n;
    active := !progress
  done;
  (* The final round carried no news; don't count it as convergence work. *)
  (max 0 (!rounds - 1), !messages)

(* DATA2 and DATA3 run on [Sparse] over the full destination set: the
   change-driven Jacobi fixpoints with the canonical (cost, hops, lex path)
   tie-break, whose dense tables [to_tables] rebuilds. DATA1 keeps the
   n-fact flood above, so [messages] counts what the all-pairs protocol
   sends: flood plus fixpoint announcements. *)
let run ?max_rounds g =
  let rounds_flood, flood_msgs = flood_costs g in
  let s = Sparse.create g in
  Sparse.routing_fixpoint ?max_rounds s;
  Sparse.pricing_fixpoint ?max_rounds s;
  {
    tables = Sparse.to_tables s;
    rounds_flood;
    rounds_routing = Sparse.rounds_routing s;
    rounds_pricing = Sparse.rounds_pricing s;
    messages = flood_msgs + Sparse.messages s;
  }

(* --- Reference implementation ---

   The dense full sweep: every round recomputes all n^2 entries and
   compares whole rows, on explicit path-vector tables. Kept as the oracle
   for the equivalence tests in [test/test_fpss.ml], which assert that
   [run] produces identical tables, round counts and message counts from a
   cold start, and that a [Sparse] warm restart reaches the same tables as
   the [?warm_start] sweep below. *)

let infinity_cost = infinity

let reference_routing_fixpoint ?(max_rounds = 1000) ?init g =
  let n = Graph.n g in
  let state =
    match init with
    | Some (tables : Dijkstra.entry option array array) ->
        Array.map Array.copy tables
    | None -> Array.init n (fun _ -> Array.make n None)
  in
  for i = 0 to n - 1 do
    state.(i).(i) <- Some { Dijkstra.cost = 0.; path = [ i ] }
  done;
  let rounds = ref 0 and messages = ref 0 in
  let changed_nodes = ref (List.init n (fun i -> i)) in
  while !changed_nodes <> [] do
    incr rounds;
    if !rounds > max_rounds then failwith "Distributed: routing did not converge";
    List.iter (fun i -> messages := !messages + Graph.degree g i) !changed_nodes;
    let next = Array.init n (fun _ -> Array.make n None) in
    let round_changed = ref [] in
    for i = 0 to n - 1 do
      next.(i).(i) <- Some { Dijkstra.cost = 0.; path = [ i ] };
      for j = 0 to n - 1 do
        if i <> j then begin
          let consider best a =
            match state.(a).(j) with
            | Some e when not (List.mem i e.Dijkstra.path) ->
                let step = if a = j then 0. else Graph.cost g a in
                let cand =
                  { Dijkstra.cost = e.Dijkstra.cost +. step; path = i :: e.Dijkstra.path }
                in
                (match best with
                | None -> Some cand
                | Some b -> if Dijkstra.compare_entry cand b < 0 then Some cand else best)
            | _ -> best
          in
          next.(i).(j) <- List.fold_left consider None (Graph.neighbors g i)
        end
      done;
      if next.(i) <> state.(i) then round_changed := i :: !round_changed
    done;
    Array.blit next 0 state 0 n;
    changed_nodes := !round_changed
  done;
  (state, max 0 (!rounds - 1), !messages)

let reference_pricing_fixpoint ?(max_rounds = 1000) ?init g routing =
  let n = Graph.n g in
  let dist i j =
    match routing.(i).(j) with
    | Some e -> e.Dijkstra.cost
    | None -> infinity_cost
  in
  let on_path k i j =
    match routing.(i).(j) with
    | Some e -> List.mem k e.Dijkstra.path
    | None -> false
  in
  let state =
    match init with
    | Some (prices : (int * float) list array array) -> Array.map Array.copy prices
    | None -> Array.init n (fun _ -> Array.make n ([] : (int * float) list))
  in
  let rounds = ref 0 and messages = ref 0 in
  let changed_nodes = ref (List.init n (fun i -> i)) in
  while !changed_nodes <> [] do
    incr rounds;
    if !rounds > max_rounds then failwith "Distributed: pricing did not converge";
    List.iter (fun i -> messages := !messages + Graph.degree g i) !changed_nodes;
    let next = Array.init n (fun _ -> Array.make n ([] : (int * float) list)) in
    let round_changed = ref [] in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then
          match routing.(i).(j) with
          | None -> ()
          | Some e ->
              let price_for k =
                let via a =
                  if a = k then infinity_cost
                  else begin
                    let step = if a = j then 0. else Graph.cost g a in
                    let d_mk_a =
                      if a = j then 0.
                      else if not (on_path k a j) then dist a j
                      else
                        match List.assoc_opt k state.(a).(j) with
                        | Some p -> p -. Graph.cost g k +. dist a j
                        | None -> infinity_cost
                    in
                    step +. d_mk_a
                  end
                in
                let d_mk =
                  List.fold_left (fun acc a -> Float.min acc (via a)) infinity_cost
                    (Graph.neighbors g i)
                in
                if Float.is_finite d_mk then
                  Some (k, Graph.cost g k +. d_mk -. dist i j)
                else None
              in
              next.(i).(j) <-
                List.filter_map price_for (Dijkstra.transit_nodes e.Dijkstra.path)
                |> List.sort by_transit
      done;
      if next.(i) <> state.(i) then round_changed := i :: !round_changed
    done;
    Array.blit next 0 state 0 n;
    changed_nodes := !round_changed
  done;
  (state, max 0 (!rounds - 1), !messages)

let run_reference ?max_rounds ?warm_start g =
  let n = Graph.n g in
  let max_rounds = match max_rounds with Some r -> r | None -> (10 * n) + 20 in
  let rounds_flood, flood_msgs = flood_costs g in
  let routing_init = Option.map (fun t -> t.Tables.routing) warm_start in
  let pricing_init = Option.map (fun t -> t.Tables.prices) warm_start in
  let routing, rounds_routing, routing_msgs =
    reference_routing_fixpoint ~max_rounds ?init:routing_init g
  in
  let prices, rounds_pricing, pricing_msgs =
    reference_pricing_fixpoint ~max_rounds ?init:pricing_init g routing
  in
  {
    tables = { Tables.routing; prices };
    rounds_flood;
    rounds_routing;
    rounds_pricing;
    messages = flood_msgs + routing_msgs + pricing_msgs;
  }
