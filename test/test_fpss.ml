(* Tests for Damd_fpss: hand-checked VCG prices on the paper's Figure 1,
   Example 1 reproduced under both pricing schemes, FPSS strategyproofness
   (and the naive baseline's manipulability), execution-phase accounting,
   and the distributed computation's exact agreement with the centralized
   mechanism. *)

module Rng = Damd_util.Rng
module Graph = Damd_graph.Graph
module Dijkstra = Damd_graph.Dijkstra
module Gen = Damd_graph.Gen
module Mechanism = Damd_mech.Mechanism
module Strategyproof = Damd_mech.Strategyproof
module Pricing = Damd_fpss.Pricing
module Naive = Damd_fpss.Naive
module Tables = Damd_fpss.Tables
module Traffic = Damd_fpss.Traffic
module Game = Damd_fpss.Game
module Distributed = Damd_fpss.Distributed
module Sparse = Damd_fpss.Sparse

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

let fig1 = lazy (Gen.figure1 ())
let node name = List.assoc name (snd (Lazy.force fig1))
let fig1_tables = lazy (Pricing.compute (fst (Lazy.force fig1)))

(* --- VCG prices on Figure 1, by hand ---
   d(X,Z) = 2 via X-D-C-Z.
   p^C_XZ = c_C + d(-C)(X,Z) - d(X,Z) = 1 + 5 - 2 = 4   (detour X-A-Z)
   p^D_XZ = c_D + d(-D)(X,Z) - d(X,Z) = 1 + 5 - 2 = 4
   d(Z,D) = 1 via Z-C-D.
   p^C_ZD = 1 + d(-C)(Z,D) - 1 = 1 + 6 - 1 = 6          (detour Z-B-D) *)

let test_fig1_price_c_on_xz () =
  let t = Lazy.force fig1_tables in
  match Pricing.price t ~src:(node "X") ~dst:(node "Z") ~transit:(node "C") with
  | Some p -> checkf "p^C_XZ" 4. p
  | None -> Alcotest.fail "missing price"

let test_fig1_price_d_on_xz () =
  let t = Lazy.force fig1_tables in
  match Pricing.price t ~src:(node "X") ~dst:(node "Z") ~transit:(node "D") with
  | Some p -> checkf "p^D_XZ" 4. p
  | None -> Alcotest.fail "missing price"

let test_fig1_price_c_on_zd () =
  let t = Lazy.force fig1_tables in
  match Pricing.price t ~src:(node "Z") ~dst:(node "D") ~transit:(node "C") with
  | Some p -> checkf "p^C_ZD" 6. p
  | None -> Alcotest.fail "missing price"

let test_fig1_no_price_for_endpoints () =
  let t = Lazy.force fig1_tables in
  check Alcotest.bool "no endpoint price" true
    (Pricing.price t ~src:(node "X") ~dst:(node "Z") ~transit:(node "X") = None);
  check (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
    "adjacent pair pays nobody" []
    (Pricing.packet_payments t ~src:(node "B") ~dst:(node "D"))

let test_fig1_premium_nonneg () =
  let g, _ = Lazy.force fig1 in
  let t = Lazy.force fig1_tables in
  for src = 0 to 5 do
    for dst = 0 to 5 do
      List.iter
        (fun (k, _) ->
          match Pricing.premium g t ~src ~dst ~transit:k with
          | Some prem -> check Alcotest.bool "premium >= 0" true (prem >= -1e-9)
          | None -> Alcotest.fail "premium missing")
        (Pricing.packet_payments t ~src ~dst)
    done
  done

let test_naive_prices_are_declared_costs () =
  let g, _ = Lazy.force fig1 in
  let t = Naive.compute g in
  match Tables.price t ~src:(node "X") ~dst:(node "Z") ~transit:(node "C") with
  | Some p -> checkf "declared cost" 1. p
  | None -> Alcotest.fail "missing price"

(* --- Example 1 under both schemes --- *)

let example1_utilities scheme declared_c =
  let g, _ = Lazy.force fig1 in
  let true_costs = Graph.costs g in
  let declared = Array.copy true_costs in
  declared.(node "C") <- declared_c;
  let traffic = Traffic.uniform ~n:6 ~rate:1. in
  (Game.utilities scheme ~base:g ~true_costs ~declared ~traffic).(node "C")

let test_example1_naive_lie_profitable () =
  (* Under declared-cost pricing, C gains by declaring 5 (Example 1). *)
  let truthful = example1_utilities Game.Naive_cost 1. in
  let lying = example1_utilities Game.Naive_cost 5. in
  check Alcotest.bool "naive manipulable" true (lying > truthful +. 1e-9)

let test_example1_vcg_lie_not_profitable () =
  let truthful = example1_utilities Game.Vcg 1. in
  List.iter
    (fun lie ->
      let u = example1_utilities Game.Vcg lie in
      check Alcotest.bool "vcg resists" true (u <= truthful +. 1e-9))
    [ 0.; 0.5; 2.; 3.; 5.; 7.; 100. ]

let test_example1_efficiency_damage () =
  (* The lie degrades true routing efficiency: packets X->Z take a path of
     true cost 5 instead of 2. *)
  let g, _ = Lazy.force fig1 in
  let lied = Graph.with_cost g (node "C") 5. in
  let t = Pricing.compute lied in
  match Tables.path t ~src:(node "X") ~dst:(node "Z") with
  | Some path ->
      let true_cost =
        List.fold_left (fun acc v -> acc +. Graph.cost g v) 0. (Dijkstra.transit_nodes path)
      in
      checkf "true cost of lied-about route" 5. true_cost
  | None -> Alcotest.fail "no path"

(* --- Strategyproofness of the full routing game --- *)

let random_game rng scheme n =
  let g = Gen.erdos_renyi rng ~n ~p:0.35 (Gen.Uniform_int (0, 10)) in
  let traffic = Traffic.uniform ~n ~rate:1. in
  Game.mechanism scheme ~base:g ~traffic

let test_vcg_game_strategyproof_random () =
  let rng = Rng.create 301 in
  for _ = 1 to 5 do
    let m = random_game rng Game.Vcg 8 in
    let r =
      Strategyproof.check ~rng ~profiles:15 ~lies_per_agent:4
        ~sample_profile:(fun rng -> Game.sample_costs rng ~n:8)
        ~sample_lie:Game.sample_lie m
    in
    if not (Strategyproof.is_strategyproof r) then
      Alcotest.failf "VCG violated: max gain %g" r.Strategyproof.max_gain
  done

let test_naive_game_manipulable_random () =
  let rng = Rng.create 302 in
  let found = ref false in
  for _ = 1 to 5 do
    let m = random_game rng Game.Naive_cost 8 in
    let r =
      Strategyproof.check ~rng ~profiles:15 ~lies_per_agent:4
        ~sample_profile:(fun rng -> Game.sample_costs rng ~n:8)
        ~sample_lie:Game.sample_lie m
    in
    if not (Strategyproof.is_strategyproof r) then found := true
  done;
  check Alcotest.bool "naive scheme exploitable" true !found

let test_vcg_price_independent_of_own_declaration () =
  (* While k stays on the LCP, its payment does not move with its own
     declared cost — the heart of VCG strategyproofness. *)
  let rng = Rng.create 303 in
  for _ = 1 to 10 do
    let g = Gen.chordal_ring rng ~n:10 ~chords:5 (Gen.Uniform_int (1, 10)) in
    let t = Pricing.compute g in
    let src = Rng.int rng 10 and dst = Rng.int rng 10 in
    if src <> dst then
      match Tables.path t ~src ~dst with
      | Some path -> (
          match Dijkstra.transit_nodes path with
          | [] -> ()
          | k :: _ -> (
              let p0 = Pricing.price t ~src ~dst ~transit:k in
              (* Lower k's declaration: k certainly stays on the LCP. *)
              let g' = Graph.with_cost g k (Graph.cost g k /. 2.) in
              let t' = Pricing.compute g' in
              match (p0, Pricing.price t' ~src ~dst ~transit:k) with
              | Some a, Some b -> checkf "price unchanged" a b
              | _ -> Alcotest.fail "price disappeared"))
      | None -> Alcotest.fail "disconnected"
  done

(* --- Tables accounting --- *)

let test_transit_load_fig1 () =
  let t = Lazy.force fig1_tables in
  let traffic = Traffic.uniform ~n:6 ~rate:1. in
  (* C transits: X<->Z, D<->Z, A<->C? no (endpoint), and X<->C? no.
     From the LCP structure: C carries (X,Z),(Z,X),(D,Z),(Z,D) at least. *)
  let load_c = Tables.transit_load t traffic (node "C") in
  check Alcotest.bool "C carries at least 4 flows" true (load_c >= 4.);
  (* A carries nothing at true costs: its cost 5 loses to the C-D side. *)
  let load_a = Tables.transit_load t traffic (node "A") in
  checkf "A idle" 0. load_a

let test_income_matches_price_times_load_single_flow () =
  let t = Lazy.force fig1_tables in
  let traffic = Array.make_matrix 6 6 0. in
  traffic.(node "X").(node "Z") <- 3.;
  checkf "income of C" 12. (Tables.income t traffic (node "C"));
  checkf "outlay of X" 24. (Tables.outlay t traffic (node "X"));
  checkf "D also paid" 12. (Tables.income t traffic (node "D"))

let test_transfers_balance () =
  (* Money is conserved between sources and transits: sum(income) =
     sum(outlay), so transfers sum to zero. *)
  let t = Lazy.force fig1_tables in
  let traffic = Traffic.uniform ~n:6 ~rate:2. in
  let transfers = Tables.transfers t traffic in
  checkf "zero sum" 0. (Array.fold_left ( +. ) 0. transfers)

let test_traffic_generators () =
  let rng = Rng.create 304 in
  let u = Traffic.uniform ~n:4 ~rate:2. in
  checkf "uniform total" (2. *. 12.) (Traffic.total u);
  checkf "diagonal zero" 0. u.(1).(1);
  let r = Traffic.random rng ~n:5 ~max_rate:3. in
  checkf "diag" 0. r.(2).(2);
  check Alcotest.bool "bounded" true
    (Array.for_all (Array.for_all (fun x -> x >= 0. && x <= 3.)) r);
  let h = Traffic.hotspot rng ~n:6 ~hotspots:2 ~rate:1. in
  check Alcotest.int "hotspot pairs" (2 * 5) (List.length (Traffic.demand_pairs h));
  let s = Traffic.scale u 0.5 in
  checkf "scaled" (Traffic.total u /. 2.) (Traffic.total s)

(* --- Distributed computation --- *)

let test_distributed_matches_centralized_fig1 () =
  let g, _ = Lazy.force fig1 in
  let d = Distributed.run g in
  let c = Pricing.compute g in
  check Alcotest.bool "routing equal" true (Tables.routing_equal d.Distributed.tables c);
  check Alcotest.bool "prices equal" true (Tables.prices_equal d.Distributed.tables c)

let test_distributed_matches_centralized_random_int_costs () =
  let rng = Rng.create 305 in
  for _ = 1 to 10 do
    let g = Gen.erdos_renyi rng ~n:12 ~p:0.3 (Gen.Uniform_int (0, 10)) in
    let d = Distributed.run g in
    let c = Pricing.compute g in
    check Alcotest.bool "routing equal" true (Tables.routing_equal d.Distributed.tables c);
    (* Integer costs: agreement is exact. *)
    check Alcotest.bool "prices exactly equal" true
      (Tables.prices_equal d.Distributed.tables c)
  done

let test_distributed_matches_centralized_float_costs () =
  let rng = Rng.create 306 in
  for _ = 1 to 5 do
    let g = Gen.waxman rng ~n:12 ~alpha:0.7 ~beta:0.4 (Gen.Uniform_float (0.1, 5.)) in
    let d = Distributed.run g in
    let c = Pricing.compute g in
    check Alcotest.bool "routing equal" true (Tables.routing_equal d.Distributed.tables c);
    check Alcotest.bool "prices within tolerance" true
      (Tables.prices_equal ~tolerance:1e-6 d.Distributed.tables c)
  done

let test_flood_rounds_equal_diameter () =
  let rng = Rng.create 307 in
  for _ = 1 to 5 do
    let g = Gen.chordal_ring rng ~n:16 ~chords:4 (Gen.Uniform_int (1, 5)) in
    let rounds, messages = Distributed.flood_costs g in
    check Alcotest.int "rounds = hop diameter" (Graph.hop_diameter g) rounds;
    check Alcotest.bool "messages positive" true (messages > 0)
  done

let test_distributed_round_counts_reasonable () =
  let rng = Rng.create 308 in
  let g = Gen.erdos_renyi rng ~n:16 ~p:0.25 (Gen.Uniform_int (0, 10)) in
  let d = Distributed.run g in
  check Alcotest.bool "routing rounds bounded by n" true (d.Distributed.rounds_routing <= 16);
  check Alcotest.bool "flood rounds = diameter" true
    (d.Distributed.rounds_flood = Graph.hop_diameter g);
  check Alcotest.bool "messages counted" true (d.Distributed.messages > 0)

let test_distributed_ring () =
  (* A ring has exactly two paths per pair; on a 5-ring with unit costs,
     the 0->2 LCP is 0-1-2 (cost 1) and the detour around node 1 is
     0-4-3-2 (cost 2), so p^1 = 1 + 2 - 1 = 2. *)
  let g = Gen.ring ~n:5 ~costs:[| 1.; 1.; 1.; 1.; 1. |] in
  let d = Distributed.run g in
  match Tables.price d.Distributed.tables ~src:0 ~dst:2 ~transit:1 with
  | Some p -> checkf "ring price" 2. p
  | None -> Alcotest.fail "missing ring price"

(* Warm restart the way E15 runs it: reconverge the state a cold [Sparse]
   run left behind after setting node [i]'s cost to [c]. Returns the
   tables, the routing rounds and the messages (the n-fact DATA1 flood plus
   the fixpoints'). *)
let sparse_warm g i c =
  let sp = Sparse.create g in
  Sparse.run sp;
  Sparse.update_cost sp i c;
  let m0 = Sparse.messages sp in
  Sparse.rerun sp;
  let flood_msgs = snd (Distributed.flood_costs (Sparse.graph sp)) in
  (Sparse.to_tables sp, Sparse.rounds_routing sp, flood_msgs + Sparse.messages sp - m0)

let test_warm_start_reconverges_exactly () =
  (* After a single cost change, warm-restarting from the old state
     reaches exactly the new centralized fixpoint, and the same tables as
     the reference warm start. *)
  let rng = Rng.create 309 in
  for _ = 1 to 5 do
    let g = Gen.chordal_ring rng ~n:14 ~chords:4 (Gen.Uniform_int (1, 10)) in
    let c = float_of_int (Rng.int_in rng 1 10) in
    let i = Rng.int rng 14 in
    let changed = Graph.with_cost g i c in
    let warm, _, _ = sparse_warm g i c in
    let reference = Pricing.compute changed in
    check Alcotest.bool "routing exact" true (Tables.routing_equal warm reference);
    check Alcotest.bool "prices exact" true (Tables.prices_equal warm reference);
    let warm_ref =
      Distributed.run_reference
        ~warm_start:(Distributed.run_reference g).Distributed.tables changed
    in
    check Alcotest.bool "= reference warm start" true
      (warm = warm_ref.Distributed.tables)
  done

let test_warm_start_cheaper_on_average () =
  let rng = Rng.create 310 in
  let warm_msgs = ref 0 and cold_msgs = ref 0 in
  for _ = 1 to 8 do
    let g = Gen.chordal_ring rng ~n:16 ~chords:4 (Gen.Uniform_int (1, 10)) in
    let c = float_of_int (Rng.int_in rng 1 10) in
    let i = Rng.int rng 16 in
    let _, _, warm = sparse_warm g i c in
    let cold = Distributed.run (Graph.with_cost g i c) in
    warm_msgs := !warm_msgs + warm;
    cold_msgs := !cold_msgs + cold.Distributed.messages
  done;
  check Alcotest.bool "incremental cheaper" true (!warm_msgs < !cold_msgs)

let test_warm_start_identity_when_unchanged () =
  let g, _ = Lazy.force fig1 in
  let cold = Distributed.run g in
  let warm, rounds_routing, _ = sparse_warm g 0 (Graph.cost g 0) in
  check Alcotest.bool "tables unchanged" true
    (Tables.routing_equal warm cold.Distributed.tables
    && Tables.prices_equal warm cold.Distributed.tables);
  (* Convergence is immediate: the first round discovers no change. *)
  check Alcotest.int "routing converged instantly" 0 rounds_routing

(* --- Change-driven fixpoints vs the full-sweep reference ---

   [Distributed.run] runs [Sparse]'s change-driven fixpoints, which
   recompute only entries whose neighbor inputs changed;
   [Distributed.run_reference] is the retained dense full sweep. From a
   cold start the two must be indistinguishable: byte-identical tables
   (structural equality over every cost, path and price entry) and
   identical round and message counts. *)

let check_equiv_with_reference ?(tolerance = 0.) name g =
  let d = Distributed.run g in
  let r = Distributed.run_reference g in
  check Alcotest.bool (name ^ ": routing tables byte-identical") true
    (d.Distributed.tables.Tables.routing = r.Distributed.tables.Tables.routing);
  check Alcotest.bool (name ^ ": pricing tables byte-identical") true
    (d.Distributed.tables.Tables.prices = r.Distributed.tables.Tables.prices);
  check Alcotest.int (name ^ ": flood rounds") r.Distributed.rounds_flood
    d.Distributed.rounds_flood;
  check Alcotest.int (name ^ ": routing rounds") r.Distributed.rounds_routing
    d.Distributed.rounds_routing;
  check Alcotest.int (name ^ ": pricing rounds") r.Distributed.rounds_pricing
    d.Distributed.rounds_pricing;
  check Alcotest.int (name ^ ": messages") r.Distributed.messages
    d.Distributed.messages;
  (* And both agree with the centralized mechanism (int costs: exact;
     float costs: within [tolerance]). *)
  let c = Pricing.compute g in
  check Alcotest.bool (name ^ ": = centralized routing") true
    (Tables.routing_equal d.Distributed.tables c);
  check Alcotest.bool (name ^ ": = centralized prices") true
    (Tables.prices_equal ~tolerance d.Distributed.tables c)

let test_change_driven_equals_reference () =
  let g1, _ = Lazy.force fig1 in
  check_equiv_with_reference "fig1" g1;
  let rng = Rng.create 313 in
  for i = 1 to 3 do
    check_equiv_with_reference
      (Printf.sprintf "chordal%d" i)
      (Gen.chordal_ring rng ~n:16 ~chords:4 (Gen.Uniform_int (1, 10)))
  done;
  check_equiv_with_reference "er32"
    (Gen.erdos_renyi (Rng.create 314) ~n:32 ~p:0.15 (Gen.Uniform_int (0, 10)));
  check_equiv_with_reference ~tolerance:1e-6 "waxman-float"
    (Gen.waxman (Rng.create 316) ~n:16 ~alpha:0.7 ~beta:0.4
       (Gen.Uniform_float (0.1, 5.)));
  check_equiv_with_reference "as24"
    (fst (Gen.as_like (Rng.create 317) ~n:24 ~m:2 (Gen.Uniform_int (1, 10))))

let test_change_driven_equals_reference_warm () =
  (* A [Sparse] warm restart after a cost change lands on the reference
     warm start's tables, byte for byte. Round and message counts are not
     compared: flat next-hop state has no path to loop-check, so stale
     loops may count up for a round or two that the reference drops. *)
  let rng = Rng.create 315 in
  for _ = 1 to 4 do
    let g = Gen.chordal_ring rng ~n:16 ~chords:4 (Gen.Uniform_int (1, 10)) in
    let cold_ref = Distributed.run_reference g in
    let c = float_of_int (Rng.int_in rng 1 10) in
    let i = Rng.int rng 16 in
    let changed = Graph.with_cost g i c in
    let warm, _, _ = sparse_warm g i c in
    let warm_ref =
      Distributed.run_reference ~warm_start:cold_ref.Distributed.tables changed
    in
    check Alcotest.bool "warm routing byte-identical" true
      (warm.Tables.routing = warm_ref.Distributed.tables.Tables.routing);
    check Alcotest.bool "warm prices byte-identical" true
      (warm.Tables.prices = warm_ref.Distributed.tables.Tables.prices);
    let reference = Pricing.compute changed in
    check Alcotest.bool "warm = centralized" true
      (Tables.routing_equal warm reference && Tables.prices_equal warm reference)
  done

let prop_change_driven_equals_reference =
  QCheck.Test.make ~name:"change-driven = full-sweep reference (tables+counts)"
    ~count:20
    QCheck.(pair small_nat (float_bound_inclusive 1.))
    (fun (seed, p) ->
      let rng = Rng.create (seed + 700) in
      let n = 6 + (seed mod 10) in
      let p = 0.2 +. (p *. 0.4) in
      let g = Gen.erdos_renyi rng ~n ~p (Gen.Uniform_int (0, 10)) in
      let d = Distributed.run g in
      let r = Distributed.run_reference g in
      d.Distributed.tables.Tables.routing = r.Distributed.tables.Tables.routing
      && d.Distributed.tables.Tables.prices = r.Distributed.tables.Tables.prices
      && d.Distributed.rounds_flood = r.Distributed.rounds_flood
      && d.Distributed.rounds_routing = r.Distributed.rounds_routing
      && d.Distributed.rounds_pricing = r.Distributed.rounds_pricing
      && d.Distributed.messages = r.Distributed.messages)

let prop_distributed_equals_centralized =
  QCheck.Test.make ~name:"distributed = centralized on random graphs" ~count:20
    QCheck.(pair small_nat (float_bound_inclusive 1.))
    (fun (seed, p) ->
      let rng = Rng.create (seed + 400) in
      let n = 6 + (seed mod 8) in
      let p = 0.2 +. (p *. 0.4) in
      let g = Gen.erdos_renyi rng ~n ~p (Gen.Uniform_int (0, 10)) in
      let d = Distributed.run g in
      let c = Pricing.compute g in
      Tables.routing_equal d.Distributed.tables c
      && Tables.prices_equal d.Distributed.tables c)

let prop_warm_start_exact =
  QCheck.Test.make ~name:"warm start reaches the exact new fixpoint" ~count:15
    QCheck.(triple small_nat small_nat (int_bound 10))
    (fun (seed, who, new_cost) ->
      let rng = Rng.create (seed + 600) in
      let n = 8 + (seed mod 6) in
      let g = Gen.chordal_ring rng ~n ~chords:(n / 4) (Gen.Uniform_int (1, 10)) in
      let i = who mod n and c = float_of_int (max 1 new_cost) in
      let warm, _, _ = sparse_warm g i c in
      let reference = Pricing.compute (Graph.with_cost g i c) in
      Tables.routing_equal warm reference && Tables.prices_equal warm reference)

let prop_vcg_game_no_profitable_lie =
  QCheck.Test.make ~name:"FPSS/VCG: random misreport never gains" ~count:25
    QCheck.(triple small_nat small_nat (int_bound 10))
    (fun (seed, agent, lie) ->
      let rng = Rng.create (seed + 500) in
      let n = 7 in
      let g = Gen.erdos_renyi rng ~n ~p:0.4 (Gen.Uniform_int (0, 10)) in
      let traffic = Traffic.uniform ~n ~rate:1. in
      let m = Game.mechanism Game.Vcg ~base:g ~traffic in
      let true_costs = Graph.costs g in
      let agent = agent mod n in
      let truthful = Mechanism.utility m agent true_costs.(agent) true_costs in
      let reports = Array.copy true_costs in
      reports.(agent) <- float_of_int lie;
      Mechanism.utility m agent true_costs.(agent) reports <= truthful +. 1e-9)

(* --- Sparse flat-array engine vs the dense oracle --- *)

let check_sparse_matches_dense name g =
  let d = Distributed.run_reference g in
  let sp = Sparse.create g in
  Sparse.run sp;
  let t = Sparse.to_tables sp in
  check Alcotest.bool (name ^ ": sparse routing byte-identical") true
    (t.Tables.routing = d.Distributed.tables.Tables.routing);
  check Alcotest.bool (name ^ ": sparse prices byte-identical") true
    (t.Tables.prices = d.Distributed.tables.Tables.prices)

let test_sparse_full_dests_matches_dense () =
  let g1, _ = Lazy.force fig1 in
  check_sparse_matches_dense "fig1" g1;
  let rng = Rng.create 320 in
  for i = 1 to 3 do
    check_sparse_matches_dense
      (Printf.sprintf "chordal%d" i)
      (Gen.chordal_ring rng ~n:16 ~chords:4 (Gen.Uniform_int (1, 10)))
  done;
  check_sparse_matches_dense "er32"
    (Gen.erdos_renyi (Rng.create 321) ~n:32 ~p:0.15 (Gen.Uniform_int (0, 10)));
  (* Float costs too: the arithmetic per candidate is identical, so even
     float tables agree bit-for-bit. *)
  check_sparse_matches_dense "waxman"
    (Gen.waxman (Rng.create 322) ~n:16 ~alpha:0.7 ~beta:0.4
       (Gen.Uniform_float (0.1, 5.)))

let test_sparse_restricted_dests_slice_dense () =
  (* The per-destination systems are independent, so restricting the
     destination set must reproduce exactly those columns of the dense
     fixpoint. *)
  let rng = Rng.create 323 in
  let g = Gen.chordal_ring rng ~n:20 ~chords:6 (Gen.Uniform_int (1, 10)) in
  let d = Distributed.run_reference g in
  let dests = [| 0; 3; 7; 19 |] in
  let sp = Sparse.create ~dests g in
  Sparse.run sp;
  Array.iter
    (fun dst ->
      for i = 0 to 19 do
        (match d.Distributed.tables.Tables.routing.(i).(dst) with
        | Some e ->
            checkf "sliced dist" e.Dijkstra.cost (Sparse.dist sp i ~dest:dst);
            check
              (Alcotest.option (Alcotest.list Alcotest.int))
              "sliced path" (Some e.Dijkstra.path)
              (Sparse.path sp i ~dest:dst)
        | None ->
            check Alcotest.bool "sliced unreachable" true
              (Sparse.dist sp i ~dest:dst = infinity));
        check
          (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-12)))
          "sliced prices"
          d.Distributed.tables.Tables.prices.(i).(dst)
          (Sparse.prices sp i ~dest:dst)
      done)
    dests;
  (* Asking for a non-destination is a caller error, not silent garbage. *)
  check Alcotest.bool "non-dest rejected" true
    (match Sparse.dist sp 0 ~dest:5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_sparse_equals_dense =
  QCheck.Test.make ~name:"sparse = dense on random graphs" ~count:20
    QCheck.(pair small_nat (float_bound_inclusive 1.))
    (fun (seed, p) ->
      let rng = Rng.create (seed + 800) in
      let n = 6 + (seed mod 10) in
      let p = 0.2 +. (p *. 0.4) in
      let g = Gen.erdos_renyi rng ~n ~p (Gen.Uniform_int (0, 10)) in
      let d = Distributed.run_reference g in
      let sp = Sparse.create g in
      Sparse.run sp;
      let t = Sparse.to_tables sp in
      t.Tables.routing = d.Distributed.tables.Tables.routing
      && t.Tables.prices = d.Distributed.tables.Tables.prices)

let prop_sparse_warm_equals_dense_warm =
  (* Warm-start differential: after a single cost change,
     [Sparse.update_cost] + [rerun] from the stale announced state must
     land on exactly the tables the dense reference reaches from
     [~warm_start] on the same change — on AS-like power-law topologies,
     where the hub/leaf asymmetry makes stale-loop inflation (the
     count-to-infinity walk of a cost increase) most likely. Strictly
     positive costs, as the warm contract requires. *)
  QCheck.Test.make ~name:"sparse warm restart = dense warm start (as_like)"
    ~count:50
    QCheck.(triple small_nat small_nat (int_bound 9))
    (fun (seed, node_pick, new_cost) ->
      let rng = Rng.create (seed + 2200) in
      let n = 12 + (seed mod 12) in
      let g, _ = Gen.as_like rng ~n ~m:2 (Gen.Uniform_int (1, 10)) in
      let sp = Sparse.create g in
      Sparse.run sp;
      let cold = Distributed.run_reference g in
      let i = node_pick mod n in
      let c = float_of_int (1 + new_cost) in
      let changed = Graph.with_cost g i c in
      let warm_dense =
        Distributed.run_reference ~warm_start:cold.Distributed.tables changed
      in
      Sparse.update_cost sp i c;
      Sparse.rerun sp;
      let t = Sparse.to_tables sp in
      t.Tables.routing = warm_dense.Distributed.tables.Tables.routing
      && t.Tables.prices = warm_dense.Distributed.tables.Tables.prices)

let test_sparse_deviation_checkpoints () =
  (* Honest fixpoints have zero residual at every node; a node distorting
     its announcements by delta shows residual exactly delta at itself —
     and only at itself, because every other node's announcement is by
     construction the honest function of its (possibly distorted)
     inputs. *)
  let g, _ = Lazy.force fig1 in
  let sp = Sparse.create g in
  Sparse.run sp;
  for i = 0 to 5 do
    checkf "honest routing residual" 0. (Sparse.routing_deviation sp i);
    checkf "honest pricing residual" 0. (Sparse.pricing_deviation sp i)
  done;
  (* Node C (id 2, the busiest transit) pads every route announcement. *)
  let routing_offsets = Array.make 6 0. in
  routing_offsets.(2) <- 0.5;
  let sp = Sparse.create g in
  Sparse.run ~routing_offsets sp;
  for i = 0 to 5 do
    let r = Sparse.routing_deviation sp i in
    if i = 2 then checkf "distorter residual = delta" 0.5 r
    else checkf "honest mirror stays clean" 0. r
  done;
  (* And a pricing distorter, caught in the pricing checkpoint only. *)
  let pricing_offsets = Array.make 6 0. in
  pricing_offsets.(2) <- 0.75;
  let sp = Sparse.create g in
  Sparse.run ~pricing_offsets sp;
  for i = 0 to 5 do
    checkf "routing stays clean" 0. (Sparse.routing_deviation sp i);
    let r = Sparse.pricing_deviation sp i in
    if i = 2 then checkf "pricing residual = delta" 0.75 r
    else checkf "honest pricing mirror stays clean" 0. r
  done

(* --- Cross-checks between Game and the underlying tables --- *)

let test_game_utilities_match_mechanism () =
  (* Game.utilities at truthful declarations agrees with the Mechanism
     interface's utility for every node. *)
  let g, _ = Lazy.force fig1 in
  let traffic = Traffic.uniform ~n:6 ~rate:1. in
  let m = Game.mechanism Game.Vcg ~base:g ~traffic in
  let true_costs = Graph.costs g in
  let us =
    Game.utilities Game.Vcg ~base:g ~true_costs ~declared:true_costs ~traffic
  in
  for i = 0 to 5 do
    checkf "same utility" (Mechanism.utility m i true_costs.(i) true_costs) us.(i)
  done

let test_naive_and_vcg_agree_on_routing () =
  (* The two schemes differ only in payments: same declared costs, same
     LCPs. *)
  let rng = Rng.create 311 in
  let g = Gen.erdos_renyi rng ~n:10 ~p:0.35 (Gen.Uniform_int (0, 10)) in
  let vcg = Pricing.compute g in
  let naive = Naive.compute g in
  check Alcotest.bool "same routing" true (Tables.routing_equal vcg naive)

let test_vcg_price_at_least_naive () =
  (* p^k = c_k + (detour - direct) >= c_k: VCG never pays below declared
     cost — the premium is the transit's information rent. *)
  let rng = Rng.create 312 in
  let g = Gen.chordal_ring rng ~n:10 ~chords:4 (Gen.Uniform_int (0, 10)) in
  let vcg = Pricing.compute g in
  for src = 0 to 9 do
    for dst = 0 to 9 do
      List.iter
        (fun (k, p) ->
          check Alcotest.bool "price >= declared cost" true
            (p >= Graph.cost g k -. 1e-9))
        (Tables.packet_payments vcg ~src ~dst)
    done
  done

let test_income_zero_for_pure_endpoints () =
  (* A node that transits nothing earns nothing. *)
  let t = Lazy.force fig1_tables in
  let traffic = Traffic.uniform ~n:6 ~rate:1. in
  checkf "A earns nothing at true costs" 0. (Tables.income t traffic (node "A"))

let test_demand_pairs_roundtrip () =
  let traffic = Array.make_matrix 3 3 0. in
  traffic.(0).(2) <- 1.5;
  traffic.(2).(1) <- 0.5;
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int (Alcotest.float 1e-9)))
    "pairs" [ (0, 2, 1.5); (2, 1, 0.5) ]
    (Traffic.demand_pairs traffic)

let suites =
  [
    ( "fpss.pricing",
      [
        Alcotest.test_case "Fig1 p^C_XZ = 4" `Quick test_fig1_price_c_on_xz;
        Alcotest.test_case "Fig1 p^D_XZ = 4" `Quick test_fig1_price_d_on_xz;
        Alcotest.test_case "Fig1 p^C_ZD = 6" `Quick test_fig1_price_c_on_zd;
        Alcotest.test_case "no endpoint prices" `Quick test_fig1_no_price_for_endpoints;
        Alcotest.test_case "premiums non-negative" `Quick test_fig1_premium_nonneg;
        Alcotest.test_case "naive = declared costs" `Quick test_naive_prices_are_declared_costs;
      ] );
    ( "fpss.example1",
      [
        Alcotest.test_case "naive: lie profitable" `Quick test_example1_naive_lie_profitable;
        Alcotest.test_case "vcg: lie not profitable" `Quick test_example1_vcg_lie_not_profitable;
        Alcotest.test_case "lie damages efficiency" `Quick test_example1_efficiency_damage;
      ] );
    ( "fpss.game",
      [
        Alcotest.test_case "VCG strategyproof (random)" `Quick test_vcg_game_strategyproof_random;
        Alcotest.test_case "naive manipulable (random)" `Quick test_naive_game_manipulable_random;
        Alcotest.test_case "price independent of own report" `Quick
          test_vcg_price_independent_of_own_declaration;
        QCheck_alcotest.to_alcotest prop_vcg_game_no_profitable_lie;
      ] );
    ( "fpss.tables",
      [
        Alcotest.test_case "transit load Fig1" `Quick test_transit_load_fig1;
        Alcotest.test_case "income/outlay single flow" `Quick
          test_income_matches_price_times_load_single_flow;
        Alcotest.test_case "transfers zero-sum" `Quick test_transfers_balance;
        Alcotest.test_case "traffic generators" `Quick test_traffic_generators;
        Alcotest.test_case "game = mechanism utilities" `Quick
          test_game_utilities_match_mechanism;
        Alcotest.test_case "naive/vcg same routing" `Quick test_naive_and_vcg_agree_on_routing;
        Alcotest.test_case "vcg price >= declared cost" `Quick test_vcg_price_at_least_naive;
        Alcotest.test_case "idle node earns nothing" `Quick test_income_zero_for_pure_endpoints;
        Alcotest.test_case "demand pairs" `Quick test_demand_pairs_roundtrip;
      ] );
    ( "fpss.distributed",
      [
        Alcotest.test_case "matches centralized (Fig1)" `Quick
          test_distributed_matches_centralized_fig1;
        Alcotest.test_case "matches centralized (int costs)" `Quick
          test_distributed_matches_centralized_random_int_costs;
        Alcotest.test_case "matches centralized (float costs)" `Quick
          test_distributed_matches_centralized_float_costs;
        Alcotest.test_case "flood rounds = diameter" `Quick test_flood_rounds_equal_diameter;
        Alcotest.test_case "round counts reasonable" `Quick
          test_distributed_round_counts_reasonable;
        Alcotest.test_case "ring price" `Quick test_distributed_ring;
        Alcotest.test_case "warm start exact" `Quick test_warm_start_reconverges_exactly;
        Alcotest.test_case "warm start cheaper" `Quick test_warm_start_cheaper_on_average;
        Alcotest.test_case "warm start identity" `Quick test_warm_start_identity_when_unchanged;
        Alcotest.test_case "change-driven = reference (cold)" `Quick
          test_change_driven_equals_reference;
        Alcotest.test_case "change-driven = reference (warm)" `Quick
          test_change_driven_equals_reference_warm;
        QCheck_alcotest.to_alcotest prop_change_driven_equals_reference;
        QCheck_alcotest.to_alcotest prop_warm_start_exact;
        QCheck_alcotest.to_alcotest prop_distributed_equals_centralized;
      ] );
    ( "fpss.sparse",
      [
        Alcotest.test_case "full dests = dense tables" `Quick
          test_sparse_full_dests_matches_dense;
        Alcotest.test_case "restricted dests slice dense" `Quick
          test_sparse_restricted_dests_slice_dense;
        Alcotest.test_case "deviation checkpoints" `Quick
          test_sparse_deviation_checkpoints;
        QCheck_alcotest.to_alcotest prop_sparse_equals_dense;
        QCheck_alcotest.to_alcotest prop_sparse_warm_equals_dense_warm;
      ] );
  ]
