(* The experiment harness: regenerates every figure, example and claim of
   Shneidman & Parkes, "Specification Faithfulness in Networks with
   Rational Nodes" (PODC 2004), per the experiment index in DESIGN.md.

     dune exec bin/experiments.exe              # run everything
     dune exec bin/experiments.exe -- e4 e7     # selected experiments
     dune exec bin/experiments.exe -- --quick   # smaller sweeps

   The run exits 1 if any verdict line reads [FAIL]. EXPERIMENTS.md
   records the expected (paper) versus measured outcomes. *)

module Rng = Damd_util.Rng
module Table = Damd_util.Table
module Stats = Damd_util.Stats
module Graph = Damd_graph.Graph
module Gen = Damd_graph.Gen
module Dijkstra = Damd_graph.Dijkstra
module Mechanism = Damd_mech.Mechanism
module Strategyproof = Damd_mech.Strategyproof
module Leader = Damd_mech.Leader_election
module Traffic = Damd_fpss.Traffic
module Pricing = Damd_fpss.Pricing
module Tables = Damd_fpss.Tables
module Game = Damd_fpss.Game
module Distributed = Damd_fpss.Distributed
module Sparse = Damd_fpss.Sparse
module Equilibrium = Damd_core.Equilibrium
module Faithfulness = Damd_core.Faithfulness
module Adversary = Damd_faithful.Adversary
module Bank = Damd_faithful.Bank
module Runner = Damd_faithful.Runner
module Analysis = Damd_faithful.Analysis
module Replication = Damd_faithful.Replication

let csv_dir : string option ref = ref None
let seed_base = ref 0

(* All experiment RNGs flow through here so that --seed re-randomizes every
   sweep coherently. *)
let mk_rng k = Rng.create (k + (1000 * !seed_base))
let current_section = ref ""
let table_counter = ref 0

let section id title =
  current_section := id;
  table_counter := 0;
  Printf.printf "\n================================================================\n";
  Printf.printf "%s  %s\n" id title;
  Printf.printf "================================================================\n\n"

(* Print a table and, when --out is given, also write it as CSV. *)
let emit t =
  Table.print t;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      incr table_counter;
      let file =
        Printf.sprintf "%s/%s_table%d.csv" dir
          (String.lowercase_ascii !current_section)
          !table_counter
      in
      let oc = open_out file in
      output_string oc (Table.to_csv t);
      close_out oc

(* Any [FAIL] verdict makes the run exit 1 once every experiment printed. *)
let any_failed = ref false

let verdict ok label =
  if not ok then any_failed := true;
  Printf.printf "%s %s\n" (if ok then "[OK]  " else "[FAIL]") label

let fig1 = lazy (Gen.figure1 ())
let fig1_names () = snd (Lazy.force fig1)
let node name = List.assoc name (fig1_names ())
let name_of i = fst (List.find (fun (_, id) -> id = i) (fig1_names ()))

(* ------------------------------------------------------------------ *)
(* E0: the specification itself — action classification + topologies   *)
(* ------------------------------------------------------------------ *)

let e0 ~quick:_ =
  section "E0" "the extended-FPSS specification: action classification (sections 3.4 / 4.1)";
  let module Spec = Damd_faithful.Spec in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Left ]
      [ "external action"; "class"; "phase"; "rule" ]
  in
  List.iter
    (fun (e : Spec.entry) ->
      Table.add_row t
        [
          e.Spec.action;
          Damd_core.Action.to_string e.Spec.cls;
          Spec.phase_name e.Spec.phase;
          String.concat "/" (List.map Spec.Rule.to_string e.Spec.rules);
        ])
    Spec.catalogue;
  emit t;
  print_newline ();
  Printf.printf
    "IC covers the information-revelation rows, strong-CC the message-passing\n";
  Printf.printf
    "rows, strong-AC the computation rows (Defs. 9-13); every adversary-library\n";
  Printf.printf "deviation targets one of these actions.\n\n";
  print_endline "topology families used across the experiments:";
  let mt =
    Table.create
      [ "family"; "n"; "m"; "deg"; "diam"; "mean dist"; "clustering"; "biconn" ]
  in
  let rng = mk_rng 0 in
  let describe label g =
    let m = Damd_graph.Metrics.compute g in
    Table.add_row mt
      [
        label;
        string_of_int m.Damd_graph.Metrics.nodes;
        string_of_int m.Damd_graph.Metrics.edges;
        Printf.sprintf "%d..%d" m.Damd_graph.Metrics.min_degree
          m.Damd_graph.Metrics.max_degree;
        string_of_int m.Damd_graph.Metrics.hop_diameter;
        Printf.sprintf "%.2f" m.Damd_graph.Metrics.mean_hop_distance;
        Printf.sprintf "%.3f" m.Damd_graph.Metrics.clustering;
        string_of_bool m.Damd_graph.Metrics.biconnected;
      ]
  in
  describe "figure-1" (fst (Lazy.force fig1));
  describe "ring n=16" (Gen.ring ~n:16 ~costs:(Array.make 16 1.));
  describe "chordal-ring n=16" (Gen.chordal_ring rng ~n:16 ~chords:4 (Gen.Uniform_int (1, 10)));
  describe "erdos-renyi n=16 p=0.25" (Gen.erdos_renyi rng ~n:16 ~p:0.25 (Gen.Uniform_int (1, 10)));
  describe "barabasi-albert n=16 m=2" (Gen.barabasi_albert rng ~n:16 ~m:2 (Gen.Uniform_int (1, 10)));
  describe "waxman n=16" (Gen.waxman rng ~n:16 ~alpha:0.7 ~beta:0.4 (Gen.Uniform_int (1, 10)));
  emit mt;
  print_newline ();
  verdict
    (List.length (Damd_faithful.Spec.classes_covered ()) = 3)
    "the specification exercises all three external action classes"

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 — the LCP example network                              *)
(* ------------------------------------------------------------------ *)

let e1 ~quick:_ =
  section "E1" "Figure 1: lowest-cost paths on the example network";
  let g, _ = Lazy.force fig1 in
  let tables = Pricing.compute g in
  let path_str src dst =
    match Tables.path tables ~src ~dst with
    | Some p -> String.concat "-" (List.map name_of p)
    | None -> "(none)"
  in
  let cost src dst = Option.get (Tables.lcp_cost tables ~src ~dst) in
  let t = Table.create [ "quantity"; "paper"; "measured" ] in
  Table.add_row t
    [ "LCP cost X->Z"; "2"; Table.cell_float (cost (node "X") (node "Z")) ];
  Table.add_row t [ "LCP route X->Z"; "X-D-C-Z"; path_str (node "X") (node "Z") ];
  Table.add_row t
    [ "LCP cost Z->D"; "1"; Table.cell_float (cost (node "Z") (node "D")) ];
  Table.add_row t [ "LCP route Z->D"; "Z-C-D"; path_str (node "Z") (node "D") ];
  Table.add_row t
    [ "LCP cost B->D"; "0"; Table.cell_float (cost (node "B") (node "D")) ];
  let lied = Graph.with_cost g (node "C") 5. in
  let lied_tables = Pricing.compute lied in
  let lied_path =
    match Tables.path lied_tables ~src:(node "X") ~dst:(node "Z") with
    | Some p -> String.concat "-" (List.map name_of p)
    | None -> "(none)"
  in
  Table.add_row t [ "X->Z route when C declares 5"; "X-A-Z"; lied_path ];
  emit t;
  print_newline ();
  (* the bold LCP tree from Z *)
  let tree = Dijkstra.lcp_tree_edges g ~root:(node "Z") in
  Printf.printf "LCP tree from Z (bold edges of Figure 1): %s\n"
    (String.concat " "
       (List.map (fun (u, v) -> Printf.sprintf "%s-%s" (name_of u) (name_of v)) tree));
  (match !csv_dir with
  | None -> ()
  | Some dir ->
      (* Graphviz rendering of Figure 1 with the LCP tree bold, matching
         the paper's presentation. *)
      let oc = open_out (Filename.concat dir "figure1.dot") in
      output_string oc (Graph.to_dot ~highlight:tree g);
      close_out oc;
      Printf.printf "(wrote %s/figure1.dot)\n" dir);
  let ok =
    cost (node "X") (node "Z") = 2.
    && cost (node "Z") (node "D") = 1.
    && cost (node "B") (node "D") = 0.
    && lied_path = "X-A-Z"
  in
  verdict ok "all Figure 1 numbers reproduced exactly"

(* ------------------------------------------------------------------ *)
(* E2: Example 1 — the manipulation that VCG removes                   *)
(* ------------------------------------------------------------------ *)

let e2 ~quick:_ =
  section "E2" "Example 1: node C's declared-cost sweep, naive vs VCG pricing";
  let g, _ = Lazy.force fig1 in
  let c = node "C" in
  let traffic = Traffic.uniform ~n:6 ~rate:1. in
  let true_costs = Graph.costs g in
  let utility scheme declared_c =
    let declared = Array.copy true_costs in
    declared.(c) <- declared_c;
    (Game.utilities scheme ~base:g ~true_costs ~declared ~traffic).(c)
  in
  let sweep = [ 0.; 1.; 2.; 3.; 4.; 5.; 6.; 8.; 10. ] in
  let t = Table.create [ "C declares"; "u(C) naive"; "u(C) VCG" ] in
  List.iter
    (fun d ->
      Table.add_row t
        [
          Table.cell_float d;
          Table.cell_float (utility Game.Naive_cost d);
          Table.cell_float (utility Game.Vcg d);
        ])
    sweep;
  emit t;
  print_newline ();
  let naive_truth = utility Game.Naive_cost 1. in
  let naive_best = List.fold_left (fun a d -> Float.max a (utility Game.Naive_cost d)) neg_infinity sweep in
  let vcg_truth = utility Game.Vcg 1. in
  let vcg_best = List.fold_left (fun a d -> Float.max a (utility Game.Vcg d)) neg_infinity sweep in
  verdict (naive_best > naive_truth +. 1e-9)
    (Printf.sprintf "naive pricing is manipulable (lying gains %+g) — Example 1"
       (naive_best -. naive_truth));
  verdict (vcg_best <= vcg_truth +. 1e-9)
    "VCG pricing: the truthful declaration is the sweep maximum (strategyproof)"

(* ------------------------------------------------------------------ *)
(* E3: FPSS strategyproofness on random topologies                     *)
(* ------------------------------------------------------------------ *)

let e3 ~quick =
  section "E3" "strategyproofness sweep: VCG (theorem) vs naive (baseline)";
  let profiles = if quick then 8 else 25 in
  let lies = if quick then 3 else 5 in
  let families =
    [
      ("erdos-renyi n=8 p=0.35", fun rng -> Gen.erdos_renyi rng ~n:8 ~p:0.35 (Gen.Uniform_int (0, 10)));
      ("erdos-renyi n=16 p=0.2", fun rng -> Gen.erdos_renyi rng ~n:16 ~p:0.2 (Gen.Uniform_int (0, 10)));
      ("barabasi-albert n=16 m=2", fun rng -> Gen.barabasi_albert rng ~n:16 ~m:2 (Gen.Uniform_int (0, 10)));
      ("waxman n=12", fun rng -> Gen.waxman rng ~n:12 ~alpha:0.7 ~beta:0.4 (Gen.Uniform_int (0, 10)));
    ]
  in
  let t =
    Table.create
      [ "topology"; "scheme"; "trials"; "violations"; "max gain" ]
  in
  let all_ok = ref true in
  List.iter
    (fun (label, make) ->
      let check_scheme scheme scheme_label expect_clean =
        let rng = mk_rng 42 in
        let g = make rng in
        let n = Graph.n g in
        let traffic = Traffic.uniform ~n ~rate:1. in
        let m = Game.mechanism scheme ~base:g ~traffic in
        let r =
          Strategyproof.check ~rng ~profiles ~lies_per_agent:lies
            ~sample_profile:(fun rng -> Game.sample_costs rng ~n)
            ~sample_lie:Game.sample_lie m
        in
        Table.add_row t
          [
            label;
            scheme_label;
            string_of_int r.Strategyproof.trials;
            string_of_int (List.length r.Strategyproof.violations);
            Table.cell_float r.Strategyproof.max_gain;
          ];
        if expect_clean && not (Strategyproof.is_strategyproof r) then all_ok := false;
        if (not expect_clean) && Strategyproof.is_strategyproof r then
          () (* the naive baseline may survive on some topologies; noted, not fatal *)
      in
      check_scheme Game.Vcg "VCG" true;
      check_scheme Game.Naive_cost "naive" false)
    families;
  emit t;
  print_newline ();
  verdict !all_ok "zero violations under VCG on every family (FPSS theorem)"

(* ------------------------------------------------------------------ *)
(* E4: the catch matrix (Figure 2 / §4.3 manipulations)                *)
(* ------------------------------------------------------------------ *)

let e4 ~quick =
  section "E4" "catch-and-punish matrix: every manipulation vs the checkers + bank";
  let module Audit = Damd_faithful.Audit in
  let targets =
    let rng = mk_rng 4 in
    let with_traffic (label, g, nodes) = (label, (g, Traffic.uniform ~n:(Graph.n g) ~rate:1., nodes)) in
    let base =
      [
        ("figure-1", fst (Lazy.force fig1), [ 0; 2; 3 ]);
        ("ring-8", Gen.ring ~n:8 ~costs:(Array.make 8 2.), [ 1; 4 ]);
      ]
    in
    let all =
      if quick then base
      else
        base
        @ [
            ( "chordal-ring-10",
              Gen.chordal_ring rng ~n:10 ~chords:4 (Gen.Uniform_int (1, 8)),
              [ 0; 5 ] );
          ]
    in
    List.map with_traffic all
  in
  Printf.printf "targets: %s\n\n"
    (String.concat ", " (List.map fst targets));
  let rows = Audit.detection_matrix ~targets:(List.map snd targets) () in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "deviation"; "runs"; "caught"; "no effect"; "escaped"; "rules" ]
  in
  List.iter
    (fun (r : Audit.matrix_row) ->
      Table.add_row t
        [
          r.Audit.name;
          string_of_int r.Audit.runs;
          string_of_int r.Audit.caught;
          string_of_int r.Audit.no_effect;
          string_of_int r.Audit.escaped;
          String.concat "," r.Audit.rules;
        ])
    rows;
  emit t;
  print_newline ();
  print_endline
    "('no effect' = the deviation changed nothing observable — e.g. a corrupted";
  print_endline
    " flood fact that lost every first-arrival race — so there is nothing to catch)";
  verdict (Audit.clean rows)
    "no effective manipulation escaped (manipulations 1-4 of section 4.3 all caught)"

(* ------------------------------------------------------------------ *)
(* E5: distributed-computation convergence                              *)
(* ------------------------------------------------------------------ *)

let e5 ~quick =
  section "E5" "distributed FPSS: convergence rounds and agreement with the centralized mechanism";
  let sizes = if quick then [ 8; 16 ] else [ 8; 16; 32; 64 ] in
  let t =
    Table.create
      [ "topology"; "diam"; "flood"; "routing"; "pricing"; "messages"; "agrees" ]
  in
  let all_agree = ref true in
  let row label g =
    let d = Distributed.run g in
    let c = Pricing.compute g in
    let agrees =
      Tables.routing_equal d.Distributed.tables c
      && Tables.prices_equal d.Distributed.tables c
    in
    if not agrees then all_agree := false;
    Table.add_row t
      [
        label;
        string_of_int (Graph.hop_diameter g);
        string_of_int d.Distributed.rounds_flood;
        string_of_int d.Distributed.rounds_routing;
        string_of_int d.Distributed.rounds_pricing;
        string_of_int d.Distributed.messages;
        string_of_bool agrees;
      ]
  in
  let rng = mk_rng 5 in
  List.iter
    (fun n ->
      row
        (Printf.sprintf "chordal-ring n=%d" n)
        (Gen.chordal_ring rng ~n ~chords:(n / 4) (Gen.Uniform_int (1, 10)));
      row
        (Printf.sprintf "erdos-renyi n=%d" n)
        (Gen.erdos_renyi rng ~n ~p:(Float.min 0.9 (4. /. float_of_int n)) (Gen.Uniform_int (1, 10))))
    sizes;
  emit t;
  print_newline ();
  verdict !all_agree "distributed tables byte-identical to the centralized mechanism";
  print_endline
    "(routing rounds track the hop diameter, as in the Griffin-Wilfong/FPSS analysis)"

(* ------------------------------------------------------------------ *)
(* E6: overhead — plain FPSS vs checkers vs full replication           *)
(* ------------------------------------------------------------------ *)

let e6 ~quick =
  section "E6" "construction overhead: plain FPSS vs neighborhood checkers vs full replication";
  let sizes = if quick then [ 8; 12 ] else [ 8; 12; 16; 24 ] in
  let t =
    Table.create
      [
        "n"; "plain msgs"; "faithful msgs"; "replicate msgs"; "plain KB"; "faithful KB";
        "replicate KB"; "faithful/plain"; "replicate/plain";
      ]
  in
  let rng = mk_rng 6 in
  let ordered = ref true in
  List.iter
    (fun n ->
      let g = Gen.chordal_ring rng ~n ~chords:(n / 4) (Gen.Uniform_int (1, 10)) in
      let traffic = Traffic.uniform ~n ~rate:1. in
      let plain_params =
        { Runner.default_params with Runner.checking = false; copies = false }
      in
      let plain = Runner.run_faithful ~params:plain_params ~graph:g ~traffic () in
      let faithful = Runner.run_faithful ~graph:g ~traffic () in
      let repl = Replication.run g in
      let kb b = Printf.sprintf "%.1f" (float_of_int b /. 1024.) in
      let ratio a b = Printf.sprintf "%.2fx" (float_of_int a /. float_of_int b) in
      if
        not
          (plain.Runner.construction_bytes <= faithful.Runner.construction_bytes
          && faithful.Runner.construction_bytes <= repl.Replication.bytes)
      then ordered := false;
      Table.add_row t
        [
          string_of_int n;
          string_of_int plain.Runner.construction_messages;
          string_of_int faithful.Runner.construction_messages;
          string_of_int repl.Replication.messages;
          kb plain.Runner.construction_bytes;
          kb faithful.Runner.construction_bytes;
          kb repl.Replication.bytes;
          ratio faithful.Runner.construction_bytes plain.Runner.construction_bytes;
          ratio repl.Replication.bytes plain.Runner.construction_bytes;
        ])
    sizes;
  emit t;
  print_newline ();
  verdict !ordered
    "plain <= checkers <= full replication, with the checker overhead local (degree-bounded)"

(* ------------------------------------------------------------------ *)
(* E7: Theorem 1 — faithfulness (and its ablation)                     *)
(* ------------------------------------------------------------------ *)

let e7 ~quick =
  section "E7" "Theorem 1: ex post Nash faithfulness of the extended specification";
  let profiles = if quick then 1 else 2 in
  let topologies =
    [
      ("figure-1", fst (Lazy.force fig1));
      ("ring-6", Gen.ring ~n:6 ~costs:[| 2.; 3.; 1.; 4.; 2.; 3. |]);
    ]
    @
    if quick then []
    else
      [ ("erdos-renyi-8", Gen.erdos_renyi (mk_rng 7) ~n:8 ~p:0.35 (Gen.Uniform_int (1, 8))) ]
  in
  let t =
    Table.create
      [ "topology"; "mode"; "comparisons"; "max deviation gain"; "equilibrium" ]
  in
  let checked_ok = ref true and unchecked_broken = ref false in
  List.iter
    (fun (label, g) ->
      let n = Graph.n g in
      let traffic = Traffic.uniform ~n ~rate:1. in
      let rng = mk_rng 77 in
      let report = Analysis.ex_post_nash_report ~rng ~profiles ~base:g ~traffic () in
      if not (Equilibrium.holds report) then checked_ok := false;
      Table.add_row t
        [
          label;
          "checking on";
          string_of_int report.Equilibrium.comparisons;
          Table.cell_float report.Equilibrium.max_gain;
          (if Equilibrium.holds report then "holds" else "VIOLATED");
        ];
      let unchecked = { Runner.default_params with Runner.checking = false } in
      let report_off =
        Analysis.ex_post_nash_report ~params:unchecked ~rng ~profiles ~base:g ~traffic ()
      in
      if not (Equilibrium.holds report_off) then unchecked_broken := true;
      Table.add_row t
        [
          label;
          "checking OFF";
          string_of_int report_off.Equilibrium.comparisons;
          Table.cell_float report_off.Equilibrium.max_gain;
          (if Equilibrium.holds report_off then "holds" else "VIOLATED");
        ])
    topologies;
  emit t;
  print_newline ();
  (* the Proposition 2 certificate on Figure 1 *)
  let g, _ = Lazy.force fig1 in
  let rng = mk_rng 78 in
  let evidence =
    Analysis.evidence ~rng ~profiles ~base:g ~traffic:(Traffic.uniform ~n:6 ~rate:1.) ()
  in
  let v = Faithfulness.certify evidence in
  Format.printf "Proposition 2 certificate (Figure 1):@.%a@.verdict: %a@.@."
    Faithfulness.pp_evidence evidence Faithfulness.pp_verdict v;
  verdict (!checked_ok && v.Faithfulness.faithful)
    "with checkers + bank, no library deviation profits: faithful (Theorem 1)";
  verdict !unchecked_broken
    "with checking disabled, profitable manipulations exist (the paper's problem)"

(* ------------------------------------------------------------------ *)
(* E8: phase decomposition ablation                                     *)
(* ------------------------------------------------------------------ *)

let e8 ~quick:_ =
  section "E8" "phase decomposition: certified checkpoints localize the damage";
  let rng = mk_rng 8 in
  let g = Gen.chordal_ring rng ~n:10 ~chords:4 (Gen.Uniform_int (1, 8)) in
  let n = Graph.n g in
  let traffic = Traffic.uniform ~n ~rate:1. in
  let run ~deferred deviation =
    let params = { Runner.default_params with Runner.deferred_certification = deferred } in
    let deviations = Array.make n Adversary.Faithful in
    deviations.(0) <- deviation;
    Runner.run ~params ~graph:g ~traffic ~deviations ()
  in
  let t =
    Table.create
      [ "deviation"; "certification"; "caught at"; "construction msgs spent" ]
  in
  let localizes = ref true in
  List.iter
    (fun d ->
      let phased = run ~deferred:false d in
      let deferred = run ~deferred:true d in
      Table.add_row t
        [
          Adversary.name d;
          "per-phase";
          Option.value ~default:"-" phased.Runner.stuck_phase;
          string_of_int phased.Runner.construction_messages;
        ];
      Table.add_row t
        [
          Adversary.name d;
          "deferred";
          Option.value ~default:"-" deferred.Runner.stuck_phase;
          string_of_int deferred.Runner.construction_messages;
        ];
      (* per-phase certification should catch a phase-1 deviation having
         spent less work than end-of-construction certification, even
         though per-phase retries the phase max_restarts times *)
      if
        Adversary.is_construction d
        && phased.Runner.construction_messages > deferred.Runner.construction_messages
        && d = Adversary.Inconsistent_cost (2., 9.)
      then localizes := false)
    [ Adversary.Inconsistent_cost (2., 9.); Adversary.Drop_routing_copies ];
  emit t;
  print_newline ();
  verdict !localizes
    "checkpoints stop a phase-1 deviation before phase-2 work is spent";
  print_endline
    "(with deferred certification the whole construction runs before the deviation";
  print_endline
    " is noticed: the checkpoint structure is what keeps restart costs bounded)"

(* ------------------------------------------------------------------ *)
(* E9: the leader-election toy                                          *)
(* ------------------------------------------------------------------ *)

let e9 ~quick =
  section "E9" "leader election (section 3): naive vs faithful under rational play";
  let trials = if quick then 500 else 2000 in
  let n = 8 in
  let benefit = 2. in
  let rng = mk_rng 9 in
  let naive = Leader.naive ~n in
  let faithful = Leader.second_score ~n ~benefit in
  let naive_truthful = ref 0 and naive_rational = ref 0 in
  let faithful_power = ref 0 and faithful_welfare = ref 0 in
  for _ = 1 to trials do
    let profile = Leader.sample_profile ~n rng in
    let best = Leader.most_powerful profile in
    let o, _ = naive.Mechanism.run profile in
    if o.Leader.leader = best then incr naive_truthful;
    let rational =
      Array.map
        (fun (th : Leader.theta) ->
          if th.Leader.cost > 0. then Leader.selfish_report th else th)
        profile
    in
    let o, _ = naive.Mechanism.run rational in
    if o.Leader.leader = best then incr naive_rational;
    let o, _ = faithful.Mechanism.run profile in
    if o.Leader.leader = best then incr faithful_power;
    if o.Leader.leader = Leader.welfare_optimal ~benefit profile then incr faithful_welfare
  done;
  let pct x = Table.cell_pct (float_of_int x /. float_of_int trials) in
  let t = Table.create [ "spec & play"; "elects most powerful"; "elects welfare-best" ] in
  Table.add_row t [ "naive, truthful (imagined)"; pct !naive_truthful; "-" ];
  Table.add_row t [ "naive, rational (actual)"; pct !naive_rational; "-" ];
  Table.add_row t [ "second-score, rational"; pct !faithful_power; pct !faithful_welfare ];
  emit t;
  print_newline ();
  verdict
    (!naive_rational * 4 < !naive_truthful && !faithful_welfare = trials)
    "rational play breaks the naive spec; the faithful spec always elects the welfare-best node"

(* ------------------------------------------------------------------ *)
(* E10: bank checkpoint cost                                            *)
(* ------------------------------------------------------------------ *)

let e10 ~quick =
  section "E10" "bank complexity: checkpoint traffic vs construction traffic";
  let sizes = if quick then [ 8; 16 ] else [ 8; 16; 32; 48 ] in
  let rng = mk_rng 10 in
  let t =
    Table.create
      [ "n"; "edges"; "bank KB"; "construction KB"; "bank share"; "digests" ]
  in
  let modest = ref true in
  List.iter
    (fun n ->
      let g = Gen.chordal_ring rng ~n ~chords:(n / 4) (Gen.Uniform_int (1, 10)) in
      let traffic = Traffic.uniform ~n ~rate:1. in
      let r = Runner.run_faithful ~graph:g ~traffic () in
      let digests =
        (* one DATA1 digest per node + (1 + 2 deg) per principal per table *)
        Graph.fold_nodes (fun v acc -> acc + 1 + (2 * (1 + (2 * Graph.degree g v)))) g 0
      in
      let share =
        float_of_int r.Runner.bank_bytes
        /. float_of_int (r.Runner.bank_bytes + r.Runner.construction_bytes)
      in
      if share > 0.5 then modest := false;
      Table.add_row t
        [
          string_of_int n;
          string_of_int (Graph.num_edges g);
          Printf.sprintf "%.1f" (float_of_int r.Runner.bank_bytes /. 1024.);
          Printf.sprintf "%.1f" (float_of_int r.Runner.construction_bytes /. 1024.);
          Table.cell_pct share;
          string_of_int digests;
        ])
    sizes;
  emit t;
  print_newline ();
  verdict !modest
    "the bank moves hashes, not tables: checkpoint traffic stays a small share"

(* ------------------------------------------------------------------ *)
(* E11: asynchrony robustness (extension)                               *)
(* ------------------------------------------------------------------ *)

let e11 ~quick =
  section "E11" "extension: heterogeneous link latencies (asynchronous delivery)";
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let rng = mk_rng 11 in
  let g = Gen.chordal_ring rng ~n:10 ~chords:4 (Gen.Uniform_int (1, 8)) in
  let n = Graph.n g in
  let traffic = Traffic.uniform ~n ~rate:1. in
  let centralized = Pricing.compute g in
  let t = Table.create [ "latency seed"; "faithful certifies"; "tables match"; "deviant caught" ] in
  let all_ok = ref true in
  List.iter
    (fun seed ->
      let params = { Runner.default_params with Runner.latency_seed = Some seed } in
      let r = Runner.run_faithful ~params ~graph:g ~traffic () in
      let matches =
        match r.Runner.tables with
        | Some tbl ->
            Tables.routing_equal tbl centralized && Tables.prices_equal tbl centralized
        | None -> false
      in
      let deviations = Array.make n Adversary.Faithful in
      deviations.(3) <- Adversary.Miscompute_routing (-2.);
      let dr = Runner.run ~params ~graph:g ~traffic ~deviations () in
      let caught = not dr.Runner.completed in
      if not (r.Runner.completed && matches && caught) then all_ok := false;
      Table.add_row t
        [
          string_of_int seed;
          string_of_bool r.Runner.completed;
          string_of_bool matches;
          string_of_bool caught;
        ])
    seeds;
  emit t;
  print_newline ();
  verdict !all_ok
    "construction, certification and detection are robust to per-link latency skew"

(* ------------------------------------------------------------------ *)
(* E12: non-rational omission failures (the §5 caveat)                 *)
(* ------------------------------------------------------------------ *)

let e12 ~quick =
  section "E12" "extension (section 5): channel omission faults cause FALSE detections";
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let g, _ = Lazy.force fig1 in
  let traffic = Traffic.uniform ~n:6 ~rate:1. in
  let t =
    Table.create
      [ "loss prob"; "runs"; "certified"; "stuck (false positive)"; "mean restarts" ]
  in
  let faulty_faithfuls_punished = ref false in
  List.iter
    (fun loss ->
      let certified = ref 0 and stuck = ref 0 and restarts = ref [] in
      List.iter
        (fun seed ->
          let params =
            { Runner.default_params with Runner.channel_loss = Some (loss, seed) }
          in
          (* every node faithful: any detection is a false positive *)
          let r = Runner.run_faithful ~params ~graph:g ~traffic () in
          restarts := float_of_int r.Runner.restarts :: !restarts;
          if r.Runner.completed then incr certified else incr stuck)
        seeds;
      if loss > 0. && !stuck > 0 then faulty_faithfuls_punished := true;
      Table.add_row t
        [
          Table.cell_pct loss;
          string_of_int (List.length seeds);
          string_of_int !certified;
          string_of_int !stuck;
          Table.cell_float (Stats.mean !restarts);
        ])
    [ 0.0; 0.01; 0.05; 0.15 ];
  emit t;
  print_newline ();
  verdict !faulty_faithfuls_punished
    "omission faults trip the catch-and-punish machinery against FAITHFUL nodes";
  print_endline
    "(the paper's section 5: 'introducing other failures, such as general omissions";
  print_endline
    " ... may cause the system to falsely detect and punish manipulation' — the";
  print_endline
    " rational-failure model assumes a reliable network underneath)"

(* ------------------------------------------------------------------ *)
(* E13: anti-social preferences (the §5 caveat)                        *)
(* ------------------------------------------------------------------ *)

let e13 ~quick:_ =
  section "E13" "extension (section 5): anti-social (spiteful) preferences break faithfulness";
  let g, _ = Lazy.force fig1 in
  let n = Graph.n g in
  let traffic = Traffic.uniform ~n ~rate:1. in
  let faithful = Runner.run_faithful ~graph:g ~traffic () in
  let mean_others u who =
    let acc = ref 0. in
    Array.iteri (fun i x -> if i <> who then acc := !acc +. x) u;
    !acc /. float_of_int (n - 1)
  in
  (* Spiteful utility: own utility minus alpha times the others' mean. *)
  let spite_gain alpha who deviation =
    let deviations = Array.make n Adversary.Faithful in
    deviations.(who) <- deviation;
    let r = Runner.run ~graph:g ~traffic ~deviations () in
    let own = r.Runner.utilities.(who) -. faithful.Runner.utilities.(who) in
    let others =
      mean_others r.Runner.utilities who -. mean_others faithful.Runner.utilities who
    in
    own -. (alpha *. others)
  in
  let t =
    Table.create [ "alpha (spite)"; "max adjusted gain"; "best deviation"; "equilibrium" ]
  in
  let breaks = ref false and selfish_holds = ref true in
  List.iter
    (fun alpha ->
      let best_gain = ref neg_infinity and best_name = ref "-" in
      List.iter
        (fun d ->
          let gain = spite_gain alpha 2 d in
          if gain > !best_gain then begin
            best_gain := gain;
            best_name := Adversary.name d
          end)
        Adversary.library;
      let holds = !best_gain <= 1e-6 in
      if alpha = 0. && not holds then selfish_holds := false;
      if alpha > 0.9 && not holds then breaks := true;
      Table.add_row t
        [
          Table.cell_float alpha;
          Table.cell_float !best_gain;
          !best_name;
          (if holds then "holds" else "VIOLATED");
        ])
    [ 0.; 0.25; 0.5; 1.0; 1.5 ];
  emit t;
  print_newline ();
  verdict !selfish_holds "with purely selfish preferences the specification stays faithful";
  verdict !breaks
    "with strong spite, stalling the mechanism becomes 'profitable' (everyone loses,";
  print_endline
    "       rivals lose as much) — faithfulness is a claim about *self-interested*";
  print_endline "       rationality, as section 5 warns"

(* ------------------------------------------------------------------ *)
(* E14: the collusion boundary (ex post Nash "without collusion")      *)
(* ------------------------------------------------------------------ *)

let e14 ~quick:_ =
  section "E14" "extension: collusion — how many corrupted checkers until detection fails?";
  let g, _ = Lazy.force fig1 in
  let n = Graph.n g in
  let traffic = Traffic.uniform ~n ~rate:1. in
  let principal = node "C" in
  let checkers = Graph.neighbors g principal in
  let deg = List.length checkers in
  Printf.printf "deviant principal: C (checkers: %s)\n\n"
    (String.concat ", " (List.map name_of checkers));
  let t =
    Table.create
      [ "colluding checkers"; "certified"; "caught by"; "outcome" ]
  in
  let boundary_ok = ref true in
  for k = 0 to deg do
    let deviations = Array.make n Adversary.Faithful in
    deviations.(principal) <- Adversary.Miscompute_routing 2.;
    List.iteri
      (fun i c -> if i < k then deviations.(c) <- Adversary.Collude_with principal)
      checkers;
    let r = Runner.run ~graph:g ~traffic ~deviations () in
    let rules =
      r.Runner.detections
      |> List.map (fun d -> d.Bank.rule)
      |> List.sort_uniq compare |> String.concat ","
    in
    let outcome =
      if r.Runner.completed then
        if k = deg then "ESCAPES: full neighborhood coalition defeats checking"
        else "unexpected escape"
      else "deviation blocked"
    in
    if k < deg && r.Runner.completed then boundary_ok := false;
    if k = deg && not r.Runner.completed then boundary_ok := false;
    Table.add_row t
      [
        Printf.sprintf "%d / %d" k deg;
        string_of_bool r.Runner.completed;
        (if rules = "" then "-" else rules);
        outcome;
      ]
  done;
  emit t;
  print_newline ();
  verdict !boundary_ok
    "one honest checker suffices; only a full-neighborhood coalition escapes";
  print_endline
    "(the paper's guarantee is ex post Nash *without collusion*; this maps the";
  print_endline " exact boundary of that assumption)"

(* ------------------------------------------------------------------ *)
(* E15: incremental re-convergence after a cost change (extension)     *)
(* ------------------------------------------------------------------ *)

let e15 ~quick =
  section "E15" "extension: incremental re-convergence after a single cost change";
  let sizes = if quick then [ 16 ] else [ 16; 32; 48 ] in
  let rng = mk_rng 15 in
  let t =
    Table.create
      [ "n"; "cold rounds"; "warm rounds"; "cold msgs"; "warm msgs"; "saving"; "exact" ]
  in
  let all_exact = ref true and always_cheaper = ref true in
  List.iter
    (fun n ->
      let g = Gen.chordal_ring rng ~n ~chords:(n / 4) (Gen.Uniform_int (1, 10)) in
      let sp = Sparse.create g in
      Sparse.run sp;
      let c = float_of_int (Rng.int_in rng 1 10) in
      let who = Rng.int rng n in
      let changed = Graph.with_cost g who c in
      (* Warm restart: reconverge the cold run's state after the change.
         Like the cold run it is charged the n-fact DATA1 flood. *)
      Sparse.update_cost sp who c;
      let fixpoint_msgs0 = Sparse.messages sp in
      Sparse.rerun sp;
      let warm_rounds = Sparse.rounds_routing sp + Sparse.rounds_pricing sp in
      let warm_messages =
        snd (Distributed.flood_costs changed) + Sparse.messages sp - fixpoint_msgs0
      in
      let warm_tables = Sparse.to_tables sp in
      let cold = Distributed.run changed in
      let reference = Pricing.compute changed in
      let exact =
        Tables.routing_equal warm_tables reference
        && Tables.prices_equal warm_tables reference
      in
      if not exact then all_exact := false;
      if warm_messages >= cold.Distributed.messages then always_cheaper := false;
      Table.add_row t
        [
          string_of_int n;
          string_of_int (cold.Distributed.rounds_routing + cold.Distributed.rounds_pricing);
          string_of_int warm_rounds;
          string_of_int cold.Distributed.messages;
          string_of_int warm_messages;
          Printf.sprintf "%.0f%%"
            (100.
            *. (1.
               -. (float_of_int warm_messages /. float_of_int cold.Distributed.messages)));
          string_of_bool exact;
        ])
    sizes;
  emit t;
  print_newline ();
  verdict !all_exact "warm-started tables equal the new centralized fixpoint exactly";
  verdict !always_cheaper
    "incremental updates cost a fraction of a cold start (the BGP-style benefit)"

(* ------------------------------------------------------------------ *)
(* E16: the technique generalizes — faithful distributed election      *)
(* ------------------------------------------------------------------ *)

let e16 ~quick:_ =
  section "E16" "extension: the same technique makes the section-3 election faithful";
  let module Election = Damd_faithful.Election in
  let rng = mk_rng 16 in
  let g = Gen.chordal_ring rng ~n:8 ~chords:2 (Gen.Uniform_int (1, 5)) in
  let profile = Leader.sample_profile ~n:8 rng in
  let honest =
    Election.run ~graph:g ~profile ~deviations:(Array.make 8 Election.Honest) ()
  in
  Printf.printf
    "8 nodes on a chordal ring; honest run certifies=%b, elected leader=%s (%d msgs)\n\n"
    honest.Election.completed
    (match honest.Election.leader with Some l -> string_of_int l | None -> "-")
    honest.Election.messages;
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Left; Table.Right ]
      [ "deviation"; "max gain (checked)"; "outcome"; "max gain (unchecked)" ]
  in
  let unchecked = { Election.default_params with Election.checking = false } in
  let checked_ok = ref true and unchecked_broken = ref false in
  List.iter
    (fun d ->
      let max_gain params =
        List.fold_left
          (fun acc node ->
            Float.max acc
              (Election.utility_gain ?params ~graph:g ~profile ~node ~deviation:d ()))
          neg_infinity
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      in
      let checked = max_gain None in
      let off = max_gain (Some unchecked) in
      if checked > 1e-9 then checked_ok := false;
      if off > 1e-9 then unchecked_broken := true;
      let deviations = Array.make 8 Election.Honest in
      deviations.(0) <- d;
      let r = Election.run ~graph:g ~profile ~deviations () in
      Table.add_row t
        [
          Election.deviation_name d;
          Table.cell_float checked;
          (if r.Election.completed then "certified" else "blocked");
          Table.cell_float off;
        ])
    Election.deviation_library;
  emit t;
  print_newline ();
  verdict !checked_ok
    "no deviation profits: the distributed election is faithful (a second instantiation)";
  verdict !unchecked_broken
    "without the certificates, self-nomination pays — the checking is load-bearing"

(* ------------------------------------------------------------------ *)
(* E17: toward a distributed bank (footnote 6's open problem)          *)
(* ------------------------------------------------------------------ *)

let e17 ~quick:_ =
  section "E17" "extension: replicating the bank's comparisons across a committee";
  let module Committee = Damd_faithful.Committee in
  let evidence =
    [ { Bank.rule = "BANK1"; culprit = Some 0; detail = "deviation evidence" } ]
  in
  let t =
    Table.create
      [ "committee"; "corrupt"; "tolerated?"; "suppress a catch?"; "force a false restart?" ]
  in
  let boundary_ok = ref true in
  List.iter
    (fun (replicas, corrupt) ->
      let committee =
        List.init replicas (fun i ->
            if i < corrupt then Committee.Always_approve else Committee.Honest_replica)
      in
      let suppressed = Committee.decide committee ~evidence = Committee.Green_light in
      let committee_r =
        List.init replicas (fun i ->
            if i < corrupt then Committee.Always_restart else Committee.Honest_replica)
      in
      let forced = Committee.decide committee_r ~evidence:[] <> Committee.Green_light in
      let tolerated = Committee.tolerates ~replicas ~corrupt in
      if tolerated && (suppressed || forced) then boundary_ok := false;
      if (not tolerated) && not (suppressed || forced) then boundary_ok := false;
      Table.add_row t
        [
          string_of_int replicas;
          string_of_int corrupt;
          string_of_bool tolerated;
          string_of_bool suppressed;
          string_of_bool forced;
        ])
    [ (1, 0); (3, 1); (3, 2); (5, 2); (5, 3); (7, 3) ];
  emit t;
  print_newline ();
  verdict !boundary_ok
    "a 2f+1 committee tolerates f arbitrary liars, exactly (deterministic verdicts)";
  print_endline
    "(the open problem remains open: replicas drawn from the *routed* network are";
  print_endline
    " rational participants, and their votes are computational actions inside the";
  print_endline " very mechanism they police — see lib/faithful/committee.mli)"

(* ------------------------------------------------------------------ *)
(* E18: how large must the penalties be? (sensitivity analysis)        *)
(* ------------------------------------------------------------------ *)

let e18 ~quick =
  section "E18" "penalty sizing: the 'strong negative value of no progress' assumption, quantified";
  let module Audit = Damd_faithful.Audit in
  let g, _ = Lazy.force fig1 in
  let traffic = Traffic.uniform ~n:6 ~rate:1. in
  (* Part 1: the progress penalty must exceed the worst faithful surplus a
     deviant could walk away from; below that, stalling the mechanism is
     cheap and construction deviations can profit. *)
  let t = Table.create [ "progress penalty"; "max deviation gain"; "faithful?" ] in
  let threshold_seen = ref false and large_ok = ref true in
  let penalties = if quick then [ 0.; 1e3; 1e5 ] else [ 0.; 10.; 100.; 1e3; 1e4; 1e5 ] in
  List.iter
    (fun penalty ->
      let params = { Runner.default_params with Runner.progress_penalty = penalty } in
      let gain, _ = Audit.max_gain ~params ~graph:g ~traffic () in
      let ok = gain <= 1e-9 in
      if (not ok) && penalty < 1e4 then threshold_seen := true;
      if penalty >= 1e5 && not ok then large_ok := false;
      Table.add_row t
        [ Table.cell_float penalty; Table.cell_float gain; string_of_bool ok ])
    penalties;
  emit t;
  print_newline ();
  (* Part 2: Remark 1 — for the execution fines, any epsilon > 0 works;
     epsilon = 0 leaves the deviant exactly indifferent, which the paper's
     benevolence assumption (weak ex post Nash) is designed to cover. *)
  let t2 = Table.create [ "epsilon"; "underreporting gain"; "strictly deterred?" ] in
  List.iter
    (fun epsilon ->
      let params = { Runner.default_params with Runner.epsilon = epsilon } in
      let gain =
        Runner.utility_gain ~params ~graph:g ~traffic ~node:4
          ~deviation:(Adversary.Underreport_payments 0.5) ()
      in
      Table.add_row t2
        [
          Table.cell_float epsilon;
          Table.cell_float gain;
          string_of_bool (gain < -1e-9);
        ])
    [ 0.; 0.1; 1.; 10. ];
  emit t2;
  print_newline ();
  verdict !threshold_seen
    "undersized progress penalties leave profitable stalls (the assumption is load-bearing)";
  verdict !large_ok "the default penalty sizing restores faithfulness";
  print_endline
    "(the bank both corrects the payment and fines the deviation + epsilon, so";
  print_endline
    " deterrence is strict even at epsilon = 0 here; the paper's epsilon margin";
  print_endline
    " guarantees strictness even for a bank that only claws back the deviation -";
  print_endline " Remark 1's weak ex post Nash covers that boundary case)"

(* ------------------------------------------------------------------ *)
(* E19: equilibrium selection (Remark 2) via best-response dynamics    *)
(* ------------------------------------------------------------------ *)

let e19 ~quick:_ =
  section "E19" "Remark 2: multiple equilibria, and why obedient nodes select the good one";
  let g, _ = Lazy.force fig1 in
  let n = Graph.n g in
  let traffic = Traffic.uniform ~n ~rate:1. in
  let dm = Analysis.dmech ~base:g ~traffic () in
  let types = Graph.costs g in
  let candidates _ =
    [
      Adversary.Faithful;
      Adversary.Miscompute_routing (-2.);
      Adversary.Underreport_payments 0.5;
      Adversary.Silent_in_construction;
    ]
  in
  let describe profile =
    let deviants =
      Array.to_list profile
      |> List.mapi (fun i d -> (i, d))
      |> List.filter (fun (_, d) -> d <> Adversary.Faithful)
    in
    if deviants = [] then "all faithful"
    else
      String.concat ", "
        (List.map (fun (i, d) -> Printf.sprintf "%d:%s" i (Adversary.name d)) deviants)
  in
  let t = Table.create ~aligns:[ Table.Left; Table.Left; Table.Left ]
      [ "starting profile"; "dynamics end at"; "reading" ] in
  let run_case label start reading_good reading_bad =
    match
      Equilibrium.best_response_dynamics ~start ~candidates ~types ~max_rounds:8 dm
    with
    | `Converged (profile, _) ->
        let faithful = Array.for_all (( = ) Adversary.Faithful) profile in
        Table.add_row t
          [ label; describe profile; (if faithful then reading_good else reading_bad) ];
        faithful
    | `No_convergence profile ->
        Table.add_row t [ label; describe profile ^ " (cycling)"; reading_bad ];
        false
  in
  let start1 = Array.make n Adversary.Faithful in
  start1.(2) <- Adversary.Miscompute_routing (-2.);
  let one = run_case "one deviant (C miscomputes)" start1
      "punishment makes honesty strictly better: falls back to the suggested spec"
      "unexpected"
  in
  let start2 = Array.make n Adversary.Faithful in
  start2.(2) <- Adversary.Silent_in_construction;
  start2.(3) <- Adversary.Silent_in_construction;
  let two = run_case "two stallers (C, D silent)" start2
      "unexpected"
      "a bad weak equilibrium: with the mechanism already stalled, no unilateral \
       switch helps"
  in
  emit t;
  print_newline ();
  verdict one
    "a single deviant is pulled back to the suggested specification (it is strictly better)";
  verdict (not two)
    "a staller coalition is a *bad* weak equilibrium inertia never leaves —";
  print_endline
    "       Remark 2's point: the suggested spec is one of several equilibria, and the";
  print_endline
    "       expectation that some nodes are simply obedient is the correlating device";
  print_endline "       that selects it"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e0", e0);
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17); ("e18", e18); ("e19", e19);
  ]

let run_selected names quick out seed =
  seed_base := seed;
  (match out with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      csv_dir := Some dir);
  let to_run =
    match names with
    | [] -> experiments
    | names ->
        List.filter_map
          (fun name ->
            match List.assoc_opt (String.lowercase_ascii name) experiments with
            | Some f -> Some (name, f)
            | None ->
                Printf.eprintf "unknown experiment %S (known: %s)\n" name
                  (String.concat " " (List.map fst experiments));
                exit 2)
          names
  in
  List.iter (fun (_, f) -> f ~quick) to_run;
  print_newline ();
  if !any_failed then exit 1

open Cmdliner

let names_arg =
  let doc = "Experiments to run (e0..e19). Default: all." in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let quick_arg =
  let doc = "Smaller sweeps for a fast pass." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let out_arg =
  let doc = "Also write every table as CSV into $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"DIR" ~doc)

let seed_arg =
  let doc = "Re-randomize every sweep with this base seed (default 0)." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let cmd =
  let doc = "Regenerate the paper's figures, examples and theorem checks" in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(const run_selected $ names_arg $ quick_arg $ out_arg $ seed_arg)

let () = exit (Cmd.eval cmd)
