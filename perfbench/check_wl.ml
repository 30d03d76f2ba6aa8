(* check_torus7: the full check pipeline — [Analyze.run] then
   [Verify.run] with partial-order reduction on and one domain — over
   the whole adversary vocabulary on a seeded-cost torus:7:7 (about
   335k explored states per op). It never touches [Runner], [Node] or
   [Engine], so it is the negative control for protocol changes.

   The traced op calls the stages [Verify.run] is made of — the
   structural and flow checks, then [Explore.run] under an [Obs.memory]
   sink — and must reproduce the untraced verdicts, findings and state
   count. *)

module Gen = Damd_graph.Gen
module Rng = Damd_util.Rng
module Obs = Damd_obs.Obs
module Clock = Damd_obs.Clock
module Stats = Damd_util.Stats
module Adversary = Damd_faithful.Adversary
module Analyze = Damd_speccheck.Analyze
module Verify = Damd_speccheck.Verify
module Explore = Damd_speccheck.Explore
module Check = Damd_speccheck.Check
module Taint = Damd_speccheck.Taint
module Layers = Measure.Layers


(* Two domains were not faster than one on a 2-core machine; one keeps
   the op single-threaded and the figure independent of core count. *)
let domains = 1

let ir = Damd_speccheck.Fpss_spec.ir
let adversary = Adversary.all_labels

(* The graph [damd_cli verify -t torus:7:7 --seed SEED] builds, plus the
   handler observations the flow layer compares against. *)
let inputs ~rows seed =
  let costs = Gen.draw_costs (Rng.create seed) (Gen.Uniform_int (1, 10)) (rows * rows) in
  (Gen.torus ~rows ~cols:rows ~costs, Damd_faithful.Flow.observations ())

let sound ((a : Analyze.report), (v : Verify.report)) =
  Verify.detection_complete v && Verify.no_false_accusation v
  && Verify.error_count v = 0 && Analyze.error_count a = 0 && Analyze.blind_spots a = 0

let run (cfg : Measure.config) =
  let rows = if cfg.small then 4 else 7 in
  let topology = Printf.sprintf "torus:%d:%d" rows rows in
  let (graph, observed), setup_s = Measure.setup (fun () -> inputs ~rows cfg.seed) in
  (* Sabotage: the spec loses a bank checkpoint, which both the static
     and the explored pipeline must report. *)
  let mutation = if cfg.sabotage then Some "drop-checkpoint" else None in
  let op _ =
    let a = Analyze.run ~adversary ?mutation ~graph ~topology ir in
    let v = Verify.run ~adversary ?mutation ~por:true ~domains ~observed ~graph ~topology ir in
    (a, v)
  in
  let reference = ref None in
  let same ((a : Analyze.report), (v : Verify.report)) =
    match !reference with
    | None -> false
    | Some ((a0 : Analyze.report), (v0 : Verify.report)) ->
        a.Analyze.findings = a0.Analyze.findings
        && a.Analyze.result.Damd_speccheck.Absint.frontier
           = a0.Analyze.result.Damd_speccheck.Absint.frontier
        && v.Verify.findings = v0.Verify.findings
        && v.Verify.verdicts = v0.Verify.verdicts
        && v.Verify.stats.Explore.states_explored = v0.Verify.stats.Explore.states_explored
  in
  let check _ r = sound r && same r in
  let layers = Layers.create () in
  let obs = Obs.memory ~detail:false () in
  let stage name f =
    let t0 = Clock.now_ns () in
    let r = f () in
    Layers.add_ns layers name (Measure.ns_since t0);
    r
  in
  let traced_run _ =
    Obs.reset obs;
    let a = stage "absint.run_s" (fun () -> Analyze.run ~adversary ~obs ~graph ~topology ir) in
    let static =
      stage "lint.run_s" (fun () ->
          Check.check_ir ~adversary ir @ Check.check_topology graph @ Taint.check ir ~observed)
    in
    let ex =
      stage "explore.run_s" (fun () ->
          Explore.run ~adversary ~obs ~por:true ~domains ~graph ir)
    in
    (a, static, ex)
  in
  let traced_check _ (a, static, (ex : Explore.outcome)) =
    let st = ex.Explore.stats in
    Layers.add_count layers "explore.states" st.Explore.states_explored;
    Layers.add_count layers "explore.frontier_peak" st.Explore.frontier_peak;
    let scenario_ms =
      List.filter_map
        (function
          | Obs.Span { name = "explore.scenario"; dur_ns; _ } ->
              Some (Int64.to_float dur_ns /. 1e6)
          | _ -> None)
        (Obs.events obs)
    in
    Layers.add layers "explore.scenario_p50_ms" "ms" (Stats.median scenario_ms);
    match !reference with
    | None -> false
    | Some ((a0 : Analyze.report), (v0 : Verify.report)) ->
        a.Analyze.findings = a0.Analyze.findings
        && static @ ex.Explore.findings = v0.Verify.findings
        && ex.Explore.verdicts = v0.Verify.verdicts
        && st.Explore.states_explored = v0.Verify.stats.Explore.states_explored
        && Obs.dropped obs = 0
  in
  Measure.drive cfg ~setup_s
    ~warmup:(fun () ->
      let r = op 0 in
      reference := Some r;
      fun () -> sound r)
    ~run:op ~check ~traced_run ~traced_check
    ~layers:(fun traced ->
      Measure.layer_report layers ~top:[ "absint.run_s"; "lint.run_s"; "explore.run_s" ] traced
      @ [
          Measure.metric "explore.states_per_s" "1/s"
            (Layers.get layers "explore.states" /. Layers.get layers "explore.run_s");
        ])
    ()
