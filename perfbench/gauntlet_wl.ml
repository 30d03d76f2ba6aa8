(* gauntlet_faults: [Campaign.grade] on fault-mix campaigns drawn from
   the master seed (n = 8..16, 1-3 deviants, link faults, crashes,
   fault-tolerant bank checkpoints, unilateral baselines, the VCG
   oracle), without shrinking. Many small runs, so per-run fixed cost,
   [Engine] and [Bank] dominate: a change that speeds up big runs by
   adding per-run set-up loses here. *)

module Campaign = Damd_gauntlet.Campaign
module Obs = Damd_obs.Obs
module Metrics = Damd_obs.Metrics
module Json = Damd_util.Json
module Layers = Measure.Layers

let mix = { Campaign.faults = true; epsilon = None }

let inputs ~campaigns seed =
  Array.init campaigns (fun i ->
      Campaign.of_seed ~mix (Campaign.campaign_seed ~master:seed i))

(* Theorem 1 under benign faults: no deviation profits or corrupts the
   tables undetected, and no honest node is accused (a false accusation
   is graded as a [Violation] too). *)
let sound (g : Campaign.graded) = g.Campaign.verdict <> Campaign.Violation

let render g = Json.to_string ~indent:0 (Campaign.json_of_graded g)

let engine_layers layers reg =
  let c name = Metrics.counter_value (Metrics.counter reg name) in
  let epoch f = c ("engine.construction." ^ f) + c ("engine.execution." ^ f) in
  Layers.add_count layers "engine.events" (epoch "events_processed");
  Layers.add_count layers "engine.lost" (epoch "messages_lost");
  Layers.add layers "engine.bytes" "B" (float_of_int (epoch "bytes_sent"));
  let peak p = Metrics.gauge_value (Metrics.gauge reg (p ^ ".queue_peak")) in
  Layers.add layers "engine.queue_peak" "count"
    (Float.max (peak "engine.construction") (peak "engine.execution"))

let run (cfg : Measure.config) =
  (* Ops cycle through the campaign list; its first pass is the same
     campaigns for a given seed whatever the machine's speed. *)
  let campaigns = if cfg.small then 30 else 100 in
  (* Sabotage: the bank checks nothing, so sampled deviations profit
     undetected. (Skipping only settlement clearing, [Weaken_settlement],
     shows in too few fault-mix campaigns for a short self-check.) *)
  let weaken = if cfg.sabotage then Campaign.Weaken_all else Campaign.No_weaken in
  let descrs, setup_s = Measure.setup (fun () -> inputs ~campaigns cfg.seed) in
  let grade i = Campaign.grade ~weaken descrs.(i mod campaigns) in
  (* Every tenth campaign of the first pass is graded again, untimed,
     and must replay byte for byte. *)
  let check i g =
    sound g && (i mod 10 <> 0 || i >= campaigns || String.equal (render g) (render (grade i)))
  in
  let layers = Layers.create () in
  let obs = Obs.memory ~detail:false () in
  let traced_run i =
    Obs.reset obs;
    Campaign.grade ~weaken ~obs descrs.(i mod campaigns)
  in
  let traced_check i g =
    let events = Obs.events obs in
    let own_ns = Runner_wl.add_runner_events ~bank:true layers events in
    let grade_ns =
      List.fold_left
        (fun acc -> function
          | Obs.Span { name = "campaign"; dur_ns; _ } -> acc + Int64.to_int dur_ns
          | _ -> acc)
        0 events
    in
    Layers.add_ns layers "campaign.grade_s" grade_ns;
    Layers.add_ns layers "campaign.own_run_s" own_ns;
    Layers.add_ns layers "campaign.counterfactual_s" (grade_ns - own_ns);
    Layers.add_count layers "runner.restarts" g.Campaign.restarts;
    Option.iter (engine_layers layers) (Obs.metrics obs);
    check i g && Obs.dropped obs = 0
  in
  Measure.drive cfg ~setup_s
    ~warmup:(fun () ->
      let g = grade 0 in
      fun () -> sound g)
    ~run:grade ~check ~traced_run ~traced_check
    ~layers:(Measure.layer_report layers ~top:[ "campaign.grade_s" ])
    ()
