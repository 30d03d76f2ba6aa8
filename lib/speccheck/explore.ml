module Action = Damd_core.Action
module G = Damd_graph.Graph
module Obs = Damd_obs.Obs
module Clock = Damd_obs.Clock
module Metrics = Damd_obs.Metrics
module Json = Damd_util.Json
module Sp = Statepack

type verdict =
  | Detected of { depth : int; certifier : string option }
  | Undetected of { witness : string }
  | Exempt of { reason : string }
  | Truncated

type stats = {
  states_explored : int;
  frontier_peak : int;
  scenarios : int;
  truncated : bool;
  elapsed_s : float;
  por : bool;  (* the reduction was requested *and* its guard held *)
  domains : int;  (* scenario fan-out width actually used *)
}

type outcome = {
  verdicts : (Dev.t * verdict) list;
  findings : Check.finding list;
  covered_states : string list;
  stats : stats;
}

(* ---- the indexed machine view (same semantics as Compile.machine) ---- *)

type mach = {
  states : string array;
  sugg_id : string option array;  (* suggested action id per state *)
  action_of : Ir.action option array;  (* its declared record, if any *)
  dst_of : int array;  (* suggested destination; self when undefined *)
  phase_of : int array;  (* phase index per state, [-1] = none *)
  nphases : int;
  phase_names : string array;
  certifiers : string option array;
  dev_lbl : string array;  (* "deviant!<aid>" per state, shared *)
  cp_lbl : string array;  (* "[checkpoint <phase>]" per phase, shared *)
}

let build (ir : Ir.t) =
  let states = Array.of_list ir.Ir.states in
  let idx = Hashtbl.create 16 in
  Array.iteri
    (fun i s -> if not (Hashtbl.mem idx s) then Hashtbl.add idx s i)
    states;
  let ns = Array.length states in
  let sugg_id = Array.make ns None in
  let action_of = Array.make ns None in
  let dst_of = Array.init ns (fun i -> i) in
  Array.iteri
    (fun i s ->
      match Ir.suggested_action ir s with
      | None -> ()
      | Some aid ->
          sugg_id.(i) <- Some aid;
          action_of.(i) <- Ir.find_action ir aid;
          dst_of.(i) <-
            (match Ir.step ir s aid with
            | Some d -> (
                match Hashtbl.find_opt idx d with Some j -> j | None -> i)
            | None -> i (* the Compile.machine self-loop *)))
    states;
  let phases = Array.of_list ir.Ir.phases in
  let phase_of = Array.make ns (-1) in
  Array.iteri
    (fun pi (p : Ir.phase) ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt idx s with
          | Some i when phase_of.(i) = -1 -> phase_of.(i) <- pi
          | _ -> ())
        p.Ir.members)
    phases;
  let phase_names = Array.map (fun (p : Ir.phase) -> p.Ir.pname) phases in
  {
    states;
    sugg_id;
    action_of;
    dst_of;
    phase_of;
    nphases = Array.length phases;
    phase_names;
    certifiers =
      Array.map
        (fun (p : Ir.phase) ->
          match p.Ir.checkpoint with
          | Some c -> Some (Rule.to_string c.Ir.certifier)
          | None -> None)
        phases;
    dev_lbl =
      Array.map
        (function Some aid -> "deviant!" ^ aid | None -> "deviant!")
        sugg_id;
    cp_lbl = Array.map (fun p -> "[checkpoint " ^ p ^ "]") phase_names;
  }

(* ---- evidence coverage: can the declared checking story surface a
   deviant execution of this action? (the abstract §4.3 case split) ---- *)

let covered_action (a : Ir.action) ~honest =
  match a.Ir.cls with
  | None -> false
  | Some Action.Internal -> false
  | Some Action.Information_revelation -> a.Ir.digested
  | Some Action.Message_passing -> a.Ir.rules <> [] && honest
  | Some Action.Computation -> a.Ir.mirrored && a.Ir.digested && honest

(* ---- scenario descriptors and per-scenario results: scenarios are
   independent, so each runs against private tables and the driver merges
   the outputs deterministically in scenario order ---- *)

type job = {
  j_label : string;
  j_has_deviant : bool;
  j_stall : bool;
  j_targets : bool array;
  j_covered : bool array;
  j_faithful : bool;
}

type scen_out = {
  so_escape : string option;  (* witness trace of an uncaught green-light *)
  so_timeout : int option;  (* omission stall depth *)
  so_lag : int;  (* worst act-to-certification distance; -1 = none *)
  so_certifier : string option;
  so_cert_phase : int;  (* phase index of that worst lag; -1 = none *)
  so_acted : bool;
  so_truncated : bool;
  so_states : int;
  so_frontier : int;
  so_covered : bool array;
  so_findings : Check.finding list;
}

(* One scenario: BFS the product of [faithful] faithful seats plus,
   when [j_has_deviant], one seat running the deviation. [j_targets] marks states whose suggested action
   the deviation targets; [j_covered] marks states whose deviant execution
   deposits checkpoint evidence; [j_stall] models omission (the targeted
   step never completes, blocking the phase barrier). [encode] canonicalizes
   a product state into the dedup key — an immediate int whenever the
   packed layout fits one word. [por] enables the invisible-step reduction
   when its acyclicity guard holds. *)
let run_scenario (type k) m ~(encode : Sp.state -> k) ~audit ~por ~obs ~bound
    ~faithful ~initial (job : job) : scen_out =
  let ns = Array.length m.states in
  let depth_hist =
    match Obs.metrics obs with
    | None -> None
    | Some reg -> Some (Metrics.histogram reg "explore.depth")
  in
  let min_act = Array.make (max 1 m.nphases) max_int in
  let max_cert = Array.make (max 1 m.nphases) (-1) in
  let cert_rule = Array.make (max 1 m.nphases) None in
  let escape = ref None in
  let timeout = ref None in
  let acted_ever = ref false in
  let truncated = ref false in
  let covered_mark = Array.make ns false in
  let findings = ref [] in
  let seen = Hashtbl.create 8 in
  let add_finding severity id location message =
    if not (Hashtbl.mem seen (id, location)) then begin
      Hashtbl.add seen (id, location) ();
      findings := { Check.id; severity; location; message } :: !findings
    end
  in
  let visited : (k, int) Hashtbl.t = Hashtbl.create 1024 in
  let parent : (k, k * string) Hashtbl.t = Hashtbl.create 1024 in
  let audit_tbl : (k, string) Hashtbl.t option =
    if audit then Some (Hashtbl.create 1024) else None
  in
  let encode st =
    let k = encode st in
    (match audit_tbl with
    | None -> ()
    | Some tbl -> (
        let s = Sp.structural st in
        match Hashtbl.find_opt tbl k with
        | None -> Hashtbl.add tbl k s
        | Some s0 when String.equal s0 s -> ()
        | Some s0 -> raise (Sp.Collision (s0, s))));
    k
  in
  let q : (k * Sp.state) Queue.t = Queue.create () in
  let witness_of k =
    let rec climb k acc fuel =
      if fuel = 0 then "…" :: acc
      else
        match Hashtbl.find_opt parent k with
        | None -> acc
        | Some (pk, lbl) -> climb pk (lbl :: acc) (fuel - 1)
    in
    String.concat " ; " (climb k [] 14)
  in
  let mark (st : Sp.state) =
    if st.Sp.dev >= 0 then covered_mark.(st.Sp.dev) <- true;
    Array.iteri (fun i c -> if c > 0 then covered_mark.(i) <- true) st.Sp.cnt
  in
  let frontier_max = ref 0 in
  let s0 =
    let cnt = Array.make ns 0 in
    cnt.(initial) <- faithful;
    {
      Sp.dev = (if job.j_has_deviant then initial else -1);
      cnt;
      ph = 0;
      acted = 0;
      evid = 0;
    }
  in
  let k0 = encode s0 in
  Hashtbl.replace visited k0 0;
  mark s0;
  Queue.add (k0, s0) q;
  let continue = ref true in
  while !continue && not (Queue.is_empty q) do
    if Hashtbl.length visited > bound then begin
      truncated := true;
      continue := false
    end
    else begin
      let k, s = Queue.pop q in
      let d = Hashtbl.find visited k in
      (* Frontier-size counter track, sampled every 256 expansions. *)
      if Obs.enabled obs && Hashtbl.length visited land 255 = 0 then
        Obs.sample obs "explore.frontier" (float_of_int (Queue.length q));
      let ph = s.Sp.ph in
      let eligible pos = ph >= m.nphases || m.phase_of.(pos) = ph in
      (* (successor, edge label, destination position or -1) *)
      let succs = ref [] in
      let push st lbl dst = succs := (st, lbl, dst) :: !succs in
      (* deviant move *)
      (if s.Sp.dev >= 0 && eligible s.Sp.dev then
         match m.sugg_id.(s.Sp.dev) with
         | None -> ()
         | Some _aid ->
             let dv = s.Sp.dev in
             let is_t = job.j_targets.(dv) in
             if job.j_stall && is_t then
               (* omission: the targeted step never completes *)
               ()
             else begin
               let pbit =
                 if ph < m.nphases then ph else max 0 (m.nphases - 1)
               in
               let acted =
                 if is_t then s.Sp.acted lor (1 lsl pbit) else s.Sp.acted
               in
               let evid =
                 if is_t && job.j_covered.(dv) then s.Sp.evid lor (1 lsl pbit)
                 else s.Sp.evid
               in
               if is_t then begin
                 acted_ever := true;
                 if d + 1 < min_act.(pbit) then min_act.(pbit) <- d + 1
               end;
               push
                 { s with Sp.dev = m.dst_of.(dv); acted; evid }
                 m.dev_lbl.(dv) m.dst_of.(dv)
             end);
      (* faithful class moves (symmetry: one per occupied chain state),
         POR-pruned to the lowest invisible class when the guard holds *)
      let pick_invisible =
        match por with
        | Some ctx when ctx.Por.active ->
            let r = ref (-1) in
            (try
               for i = 0 to ns - 1 do
                 if s.Sp.cnt.(i) > 0 && Por.invisible ctx ~ph i then begin
                   r := i;
                   raise Exit
                 end
               done
             with Exit -> ());
            !r
        | _ -> -1
      in
      for i = 0 to ns - 1 do
        if s.Sp.cnt.(i) > 0 && eligible i then
          match m.sugg_id.(i) with
          | None -> ()
          | Some aid ->
              let inv =
                pick_invisible >= 0
                &&
                match por with
                | Some ctx -> Por.invisible ctx ~ph i
                | None -> false
              in
              if (not inv) || i = pick_invisible then begin
                let dst = m.dst_of.(i) in
                let cnt = Array.copy s.Sp.cnt in
                cnt.(i) <- cnt.(i) - 1;
                cnt.(dst) <- cnt.(dst) + 1;
                push { s with Sp.cnt } aid dst
              end
      done;
      (* checkpoint: fires exactly when nobody remains inside the phase *)
      if ph < m.nphases then begin
        let someone_inside =
          (s.Sp.dev >= 0 && m.phase_of.(s.Sp.dev) = ph)
          ||
          let ins = ref false in
          for i = 0 to ns - 1 do
            if s.Sp.cnt.(i) > 0 && m.phase_of.(i) = ph then ins := true
          done;
          !ins
        in
        if not someone_inside then begin
          let bit = 1 lsl ph in
          (if s.Sp.acted land bit <> 0 then
             match m.certifiers.(ph) with
             | Some rule when s.Sp.evid land bit <> 0 ->
                 if d + 1 > max_cert.(ph) then begin
                   max_cert.(ph) <- d + 1;
                   cert_rule.(ph) <- Some rule
                 end
             | _ ->
                 (* green light with the deviation unflagged *)
                 if !escape = None then
                   escape :=
                     Some
                       (witness_of k ^ " ; [green-light " ^ m.phase_names.(ph)
                      ^ "]"));
          push { s with Sp.ph = ph + 1 } m.cp_lbl.(ph) (-1)
        end
      end;
      (* enqueue with post-certification reentry pruning *)
      let progress = ref 0 in
      List.iter
        (fun (st, lbl, dst) ->
          let reentry =
            dst >= 0
            && m.phase_of.(dst) >= 0
            && m.phase_of.(dst) < min ph m.nphases
          in
          if reentry then begin
            incr progress;
            add_finding Check.Error "phase-reentry" lbl
              (Printf.sprintf
                 "step %S re-enters phase %S after its checkpoint certified: \
                  post-certification play can rewrite what the bank already \
                  green-lit"
                 lbl
                 m.phase_names.(m.phase_of.(dst)))
          end
          else begin
            let k' = encode st in
            if k' <> k then incr progress;
            if not (Hashtbl.mem visited k') then begin
              Hashtbl.replace visited k' (d + 1);
              Hashtbl.replace parent k' (k, lbl);
              (match depth_hist with
              | None -> ()
              | Some h -> Metrics.observe h (float_of_int (d + 1)));
              mark st;
              Queue.add (k', st) q;
              if Queue.length q > !frontier_max then
                frontier_max := Queue.length q
            end
          end)
        !succs;
      (* deadlock: the current phase can never reach its certifier *)
      if !progress = 0 && ph < m.nphases then begin
        let stalling_deviant =
          s.Sp.dev >= 0 && job.j_stall
          && m.phase_of.(s.Sp.dev) = ph
          && job.j_targets.(s.Sp.dev)
          && m.sugg_id.(s.Sp.dev) <> None
        in
        if stalling_deviant then (
          match !timeout with
          | Some t when t >= d + 1 -> ()
          | _ -> timeout := Some (d + 1))
        else
          add_finding Check.Error
            (if job.j_faithful then "false-accusation"
             else "certifier-unreachable")
            m.phase_names.(ph)
            (if job.j_faithful then
               Printf.sprintf
                 "the all-faithful run deadlocks inside phase %S: the bank's \
                  progress timeout would punish nodes that followed the \
                  suggested play to the letter"
                 m.phase_names.(ph)
             else
               Printf.sprintf
                 "phase %S can deadlock before its certifier runs: a \
                  deviation inside it is never surfaced at a checkpoint"
                 m.phase_names.(ph))
      end
    end
  done;
  let lag = ref (-1) in
  let certifier = ref None in
  let cert_phase = ref (-1) in
  Array.iteri
    (fun p cert ->
      if cert >= 0 && min_act.(p) < max_int then begin
        let l = cert - min_act.(p) in
        if l > !lag then begin
          lag := l;
          certifier := cert_rule.(p);
          cert_phase := p
        end
      end)
    max_cert;
  {
    so_escape = !escape;
    so_timeout = !timeout;
    so_lag = !lag;
    so_certifier = !certifier;
    so_cert_phase = !cert_phase;
    so_acted = !acted_ever;
    so_truncated = !truncated;
    so_states = Hashtbl.length visited;
    so_frontier = !frontier_max;
    so_covered = covered_mark;
    so_findings = List.rev !findings;
  }

(* ---- exemptions: deviations the checking story does not claim ---- *)

let exemptions =
  [
    ( Dev.Misreport_cost,
      "consistent cost misreport is pure information revelation: neutralized \
       by VCG strategyproofness (IC), invisible to checkers by design" );
    ( Dev.Lying_checker,
      "checker-role deviation only: in isolation the principal's own chain \
       is honest, so every digest still agrees — consequential only inside a \
       coalition (see collude-with)" );
  ]

let dev_compare a b = String.compare (Dev.to_string a) (Dev.to_string b)

(* The computations a coalition can shield: mirrored, digested, and
   targeted by some principal-side deviation. *)
let coalition_shield (a : Ir.action) =
  a.Ir.cls = Some Action.Computation
  && a.Ir.mirrored && a.Ir.digested
  && List.exists
       (fun d -> d <> Dev.Lying_checker && d <> Dev.Collude_with)
       a.Ir.deviations

let targets lbl (a : Ir.action) =
  if lbl = Dev.Collude_with then coalition_shield a
  else List.mem lbl a.Ir.deviations

(* A label's verdict over its honesty-class scenarios, with the phase
   index of the worst certified lag (-1 when none certified it). *)
let combine rs =
  if List.exists (fun r -> r.so_truncated) rs then (Truncated, -1)
  else
    match List.find_opt (fun r -> r.so_escape <> None) rs with
    | Some r -> (Undetected { witness = Option.get r.so_escape }, -1)
    | None -> (
        match
          List.find_opt (fun r -> r.so_lag < 0 && r.so_timeout = None) rs
        with
        | Some r ->
            ( Undetected
                {
                  witness =
                    (if r.so_acted then
                       "the deviation occurs but no certification event \
                        ever follows it"
                     else
                       "the targeted action never executes in the explored \
                        product");
                },
              -1 )
        | None ->
            let depth, certifier, phase =
              List.fold_left
                (fun (d0, c0, p0) r ->
                  let d, c, p =
                    if r.so_lag >= 0 then
                      (r.so_lag, r.so_certifier, r.so_cert_phase)
                    else (Option.get r.so_timeout, None, -1)
                  in
                  if d > d0 then (d, c, p) else (d0, c0, p0))
                (-1, None, -1) rs
            in
            (Detected { depth; certifier }, phase))

let dedup_findings fs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (f : Check.finding) ->
      let key = (f.Check.id, f.Check.location) in
      (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
    fs

type product = {
  pr_seeded : bool;
  pr_labels : (Dev.t * verdict * int) list;
  pr_findings : Check.finding list;
  pr_occupied : bool array;
  pr_states : int;
  pr_frontier_peak : int;
  pr_scenarios : int;
  pr_domains : int;
  pr_por : bool;
}

let product ~bound ~adversary ~obs ~por ~domains ~audit ~faithful ~graph
    (ir : Ir.t) =
  let m = build ir in
  let n = G.n graph in
  let ns = Array.length m.states in
  let codec =
    Sp.make ~ns
      ~n:(max (faithful ~deviant:true) (faithful ~deviant:false))
      ~nphases:m.nphases
  in
  let por_ctx =
    if por then
      Some
        (Por.make ~phase_of:m.phase_of ~dst_of:m.dst_of
           ~has_sugg:(Array.map Option.is_some m.sugg_id)
           ~nphases:m.nphases)
    else None
  in
  let por_active =
    match por_ctx with Some c -> c.Por.active | None -> false
  in
  let initial =
    let rec find i =
      if i >= ns then None
      else if m.states.(i) = ir.Ir.initial then Some i
      else find (i + 1)
    in
    find 0
  in
  match initial with
  | None ->
      {
        pr_seeded = false;
        pr_labels = [];
        pr_findings = [];
        pr_occupied = Array.make ns false;
        pr_states = 0;
        pr_frontier_peak = 0;
        pr_scenarios = 0;
        pr_domains = 1;
        pr_por = por_active;
      }
  | Some initial ->
      let no_targets = Array.make ns false in
      let target_mask pred =
        Array.init ns (fun i ->
            match m.action_of.(i) with Some a -> pred a | None -> false)
      in
      let coverage_mask ~honest = target_mask (covered_action ~honest) in
      (* The abstract model forgets seat identity except through the
         honesty of the deviant's checker neighborhood, so seats sharing an
         honesty value share one BFS — the sweep is still exhaustive over
         seats because every seat maps into one of the explored classes. *)
      let honesties =
        List.sort_uniq Bool.compare
          (List.init n (fun i -> G.degree graph i > 0))
      in
      let single_seat_jobs lbl ~stall =
        let tmask = target_mask (targets lbl) in
        List.map
          (fun honest ->
            {
              j_label =
                Printf.sprintf "%s[%s]" (Dev.to_string lbl)
                  (if honest then "honest-nbrs" else "isolated");
              j_has_deviant = true;
              j_stall = stall;
              j_targets = tmask;
              j_covered = coverage_mask ~honest;
              j_faithful = false;
            })
          honesties
      in
      (* Collude-with: the principal deviates on a mirrored computation
         while the colluding checker vouches for it; detection needs some
         *other* honest checker in the principal's neighborhood, so the
         honesty class of the pair (p, c) is "p has a neighbor besides c". *)
      let collude_plan () =
        if not (List.exists coalition_shield ir.Ir.actions) then
          `Done
            (Undetected
               {
                 witness =
                   "no mirrored computation exists for the coalition to \
                    shield, so the coalition case analysis is vacuous";
               })
        else begin
          let tmask = target_mask coalition_shield in
          let pairs =
            List.concat
              (List.init n (fun p ->
                   List.map (fun c -> (p, c)) (G.neighbors graph p)))
          in
          let honest_of (p, c) =
            List.exists (fun nb -> nb <> c) (G.neighbors graph p)
          in
          let exposed = List.filter (fun pc -> not (honest_of pc)) pairs in
          let chonesties =
            List.sort_uniq Bool.compare (List.map honest_of pairs)
          in
          let jobs =
            List.map
              (fun honest ->
                {
                  j_label =
                    (if honest then "collude-with[honest-nbrs]"
                     else "collude-with[isolated]");
                  j_has_deviant = true;
                  j_stall = false;
                  j_targets = tmask;
                  j_covered = coverage_mask ~honest;
                  j_faithful = false;
                })
              chonesties
          in
          let post v =
            match (v, exposed) with
            | Undetected { witness }, (p, c) :: _ ->
                Undetected
                  {
                    witness =
                      Printf.sprintf
                        "%s [principal %d, colluding checker %d covers its \
                         entire neighborhood]"
                        witness p c;
                  }
            | _ -> v
          in
          `Jobs (jobs, post)
        end
      in
      let labels =
        List.sort_uniq dev_compare
          (List.filter (fun d -> d <> Dev.Faithful) adversary)
      in
      let plan =
        List.map
          (fun lbl ->
            let p =
              match List.assoc_opt lbl exemptions with
              | Some reason -> `Done (Exempt { reason })
              | None ->
                  if lbl = Dev.Collude_with then collude_plan ()
                  else if not (List.exists (targets lbl) ir.Ir.actions) then
                    `Done
                      (Undetected
                         {
                           witness =
                             "no catalogue action targets this deviation, so \
                              the section-4.3 case analysis cannot place it";
                         })
                  else
                    `Jobs
                      ( single_seat_jobs lbl
                          ~stall:(lbl = Dev.Silent_in_construction),
                        fun v -> v )
            in
            (lbl, p))
          labels
      in
      (* the all-faithful product run: no-false-accusation + progress *)
      let faithful_job =
        {
          j_label = "all-faithful";
          j_has_deviant = false;
          j_stall = false;
          j_targets = no_targets;
          j_covered = no_targets;
          j_faithful = true;
        }
      in
      let all_jobs =
        List.concat_map
          (fun (_, p) -> match p with `Done _ -> [] | `Jobs (js, _) -> js)
          plan
        @ [ faithful_job ]
      in
      let njobs = List.length all_jobs in
      (* Tracing sinks are not thread-safe, so an enabled obs pins the
         fan-out to one domain; results are merged in job order either
         way, so the outcome is identical. *)
      let dom =
        if Obs.enabled obs then 1
        else
          let req = if domains <= 0 then Pool.default_domains () else domains in
          max 1 (min req njobs)
      in
      let exec job =
        let faithful = faithful ~deviant:job.j_has_deviant in
        Obs.span obs ~cat:"speccheck"
          ~args:[ ("scenario", Json.String job.j_label) ]
          "explore.scenario"
          (fun () ->
            if Sp.fits_int codec then
              run_scenario m ~encode:(Sp.pack_int codec) ~audit ~por:por_ctx
                ~obs ~bound ~faithful ~initial job
            else
              run_scenario m ~encode:(Sp.pack_string codec) ~audit
                ~por:por_ctx ~obs ~bound ~faithful ~initial job)
      in
      let outs = Pool.map ~domains:dom exec all_jobs in
      (* deterministic merge, in job (= label) order *)
      let occupied = Array.make ns false in
      List.iter
        (fun o ->
          Array.iteri (fun i b -> if b then occupied.(i) <- true) o.so_covered)
        outs;
      let outs_arr = Array.of_list outs in
      let idx = ref 0 in
      let take count =
        let l = List.init count (fun j -> outs_arr.(!idx + j)) in
        idx := !idx + count;
        l
      in
      {
        pr_seeded = true;
        pr_labels =
          List.map
            (fun (lbl, p) ->
              match p with
              | `Done v -> (lbl, v, -1)
              | `Jobs (js, post) ->
                  let v, phase = combine (take (List.length js)) in
                  (lbl, post v, phase))
            plan;
        pr_findings = List.concat_map (fun o -> o.so_findings) outs;
        pr_occupied = occupied;
        pr_states = List.fold_left (fun acc o -> acc + o.so_states) 0 outs;
        pr_frontier_peak =
          List.fold_left (fun acc o -> max acc o.so_frontier) 0 outs;
        pr_scenarios = njobs;
        pr_domains = dom;
        pr_por = por_active;
      }

let unexplored_findings ~product p (ir : Ir.t) =
  List.map
    (fun s ->
      {
        Check.id = "unexplored-state";
        severity = Check.Error;
        location = s;
        message =
          Printf.sprintf
            "state %S is never occupied by any node in any %s product \
             execution: it cannot participate in the certified protocol"
            s product;
      })
    (List.filteri (fun i _ -> not p.pr_occupied.(i)) ir.Ir.states)

let run ?(bound = 50_000) ?(adversary = Dev.all) ?(obs = Obs.noop)
    ?(por = true) ?(domains = 0) ?(audit = false) ~graph (ir : Ir.t) =
  let t0 = Clock.now_ns () in
  let n = G.n graph in
  let p =
    product ~bound ~adversary ~obs ~por ~domains ~audit
      ~faithful:(fun ~deviant -> if deviant then n - 1 else n)
      ~graph ir
  in
  if not p.pr_seeded then
    {
      verdicts = [];
      findings =
        [
          {
            Check.id = "exploration-truncated";
            severity = Check.Warning;
            location = ir.Ir.initial;
            message =
              "the initial state is not declared, so the product machine has \
               no seed configuration; exploration skipped";
          };
        ];
      covered_states = [];
      stats =
        {
          states_explored = 0;
          frontier_peak = 0;
          scenarios = 0;
          truncated = true;
          elapsed_s = Clock.s_since t0;
          por = p.pr_por;
          domains = 1;
        };
    }
  else begin
    let verdicts = List.map (fun (lbl, v, _) -> (lbl, v)) p.pr_labels in
    let verdict_findings =
      List.filter_map
        (fun (lbl, v) ->
          match v with
          | Undetected { witness } ->
              Some
                {
                  Check.id = "undetected-deviation";
                  severity = Check.Error;
                  location = Dev.to_string lbl;
                  message =
                    Printf.sprintf
                      "deviation %S can escape its phase checkpoint: %s"
                      (Dev.to_string lbl) witness;
                }
          | Truncated ->
              Some
                {
                  Check.id = "exploration-truncated";
                  severity = Check.Warning;
                  location = Dev.to_string lbl;
                  message =
                    Printf.sprintf
                      "the %d-state bound ran out while exploring %S: its \
                       verdict is unknown"
                      bound (Dev.to_string lbl);
                }
          | Detected _ | Exempt _ -> None)
        verdicts
    in
    let covered_states =
      List.filteri (fun i _ -> p.pr_occupied.(i)) ir.Ir.states
    in
    let elapsed_s = Clock.s_since t0 in
    if Obs.enabled obs then
      Obs.instant obs ~cat:"speccheck"
        ~args:
          [
            ("states", Json.Int p.pr_states);
            ("scenarios", Json.Int p.pr_scenarios);
            ("frontier_peak", Json.Int p.pr_frontier_peak);
            ( "states_per_sec",
              Json.Float
                (if elapsed_s > 0. then float_of_int p.pr_states /. elapsed_s
                 else 0.) );
          ]
        "explore.done";
    {
      verdicts;
      findings = dedup_findings
          (p.pr_findings @ verdict_findings
          @ unexplored_findings ~product:"explored" p ir);
      covered_states;
      stats =
        {
          states_explored = p.pr_states;
          frontier_peak = p.pr_frontier_peak;
          scenarios = p.pr_scenarios;
          truncated =
            List.exists
              (fun (_, v) -> match v with Truncated -> true | _ -> false)
              verdicts;
          elapsed_s;
          por = p.pr_por;
          domains = p.pr_domains;
        };
    }
  end
