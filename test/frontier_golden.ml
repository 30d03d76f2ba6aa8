(* Prints the static detection frontier of [Absint.run] on fig1 and
   torus:3:4, for the stock spec and every seeded mutation, one line per
   label plus one line per finding. The runtest rule diffs the output
   against frontier.expected, so any change to a static depth,
   certifier, certifying phase, dependence frontier, state count or
   finding (id, severity, location) fails the build. Witness and message
   text are left out on purpose: they are explanations, not verdicts. *)

module Gen = Damd_graph.Gen
module S = Damd_speccheck
module Absint = S.Absint

let opt = Option.value ~default:"-"

let opt_int = function Some d -> string_of_int d | None -> "-"

let verdict = function
  | Absint.Scertified { depth; certifier; phase } ->
      Printf.sprintf "certified depth=%d certifier=%s phase=%d" depth
        (opt certifier) phase
  | Absint.Sblind _ -> "blind"
  | Absint.Sexempt _ -> "exempt"
  | Absint.Struncated -> "truncated"

let print_run topology graph mutation =
  let ir, graph =
    match mutation with
    | None -> (S.Fpss_spec.ir, graph)
    | Some name -> Option.get (S.Mutate.apply name (S.Fpss_spec.ir, graph))
  in
  let r = Absint.run ~graph ir in
  Printf.printf "== %s %s states=%d\n" topology
    (opt mutation) r.Absint.states_explored;
  List.iter
    (fun (fr : Absint.frontier) ->
      Printf.printf "%s: %s | fr_certifier=%s fr_phase=%s fr_distance=%s\n"
        (S.Dev.to_string fr.Absint.fr_dev)
        (verdict fr.Absint.fr_verdict)
        (opt fr.Absint.fr_certifier) (opt fr.Absint.fr_phase)
        (opt_int fr.Absint.fr_distance))
    r.Absint.frontier;
  List.iter
    (fun (f : S.Check.finding) ->
      Printf.printf "finding %s %s %s\n" f.S.Check.id
        (S.Check.severity_to_string f.S.Check.severity)
        f.S.Check.location)
    r.Absint.findings

let () =
  let topologies =
    [
      ("fig1", fst (Gen.figure1 ()));
      ("torus:3:4", Gen.torus ~rows:3 ~cols:4 ~costs:(Array.make 12 1.));
    ]
  in
  List.iter
    (fun (topology, graph) ->
      List.iter
        (print_run topology graph)
        (None :: List.map Option.some S.Mutate.names))
    topologies
