(** Bounded-exhaustive exploration of the deviation product space.

    One scenario = the product of [n] IR node machines (the closures
    [Compile.machine] builds, re-derived here in indexed form with the same
    undefined-transition self-loop semantics), with at most one node
    running a deviation from the [Dev.t] library. The BFS branches on
    *which node steps next* — since each state carries at most one
    suggested action, that single choice enumerates every interleaving of
    equal-timestamp deliveries that [Damd_sim.Engine]'s documented FIFO
    tie-break could serialize, so a property that holds over the explored
    graph holds for every schedule the engine can produce.

    Phase-barrier semantics mirror [Damd_faithful.Runner]: a node may step
    only while its state belongs to the current phase (a node that crossed
    into the next phase waits); when no node remains inside the current
    phase, the checkpoint event fires — the phase's certifier (if any)
    reads the evidence deposited so far, then the next phase opens.

    The evidence model is the abstract form of the §4.3 case analysis: a
    deviant step on a targeted action deposits evidence for the current
    phase iff the action's declared coverage can surface it —
    message-passing needs an enforcement rule and an honest checker,
    computation needs [mirrored && digested] and an honest checker,
    information revelation needs [digested] (the DATA1-style global
    comparison), unclassified actions are never covered. Omission
    deviations ([Silent_in_construction]) instead stall the barrier; the
    resulting progress timeout is itself a detection (certifier [None]).

    Two properties are verified per phase and reported as findings:

    - detection-completeness: every non-exempt deviation is flagged
      strictly before (or, for omissions, instead of) its phase's
      green-light — a certifier that fires without evidence while the
      deviant acted is an escape ([undetected-deviation], error);
    - no-false-accusation: the all-faithful product run deposits no
      evidence and never stalls ([false-accusation], error, otherwise).

    Further findings: [phase-reentry] (error — a step re-enters a phase
    whose checkpoint already certified), [certifier-unreachable] (error —
    a phase's certifier can never run because the product deadlocks),
    [unexplored-state] (error — an IR state no node ever occupies in any
    scenario), [exploration-truncated] (warning — the per-scenario state
    bound was exhausted, so verdicts may be incomplete).

    Dedup uses canonical state hashing: faithful nodes are behaviorally
    interchangeable (topology enters only through the deviant's coverage
    predicate), so a product state is canonicalized as the *count
    vector* of faithful positions plus the deviant's position, phase
    index, and evidence bits — the standard symmetry reduction — and
    packed by [Statepack] into an immediate int whenever the layout fits
    63 bits (DESIGN.md §16). On top of that, [Por] prunes redundant
    interleavings of phase-internal faithful steps when its acyclicity
    guard holds, and scenarios fan out across domains via [Pool]; both
    are exact — verdicts, findings, and detection depths are unchanged
    (witness *traces* may route differently under POR). *)

type verdict =
  | Detected of { depth : int; certifier : string option }
      (** [depth] is the worst-case number of product steps between the
          deviating step and the checkpoint that surfaces it (for
          omissions, the depth at which progress provably stops);
          [certifier] is the certifying rule, [None] for the progress
          timeout. *)
  | Undetected of { witness : string }
      (** A schedule exists on which the phase green-lights with the
          deviation unflagged; [witness] is its (truncated) step trace. *)
  | Exempt of { reason : string }
      (** Outside the checking story by design — e.g. [Misreport_cost]
          (neutralized by VCG strategyproofness, not by checkers) and
          [Lying_checker] (a checker-role no-op in isolation). *)
  | Truncated  (** the state bound ran out before a verdict was reached *)

type stats = {
  states_explored : int;  (** total canonical states across all scenarios *)
  frontier_peak : int;  (** largest BFS frontier observed *)
  scenarios : int;  (** scenarios run (deviation × seat, plus all-faithful) *)
  truncated : bool;
  elapsed_s : float;
      (** wall-clock exploration time (monotonic clock) — with
          [states_explored] this is the states/sec figure the scale
          work tracks *)
  por : bool;
      (** partial-order reduction was requested {e and} its in-phase
          acyclicity guard held, so the reduced successor relation was
          actually used *)
  domains : int;  (** scenario fan-out width actually used *)
}

type outcome = {
  verdicts : (Dev.t * verdict) list;
      (** one verdict per non-[Faithful] label of the adversary
          vocabulary; [Collude_with] aggregates over every directed
          (principal, colluding-checker) neighbor pair and is [Detected]
          only if all pairs are *)
  findings : Check.finding list;
  covered_states : string list;
      (** IR states some node occupied in some explored scenario — the
          complement drives [unexplored-state] *)
  stats : stats;
}

val covered_action : Ir.action -> honest:bool -> bool
(** The abstract §4.3 coverage case split: can the declared checking
    story surface a deviant execution of this action, given whether the
    deviant's checker neighborhood contains an honest node? Exposed for
    the [Tla] backend, which must emit the same evidence model. *)

val exemptions : (Dev.t * string) list
(** Deviations the checking story does not claim, with the reason —
    [Misreport_cost] (neutralized by VCG strategyproofness, not by
    checkers) and [Lying_checker] (a checker-role no-op in isolation).
    Exposed so tests can check a verdict list exempts exactly these. *)

val targets : Dev.t -> Ir.action -> bool
(** [targets lbl a]: a scenario for [lbl] targets action [a] — [a]
    declares [lbl] among its deviations or, for [Collude_with], [a] is a
    mirrored and digested computation some principal-side deviation
    targets (the computations a coalition can shield). *)

(** {2 The product kernel}

    [run] and [Absint.run] share one kernel: the planner (exemptions,
    orphan labels, honesty classes, collude pairs, the all-faithful
    run), the scenario BFS and the per-label combine. They differ only
    in how many faithful seats a scenario holds: [run] seats the whole
    graph, [Absint] one faithful representative. *)

type product = {
  pr_seeded : bool;
      (** the initial state is declared; otherwise no scenario ran and
          every other field is empty *)
  pr_labels : (Dev.t * verdict * int) list;
      (** one verdict per non-[Faithful] label, in label order, with the
          phase index whose checkpoint certified a [Detected] verdict's
          worst lag (-1 for the progress timeout and every other
          verdict) *)
  pr_findings : Check.finding list;
      (** the scenarios' [phase-reentry] / [certifier-unreachable] /
          [false-accusation] findings in scenario order, duplicates
          across scenarios kept ([dedup_findings] removes them) *)
  pr_occupied : bool array;
      (** per [ir.states] index: some seat occupied it in some scenario *)
  pr_states : int;  (** canonical states summed over the scenarios *)
  pr_frontier_peak : int;
  pr_scenarios : int;
  pr_domains : int;  (** scenario fan-out width actually used *)
  pr_por : bool;  (** as [stats.por] *)
}

val product :
  bound:int ->
  adversary:Dev.t list ->
  obs:Damd_obs.Obs.t ->
  por:bool ->
  domains:int ->
  audit:bool ->
  faithful:(deviant:bool -> int) ->
  graph:Damd_graph.Graph.t ->
  Ir.t ->
  product
(** Plan, run and combine every scenario. [faithful ~deviant] is the
    number of faithful seats in a scenario that does ([deviant]) or does
    not (the all-faithful run) seat a deviant; the other arguments are
    [run]'s, without defaults. *)

val unexplored_findings :
  product:string -> product -> Ir.t -> Check.finding list
(** One [unexplored-state] error per IR state no seat occupied;
    [product] names the product in the message. *)

val dedup_findings : Check.finding list -> Check.finding list
(** Keeps the first finding per (id, location), in order. *)

val run :
  ?bound:int ->
  ?adversary:Dev.t list ->
  ?obs:Damd_obs.Obs.t ->
  ?por:bool ->
  ?domains:int ->
  ?audit:bool ->
  graph:Damd_graph.Graph.t ->
  Ir.t ->
  outcome
(** [bound] (default 50_000) caps canonical states *per scenario*;
    [adversary] (default [Dev.all]) is the label vocabulary to sweep, as
    with [Check.check_ir]. Never raises on malformed IRs: undefined
    transitions self-loop (the [Compile.machine] contract), an undeclared
    initial state skips exploration with an [exploration-truncated]
    warning, and every loop is bounded by dedup plus [bound].

    [por] (default true) enables the invisible-step partial-order
    reduction; it self-disables (see [Por]) when the in-phase
    suggested-play graph is cyclic. [domains] (default 0 = auto) is the
    scenario fan-out width; 1 forces sequential, and an enabled [obs]
    also forces sequential because tracing sinks are not thread-safe.
    The merge is deterministic in scenario order either way. [audit]
    (default false) cross-checks every packed dedup key against the
    structural key and raises [Statepack.Collision] on mismatch.

    [obs] (default noop): each scenario BFS runs under a span labelled
    with the deviation and honesty class, the frontier size is sampled
    as a counter track, state depths feed an ["explore.depth"] metrics
    histogram, and an ["explore.done"] instant reports states/sec. *)
