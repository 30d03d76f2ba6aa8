(** The distributed FPSS computation — a BGP-style path-vector fixpoint.

    FPSS distribute the VCG computation over the nodes themselves:
    iterative exchanges with neighbors build [DATA1] (transit costs, a
    flood), then [DATA2] (routing tables, path-vector Bellman–Ford) and
    [DATA3] (pricing tables). This module is the *obedient* version of
    that computation over all n destinations, run in deterministic
    synchronous rounds: the DATA1 flood carries every node's cost fact,
    and DATA2/DATA3 are [Sparse]'s change-driven fixpoints with the full
    destination set, returned as dense [Tables.t]. The faithful extension
    ([Damd_faithful]) re-implements the same update rules as per-node
    message handlers on the simulator, with checkers mirroring them.

    The pricing recurrence (derived in DESIGN.md §5): for transit node [k]
    on [i]'s LCP to [j],

    - [d(-k)(i,j) = min over neighbors a <> k of step(a) + d(-k)(a,j)],
      where [step a] is [0] if [a = j] else [a]'s transit cost, and
      [d(-k)(a,j)] is read off [a]'s routing table when [k] is not on
      [a]'s LCP, or recovered from [a]'s price entry
      [p k a j - c_k + d(a,j)] when it is;
    - [p k i j = c_k + d(-k)(i,j) - d(i,j)].

    Initialized at +infinity, the iteration converges from above to the
    avoid-[k] shortest distances. Convergence to the *centralized* tables
    is exact on integer-valued costs and within floating-point tolerance
    otherwise (the recurrence re-associates sums); the property tests in
    [test/test_fpss.ml] check both. *)

type result = {
  tables : Tables.t;  (** converged routing + pricing tables *)
  rounds_flood : int;  (** rounds for the DATA1 transit-cost flood *)
  rounds_routing : int;  (** rounds for DATA2 to reach fixpoint *)
  rounds_pricing : int;  (** rounds for DATA3 to reach fixpoint *)
  messages : int;  (** change-driven table/flood messages sent in total *)
}

val run : ?max_rounds:int -> Damd_graph.Graph.t -> result
(** Execute all three construction stages from a cold start: the n-fact
    [flood_costs], then [Sparse.create], [Sparse.routing_fixpoint],
    [Sparse.pricing_fixpoint] and [Sparse.to_tables]. [messages] is the
    flood's plus the fixpoints'. Raises [Failure] if a fixpoint fails to
    converge within [max_rounds] (default 10 * n + 20) rounds — which
    cannot happen on a connected graph.

    There is no warm start here: after a cost change, reconverge a
    [Sparse.t] with [Sparse.update_cost] and [Sparse.rerun] (experiment
    E15). *)

val flood_costs : Damd_graph.Graph.t -> int * int
(** Just the DATA1 flood: (rounds, messages). Every node learns every
    declared transit cost; rounds equal the graph's hop diameter. *)

val run_reference :
  ?max_rounds:int -> ?warm_start:Tables.t -> Damd_graph.Graph.t -> result
(** The dense full-sweep fixpoints on path-vector tables: every round
    recomputes all n^2 table entries and compares whole rows. It is the
    test oracle only; do not use it outside tests. From a cold start [run]
    matches it exactly: tables, all three round counts and messages.

    [warm_start] seeds the routing and pricing state from previously
    converged tables. A [Sparse] warm restart after the same cost change
    reaches identical tables, but its round and message counts may differ:
    flat next-hop state has no path to loop-check, so after a cost
    increase stale loops count up for a round or two where this sweep's
    [List.mem i path] test drops them at once. *)
