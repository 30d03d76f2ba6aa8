(** A protocol node: principal role, checker role for every neighbor, and
    the deviation hook.

    The node is pure protocol state plus handlers parameterized by a
    [send] callback, so the same implementation runs on the simulator (via
    [Runner]) and in direct unit tests. A node's behaviour is the
    *suggested specification* when [deviation = Faithful]; any other value
    replaces parts of it, implementing the paper's model of a rational
    node that ships its own code.

    Checker mirrors: for each neighbor [p], the node records the latest
    update [p] claims to have received from each of [p]'s neighbors
    (copies relayed by [p], plus the node's own announcements to [p],
    which it knows first-hand). [mirror_routing]/[mirror_pricing] then
    recompute what [p]'s tables *must* be — [CHECK1]/[CHECK2]'s "heavy
    lifting" that the bank's hash comparison settles. *)

type send = dst:int -> Protocol.msg -> unit

type t = {
  id : int;
  n : int;
  neighbors : int list;  (** sorted *)
  neighbors_arr : int array;  (** [neighbors] as an array — hot-loop fast path *)
  neighbor_sets : int list array;  (** everyone's neighbor lists (checker common knowledge) *)
  neighbor_arrs : int array array;
      (** [neighbor_sets] as sorted arrays, for O(log deg) provenance checks *)
  deviation : Adversary.t;
      (** resolved at creation: an [Epsilon_rational] wrapper handed in
          directly is taken as *active* (the gauntlet grader resolves
          activation before building nodes) *)
  byz : Adversary.byz_plan option;
      (** the fixed plan when [deviation] is [Byzantine_arbitrary] *)
  true_cost : float;
  copies : bool;
      (** forward checker copies ([PRINC1]/[PRINC2] message-passing);
          disabled for the plain-FPSS baseline of experiment E6 *)
  (* DATA1 *)
  learned_costs : float option array;
  mutable costs : float array;  (** fixed at the end of phase 1 *)
  (* principal state *)
  mutable nbr_routing : (int * Protocol.routing_table) list;
  mutable nbr_pricing : (int * Protocol.pricing_table) list;
  mutable routing : Protocol.routing_table;
  mutable pricing : Protocol.pricing_table;
  mutable announced_routing : Protocol.routing_table;
  mutable announced_pricing : Protocol.pricing_table;
  (* checker state: principal -> claimed inputs, keyed by via *)
  mirror_routing_in : (int, (int * Protocol.routing_table) list ref) Hashtbl.t;
  mirror_pricing_in : (int, (int * Protocol.pricing_table) list ref) Hashtbl.t;
  mutable check_flags : (string * string) list;  (** (rule, detail), newest first *)
  (* execution state *)
  mutable carried : (int * int * float * int) list;
      (** (src, dst, rate, from) transits actually performed *)
  mutable deliveries : (int * float * int list) list;
      (** (src, rate, trace) for packets terminating here *)
}

val create :
  ?copies:bool ->
  id:int ->
  n:int ->
  neighbor_sets:int list array ->
  true_cost:float ->
  deviation:Adversary.t ->
  unit ->
  t
(** [copies] defaults to [true]. *)

val reset_costs : t -> unit
(** Wipe DATA1 (a phase-1 restart). *)

val reset_routing_phase : t -> unit
(** Wipe phase-2 state (both sub-phases) — a bank-ordered restart of the
    routing stage. *)

val reset_pricing_phase : t -> unit
(** Wipe only the pricing sub-phase state (a [BANK2]-ordered restart keeps
    the certified routing tables). *)

val reset_execution : t -> unit

(** {2 Phase 1 — transit-cost flood} *)

val declared_cost_for : t -> neighbor_index:int -> float
(** The cost the node declares to its [neighbor_index]-th neighbor (in
    ascending id order): its true cost, or what its deviation or
    Byzantine plan says to tell that neighbor. *)

val announce_cost : t -> send -> unit
(** Originate the node's own cost announcement (deviations: misreport /
    inconsistent values per neighbor). *)

val on_cost_msg : t -> send -> sender:int -> Protocol.update -> unit
(** Store first-received facts and flood them on (deviation: corrupt
    forwarded facts). *)

val finalize_costs : t -> bool
(** Freeze DATA1; [false] if some cost is still unknown. *)

(** {2 Phase 2a — routing tables} *)

val start_routing : t -> send -> unit
(** Announce the initial (self-only) routing table. *)

val on_routing_msg : t -> send -> sender:int -> Protocol.msg -> unit
(** Handles both direct updates (store, forward copies to checkers,
    recompute, announce on change) and copies (update the relevant
    mirror). *)

(** {2 Phase 2b — pricing tables} *)

val start_pricing : t -> send -> unit

val on_pricing_msg : t -> send -> sender:int -> Protocol.msg -> unit

(** {2 Execution} *)

val originate_traffic : t -> send -> dst:int -> rate:float -> unit

val on_packet : t -> send -> sender:int -> Protocol.msg -> unit

val payment_report : t -> Damd_fpss.Traffic.t -> (int * float) list
(** The signed DATA4 report: per-transit totals owed according to the
    node's own pricing table (deviation: scaled down). *)

(** {2 What the bank collects} *)

val self_routing_digest : t -> string
val self_pricing_digest : t -> string
val costs_digest : t -> string

val announced_routing_digest_of : t -> principal:int -> string option
(** Digest of the last routing table [principal] announced to this node. *)

val announced_pricing_digest_of : t -> principal:int -> string option

val mirror_routing : t -> principal:int -> Protocol.routing_table
(** [CHECK1]: recompute the principal's routing table from its claimed
    inputs. *)

val mirror_pricing : t -> principal:int -> Protocol.pricing_table
(** [CHECK2]: recompute the principal's pricing table (uses the phase-2a
    mirror for the principal's own routing table). *)

val colludes_with : t -> principal:int -> bool
(** True when this node's checker-role reports about [principal] are
    coordinated lies ([Lying_checker] covers every principal;
    [Collude_with p] covers [p] alone). The bank models the coordination
    by letting such a checker echo the principal's self-report. *)

(** {2 Fault-tolerant bank queries}

    Under injected faults a checkpoint mismatch no longer implies a lie:
    a lost copy, a stale announcement or a crash window produces the same
    digest disagreement an adversary would. These input-set digests let
    the bank split mismatches into *contradictions* (checker and
    principal consumed the same inputs yet disagree — someone deviated)
    and *omissions* (they consumed different inputs — a message was lost;
    restart, accuse no one). See [Bank.checkpoint_routing]'s
    [fault_tolerant] mode and DESIGN.md §14. *)

val claimed_announced_routing_digest : t -> string
(** Digest of what the node itself records as its last routing
    announcement — its signed answer to "what did you announce?". For a
    computation deviant this is the distorted table (the node cannot
    un-announce), for an honest node it equals the self digest. *)

val claimed_announced_pricing_digest : t -> string

val routing_inputs_digest : t -> string
(** Digest over the node's consumed neighbor announcements (principal
    side of the omission test). *)

val pricing_inputs_digest : t -> string

val mirror_routing_inputs_digest : t -> principal:int -> string
(** Digest over the copies this checker consumed for [principal]'s
    mirror (checker side of the omission test). *)

val mirror_pricing_inputs_digest : t -> principal:int -> string

(** {2 Crash-recovery handoff} *)

val resend_costs_to : t -> send -> to_:int -> unit
(** Re-deliver every known DATA1 fact to a recovered neighbor, applying
    the node's usual declaration/forwarding deviations. Receivers keep
    first-received facts, so re-sends are idempotent. *)

val resend_routing_to : t -> send -> to_:int -> unit
(** Re-deliver the last routing announcement (if any) plus the checker
    copies the recovered neighbor missed, through the same deviation
    filters as the live path ([routing_copy_view]). *)

val resend_pricing_to : t -> send -> to_:int -> unit
