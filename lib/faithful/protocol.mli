(** Wire format and table computations of the extended-FPSS protocol (§4 of
    the paper).

    Both the principal's own computation ([PRINC1]/[PRINC2]) and the
    checkers' mirror computation ([CHECK1]/[CHECK2]) must be *the same
    function of the same inputs* — that is what makes the bank's hash
    comparison sound. This module holds that shared function: given the
    latest update received from each neighbor, deterministically recompute
    the node's routing table ([DATA2]) and extended pricing table
    ([DATA3*], with identity tags), plus the canonical serializations the
    bank hashes.

    The pricing recurrence is the distributed-FPSS one (derived in
    [Damd_fpss.Distributed], computed by [Damd_fpss.Sparse]); identity
    tags record which neighbor(s) achieved the minimum — the "source of
    change" of §4.3, whose inconsistency exposes spoofed pricing
    updates. *)

type entry = Damd_graph.Dijkstra.entry

type price_entry = {
  transit : int;
  price : float;
  tags : int list;  (** sorted minimizing-neighbor ids — DATA3*'s identity tag *)
}

type routing_table = entry option array
(** Indexed by destination. *)

type pricing_table = price_entry list array
(** Indexed by destination; entries sorted by transit id. *)

(** A table announcement, as placed on the wire. [origin] is the claimed
    author — trusted only until the checkpoint. *)
type update =
  | Cost_announce of { origin : int; cost : float }
  | Routing_update of { origin : int; table : routing_table }
  | Pricing_update of { origin : int; table : pricing_table }

(** Network messages. [Copy] is the [PRINC1]/[PRINC2] message-passing
    obligation: the principal relays every update it receives to its
    checkers, labelled with the neighbor it (claims it) came from. *)
type msg =
  | Update of update
  | Copy of { principal : int; via : int; inner : update }
  | Packet of { src : int; dst : int; rate : float; trace : int list }

val msg_size : msg -> int
(** Approximate wire size in bytes, for the overhead experiments. *)

val empty_routing : n:int -> self:int -> routing_table
(** Only the trivial self entry. *)

val empty_pricing : n:int -> pricing_table

val recompute_routing :
  self:int ->
  n:int ->
  costs:float array ->
  neighbor_tables:(int * routing_table) list ->
  routing_table
(** The [PRINC1] computation: canonical-order path-vector relaxation over
    the latest neighbor tables (loop-avoiding). Deterministic. *)

val recompute_pricing :
  self:int ->
  costs:float array ->
  own_routing:routing_table ->
  neighbor_routing:(int * routing_table) list ->
  neighbor_pricing:(int * pricing_table) list ->
  pricing_table
(** The [PRINC2] computation, including identity tags. *)

val routing_digest : routing_table -> string
(** Hex SHA-256 of the canonical serialization — what [BANK1] compares. *)

val pricing_digest : pricing_table -> string
(** Hex SHA-256 including tags — what [BANK2] compares. *)

val costs_digest : float array -> string
(** Hex SHA-256 of a DATA1 transit-cost list (phase-1 certification). *)

val routing_inputs_digest : (int * routing_table) list -> string
(** Hex SHA-256 over a (sender, table) input set, sorted by sender —
    the principal's consumed neighbor announcements, or a checker
    mirror's consumed copies. The fault-tolerant bank compares the two
    sides to split mirror mismatches into contradictions (same inputs,
    different output) and omissions (a copy was lost in flight). *)

val pricing_inputs_digest : (int * pricing_table) list -> string

val routing_equal : routing_table -> routing_table -> bool
val pricing_equal : pricing_table -> pricing_table -> bool
