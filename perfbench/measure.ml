(* Timing loop, statistics and the result line shared by every workload.

   A run is: set-up (repeated, median reported), an untimed warm-up op
   where the first op would pay for lazy set-up, then the measured
   closed loop — the next op starts when the previous one and
   its correctness check are done. Only the op itself is timed; checks
   run outside the timed region. *)

module Clock = Damd_obs.Clock
module Json = Damd_util.Json
module Stats = Damd_util.Stats

type metric = { name : string; value : float; unit_ : string }

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  small : bool;  (** toy sizes, for the benchmark's self-check *)
  sabotage : bool;
      (** seed a known defect into the op, which the checks must catch
          (self-check only) *)
}

type result = { attempted : int; failed : int; metrics : metric list }

let metric name unit_ value = { name; value; unit_ }

let time f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.s_since t0)

let ns_since t0 = Int64.to_int (Int64.sub (Clock.now_ns ()) t0)

(* Set-up is repeated and its median reported, so that one repetition
   that pays for heap growth or page faults does not set the figure. *)
let setup ?(reps = 21) f =
  let rec go k times =
    let r, dt = time f in
    if k <= 1 then (r, Stats.median (dt :: times)) else go (k - 1) (dt :: times)
  in
  go reps []

type loop = {
  ops : int;
  bad : int;
  times : float list;  (** seconds per op, newest first *)
  busy : float;  (** sum of [times] *)
  minor_words : float;
  major_collections : int;
}

let report_failure i msg = Printf.eprintf "op %d failed: %s\n%!" i msg

(* Closed loop: ops [0, 1, ...] until [seconds] of op time have been
   spent (at least one op). [run i] is timed and its GC work counted;
   [check i r] is neither. An exception from either counts as a failed
   op. *)
let loop ~seconds ~run ~check =
  let minor = ref 0. and major = ref 0 in
  let rec go i bad times busy =
    if i > 0 && busy >= seconds then (i, bad, times, busy)
    else
      let gc0 = Gc.quick_stat () in
      let t0 = Clock.now_ns () in
      let outcome = match run i with r -> Ok r | exception e -> Error e in
      let dt = Clock.s_since t0 in
      let gc1 = Gc.quick_stat () in
      minor := !minor +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major := !major + gc1.Gc.major_collections - gc0.Gc.major_collections;
      let ok =
        match outcome with
        | Ok r -> (
            try check i r
            with e ->
              report_failure i (Printexc.to_string e);
              false)
        | Error e ->
            report_failure i (Printexc.to_string e);
            false
      in
      go (i + 1) (if ok then bad else bad + 1) (dt :: times) (busy +. dt)
  in
  let ops, bad, times, busy = go 0 0 [] 0. in
  { ops; bad; times; busy; minor_words = !minor; major_collections = !major }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let percentile_ms p l = Stats.percentile p (List.map (fun t -> t *. 1000.) l.times)

let end_to_end ~setup_s l =
  [
    metric "setup_s" "s" setup_s;
    metric "ops_per_s" "1/s" (float_of_int l.ops /. l.busy);
    metric "op_p50_ms" "ms" (percentile_ms 50. l);
    metric "op_p90_ms" "ms" (percentile_ms 90. l);
    metric "peak_heap_mb" "MB" (peak_heap_mb ());
  ]

(* Per-layer figures are totals over the traced loop divided by its op
   count, so they read per op whatever the run length. *)
module Layers = struct
  type t = { tbl : (string, float ref * string) Hashtbl.t; mutable order : string list }

  let create () = { tbl = Hashtbl.create 32; order = [] }

  let add t name unit_ v =
    match Hashtbl.find_opt t.tbl name with
    | Some (r, _) -> r := !r +. v
    | None ->
        Hashtbl.add t.tbl name (ref v, unit_);
        t.order <- name :: t.order

  let add_ns t name ns = add t name "s" (float_of_int ns *. 1e-9)
  let add_count t name n = add t name "count" (float_of_int n)

  let get t name =
    match Hashtbl.find_opt t.tbl name with Some (r, _) -> !r | None -> 0.

  let per_op t ~ops =
    List.rev_map
      (fun name ->
        let r, unit_ = Hashtbl.find t.tbl name in
        metric name unit_ (!r /. float_of_int ops))
      t.order
end

(* A traced loop's layer figures, per op, plus the part of the mean op
   time that the [top] layers — disjoint spans that together should
   cover the op — leave unexplained. *)
let layer_report layers ~top (traced : loop) =
  let ops = float_of_int traced.ops in
  let covered = List.fold_left (fun acc name -> acc +. Layers.get layers name) 0. top in
  Layers.per_op layers ~ops:traced.ops
  @ [ metric "trace.unattributed_s" "s" ((traced.busy -. covered) /. ops) ]

(* The trace-mode figures every workload shares: GC work over the traced
   loop and the cost of tracing, as the gap between the traced and the
   untraced median op. *)
let trace_common ~untraced ~traced =
  let per_op x = x /. float_of_int traced.ops in
  [
    metric "gc.minor_mw" "Mw" (per_op (traced.minor_words /. 1e6));
    metric "gc.major_collections" "count" (per_op (float_of_int traced.major_collections));
    metric "trace.op_s" "s" (percentile_ms 50. traced /. 1000.);
    metric "trace.overhead_s" "s"
      ((percentile_ms 50. traced -. percentile_ms 50. untraced) /. 1000.);
  ]

let print_result r =
  let m =
    List.map
      (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
      r.metrics
  in
  print_endline
    (Json.to_string ~indent:0
       (Json.Obj
          [
            ("correct", Json.Bool (r.failed = 0));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", Json.Obj m);
          ]))

(* One run of a workload. [warmup ()], when given, runs an untimed
   first op and returns its oracle check, which runs last, after every
   figure is taken, so that the oracle's own memory does not count in
   [peak_heap_mb]; the warm-up counts as an attempted op. With [trace]
   the loop time is split between the untraced op (the overhead
   baseline) and the traced one, whose figures [layers] reports. *)
let drive cfg ~setup_s ?warmup ~run ~check ~traced_run ~traced_check ~layers () =
  let guard f =
    try f ()
    with e ->
      report_failure (-1) (Printexc.to_string e);
      false
  in
  let oracle =
    match warmup with
    | None -> None
    | Some w -> Some (try w () with e -> fun () -> raise e)
  in
  let attempted, bad, metrics =
    let seconds = cfg.seconds in
    if not cfg.trace then
      let l = loop ~seconds ~run ~check in
      (l.ops, l.bad, end_to_end ~setup_s l)
    else
      let untraced = loop ~seconds:(seconds /. 2.) ~run ~check in
      let traced = loop ~seconds:(seconds /. 2.) ~run:traced_run ~check:traced_check in
      ( untraced.ops + traced.ops,
        untraced.bad + traced.bad,
        trace_common ~untraced ~traced @ layers traced )
  in
  match oracle with
  | None -> { attempted; failed = bad; metrics }
  | Some oracle ->
      let warm_bad = if guard oracle then 0 else 1 in
      { attempted = attempted + 1; failed = bad + warm_bad; metrics }
