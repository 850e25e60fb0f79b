(** The race predictor and data-race-freedom (Fig. 9, §5).

    [predict w t] computes the instrumented footprints (δ, d) the rules
    Predict-0 and Predict-1 derive for thread [t] in world [w]:
    - Predict-0: the footprint of any immediate next step of a thread that
      is outside atomic blocks, paired with bit 0;
    - Predict-1: when the next step enters an atomic block, the
      accumulated footprint of the silent run of the whole block, paired
      with bit 1. (Conflict is monotone in the footprint, so checking the
      maximal accumulated footprint covers every prefix the paper's τ*
      allows.)

    A world predicts a race when two distinct threads have conflicting
    instrumented footprints ((δ1,d1) ⌢ (δ2,d2), §5). DRF(P) then means no
    reachable world predicts a race. *)

open Cas_base

type prediction = Footprint.t * bool

(** Accumulated footprint of the atomic block entered by the given
    successor world (thread [tid] just performed EntAtom). Shared with
    the selection view of [Engine], which uses it to summarize whole
    blocks on their entry transitions. *)
let atomic_block_fp = Engine.atomic_block_fp

let predict ?(atomic_bound = 1000) (w : World.t) (tid : int) : prediction list =
  if World.dbit w tid then []
  else
    (* footprint-only stepping: the predictor never needs the successor
       worlds except through atomic entry, and it probes every live
       thread at every visited world *)
    List.filter_map
      (function
        | World.PEnter (fp, w') ->
          Some
            (Footprint.union fp (atomic_block_fp w' tid ~bound:atomic_bound), true)
        | World.PNext fp ->
          if Footprint.is_empty fp then None else Some (fp, false))
      (World.local_preds w tid)

(** Region-based prediction for the non-preemptive setting (§5, after
    Xiao et al.'s NP race notion): under non-preemptive scheduling a
    thread executes a whole *region* — the silent run up to its next
    switch point — without interruption, so NPDRF must compare the
    accumulated footprints of regions, not of single steps (single-step
    prediction would miss every race hidden inside a region, and
    DRF ⇔ NPDRF would fail). If the region ends by entering an atomic
    block, the block's own footprint is predicted separately with bit 1,
    as in Predict-1. *)
let predict_np ?(region_bound = 1000) (w : World.t) (tid : int) :
    prediction list =
  if World.dbit w tid then []
  else
    let preds = ref [] in
    let rec run w acc bound =
      if bound = 0 then preds := (acc, false) :: !preds
      else
        let succs = World.local_steps w tid in
        if succs = [] then preds := (acc, false) :: !preds
        else
          List.iter
            (function
              | World.LAbort -> preds := (acc, false) :: !preds
              | World.LNext (Msg.EntAtom, fp, w') ->
                let acc = Footprint.union acc fp in
                preds := (acc, false) :: !preds;
                preds :=
                  ( Footprint.union acc
                      (atomic_block_fp w' tid ~bound:region_bound),
                    true )
                  :: !preds
              | World.LNext (msg, fp, w') ->
                let acc = Footprint.union acc fp in
                if Msg.is_switch_point msg then preds := (acc, false) :: !preds
                else run w' acc (bound - 1))
            succs
    in
    run w Footprint.empty region_bound;
    !preds

(** Does world [w] predict a data race (the Race rule of Fig. 9)? Returns
    the witnessing threads and footprints if so. [predictor] selects
    single-step prediction (preemptive DRF) or region prediction
    (NPDRF). *)
let race_witness ?(predictor = fun w t -> predict w t) (w : World.t) :
    (int * prediction * int * prediction) option =
  let tids = World.live_tids w in
  let preds = List.map (fun t -> (t, predictor w t)) tids in
  let rec pairs = function
    | [] -> None
    | (t1, p1) :: rest ->
      let hit =
        List.find_map
          (fun (t2, p2) ->
            List.find_map
              (fun pr1 ->
                List.find_map
                  (fun pr2 ->
                    if Footprint.conflict_bits pr1 pr2 then
                      Some (t1, pr1, t2, pr2)
                    else None)
                  p2)
              p1)
          rest
      in
      (match hit with Some _ -> hit | None -> pairs rest)
  in
  pairs preds

let races (w : World.t) = Option.is_some (race_witness w)
let races_np (w : World.t) =
  Option.is_some (race_witness ~predictor:(fun w t -> predict_np w t) w)

type drf_report = {
  drf : bool;
  witness : (int * prediction * int * prediction) option;
  witness_world : World.t option;
      (** the racy world the witness was predicted at, for diagnostics *)
  stats : Explore.stats;
  engine_stats : Cas_mc.Stats.t option;
      (** full engine accounting when a [Cas_mc] engine ran the search *)
}

(** Total selection key for a race witness: the racy world's
    scheduler-independent fingerprint, then the rendered witness tuple.
    The engines visit worlds in an order that depends on the engine and,
    under [dpor-par], on domain interleaving. Picking the minimal key
    makes the reported witness a function of the set of racy worlds
    visited, not of the order. That set is fixed per program for [naive]
    and [dpor], but not for [dpor-par]: on some programs its world count
    depends on steal order (measured on DRF programs, see the casbench
    README, "Known failure"), so a witness is stable across [--jobs] only
    as long as every run visits the minimal racy world. *)
let witness_key (w : World.t) ((t1, (d1, b1), t2, (d2, b2)) : int * prediction * int * prediction) : string =
  Fmt.str "%s|%d %a %b|%d %a %b" (World.fingerprint_nocur w) t1 Footprint.pp
    d1 b1 t2 Footprint.pp d2 b2

let pp_drf_report ppf r =
  match r.witness with
  | None -> Fmt.pf ppf "DRF (%a)" Explore.pp_stats r.stats
  | Some (t1, (d1, b1), t2, (d2, b2)) ->
    Fmt.pf ppf "RACE between T%d %a[%b] and T%d %a[%b] (%a)" t1 Footprint.pp d1
      b1 t2 Footprint.pp d2 b2 Explore.pp_stats r.stats

(** DRF of a loaded world under a given global semantics: explore the
    reachable worlds and apply the race predictor to each. Instantiated
    with [Preemptive.steps] this is DRF(P); with [Nonpreemptive.steps] it
    is NPDRF(P) (§5). *)
let check ?(max_worlds = 200_000) ?predictor ?recorder (step : Gsem.stepf)
    (w0 : World.t) : drf_report =
  let witness = ref None in
  let world = ref None in
  let stats =
    Explore.reachable ~max_worlds ?recorder step (Gsem.initials w0)
      ~visit:(fun w ->
        if !witness = None then
          match race_witness ?predictor w with
          | Some wt ->
            witness := Some wt;
            world := Some w
          | None -> ())
  in
  {
    drf = !witness = None;
    witness = !witness;
    witness_world = !world;
    stats;
    engine_stats = None;
  }

(** DRF(P) with a selectable exploration engine: [Naive] is [check] on
    the scheduler-explicit preemptive graph; the DPOR engines run the
    race predictor over the reduced thread-selection view (the predictor
    reads only thread states and memory — never [cur] — so its verdict
    is well-defined on selection worlds). *)
let drf ?max_worlds ?(engine = Engine.Naive) ?jobs ?recorder w0 =
  match engine with
  | Engine.Naive -> check ?max_worlds ?recorder Preemptive.steps w0
  | Engine.Dpor | Engine.Dpor_par ->
    (* Keep the candidate with the smallest [witness_key] over *all* racy
       worlds, not the first one visited: under [dpor-par] the visit
       order depends on domain scheduling, first-hit would make the
       reported witness (and everything downstream: capture, replay,
       shrink) flap across [--jobs] values. *)
    let best = ref None in
    let st =
      Engine.explore ~engine ?jobs ?max_worlds ?recorder w0 ~visit:(fun w ->
          match race_witness w with
          | None -> ()
          | Some wt ->
            let key = witness_key w wt in
            (match !best with
            | Some (key', _, _) when key' <= key -> ()
            | _ -> best := Some (key, wt, w)))
    in
    {
      drf = !best = None;
      witness = Option.map (fun (_, wt, _) -> wt) !best;
      witness_world = Option.map (fun (_, _, w) -> w) !best;
      stats = Explore.stats_of_mc st;
      engine_stats = Some st;
    }

let npdrf ?max_worlds w0 =
  check ?max_worlds
    ~predictor:(fun w t -> predict_np w t)
    Nonpreemptive.steps w0
