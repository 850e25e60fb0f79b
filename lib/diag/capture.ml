(** Capture: turn a negative verdict into a schedule.

    Race capture threads a [Cas_mc.Recorder] through the chosen engine's
    exploration of the SC thread-selection view, under the same state
    keys as [Race.drf], and, on a racy verdict, reconstructs the recorded
    spanning-tree path to the racy world.
    Deterministically — the racy world is chosen by minimal
    [Cas_conc.Race.witness_key] over every racy world visited, not by
    visit order — so the captured schedule is a function of the program
    and engine, stable across [--jobs] (satellite 1).

    Refinement and abort capture search the uniform [Sem.state] view
    directly (depth-first with on-path cycle cutting): a refinement
    failure arrives as an event trace the reference side cannot match
    ([Cas_tso.Objsim.guarantee_report.missing]), and the schedule
    realizing that trace must be rediscovered — trace sets do not retain
    schedules, by design. *)

open Cas_base

type race_capture = {
  rc_report : Cas_conc.Race.drf_report;
  rc_steps : Witness.step list;  (** [] when the program is DRF *)
  rc_verdict : Witness.verdict option;
}

(** The witness steps of a recorded path from [w0]: each step's target
    is re-derived by taking the scheduled thread's local step whose
    successor has the recorded key, and digested by [Sem.sc_digest]. The
    recorder keys worlds by [sys]'s key, which is the fingerprint string
    under [--paranoid-fp]; deriving digests from the worlds rather than
    from the keys makes the witness the same bytes in either mode. Only
    the scheduled thread's steps are enumerated, one thread per step. *)
let steps_of_path (sys : Cas_conc.World.t Cas_mc.Mcsys.t) w0 path =
  let rec go w acc = function
    | [] -> List.rev acc
    | ((s : Cas_mc.Recorder.step), child) :: rest ->
      let tid = s.Cas_mc.Recorder.r_tid in
      let w' =
        List.find_map
          (fun (tr : Cas_conc.World.t Cas_mc.Mcsys.trans) ->
            match tr.Cas_mc.Mcsys.target with
            | Cas_mc.Mcsys.Next w' when sys.Cas_mc.Mcsys.fingerprint w' = child
              ->
              Some w'
            | _ -> None)
          (Cas_conc.Engine.thread_trans w tid)
      in
      (match w' with
      | None -> failwith "Capture.race: a recorded step is not enabled"
      | Some w' ->
        let step =
          Sem.step_of_info
            {
              Sem.i_tid = tid;
              i_event = Sem.event_of_label s.Cas_mc.Recorder.r_label;
              i_fp = s.Cas_mc.Recorder.r_fp;
              i_flush = false;
              i_abort = false;
              i_dst = Sem.sc_digest w';
            }
        in
        go w' (step :: acc) rest)
  in
  go w0 [] path

(** Run the race predictor with a recorder attached, and reconstruct the
    schedule to the minimal racy world. Capture explores
    [Engine.selection_system] as it is, under the keys [Race.drf]'s DPOR
    engines use, so it costs a plain DRF check plus the recorder's
    writes. All three engines explore this system here (the naive
    engine's scheduler-explicit view carries no thread ids, which a
    schedule needs). *)
let race ?(engine = Cas_mc.Engine.Naive) ?jobs ?max_worlds
    (w0 : Cas_conc.World.t) : race_capture =
  let recorder = Cas_mc.Recorder.create () in
  let best = ref None in
  let sys = Cas_conc.Engine.selection_system in
  let st =
    Cas_mc.Engine.reachable ~engine ?jobs ?max_worlds ~recorder sys [ w0 ]
      ~visit:(fun w ->
        match Cas_conc.Race.race_witness w with
        | None -> ()
        | Some wt ->
          let key = Cas_conc.Race.witness_key w wt in
          (match !best with
          | Some (key', _, _) when key' <= key -> ()
          | _ -> best := Some (key, wt, w)))
  in
  let report witness witness_world =
    {
      Cas_conc.Race.drf = witness = None;
      witness;
      witness_world;
      stats = Cas_conc.Explore.stats_of_mc st;
      engine_stats = Some st;
    }
  in
  match !best with
  | None ->
    { rc_report = report None None; rc_steps = []; rc_verdict = None }
  | Some (_, ((t1, _, t2, _) as wt), w) ->
    let steps =
      match
        Cas_mc.Recorder.path recorder
          ~target:(sys.Cas_mc.Mcsys.fingerprint w)
      with
      | None -> [] (* unreachable: every visited world is recorded *)
      | Some path -> steps_of_path sys w0 path
    in
    {
      rc_report = report (Some wt) (Some w);
      rc_steps = steps;
      rc_verdict = Some (Witness.Vrace (t1, t2));
    }

(* ------------------------------------------------------------------ *)
(* Schedule search on the uniform view                                 *)
(* ------------------------------------------------------------------ *)

module SSet = Set.Make (String)

(** Depth-first search for a schedule realizing the completed event
    trace [events] (a refinement counterexample), cutting cycles on the
    current path and bounding the depth. Candidate transitions whose
    emitted events stop being a prefix of the target are pruned, so the
    search visits only schedules compatible with the trace. *)
let schedule_for_events (s0 : Sem.state) ~(events : Event.t list)
    ?(max_steps = 4000) () : Witness.step list option =
  let rec go (s : Sem.state) on_path rev_steps pending depth =
    if s.Sem.s_done then if pending = [] then Some (List.rev rev_steps) else None
    else if depth >= max_steps then None
    else if SSet.mem s.Sem.s_digest on_path then None
    else
      let on_path = SSet.add s.Sem.s_digest on_path in
      List.find_map
        (fun ((i : Sem.info), target) ->
          match target with
          | None -> None (* abort: not this verdict *)
          | Some s' -> (
            match (i.Sem.i_event, pending) with
            | None, _ ->
              go s' on_path (Sem.step_of_info i :: rev_steps) pending
                (depth + 1)
            | Some e, e' :: pending' when Event.equal e e' ->
              go s' on_path (Sem.step_of_info i :: rev_steps) pending'
                (depth + 1)
            | Some _, _ -> None))
        (s.Sem.s_succ ())
  in
  go s0 SSet.empty [] events 0

(** Depth-first search for a schedule reaching an abort transition. *)
let schedule_to_abort (s0 : Sem.state) ?(max_steps = 4000) () :
    Witness.step list option =
  let rec go (s : Sem.state) on_path rev_steps depth =
    if s.Sem.s_done || depth >= max_steps || SSet.mem s.Sem.s_digest on_path
    then None
    else
      let succs = s.Sem.s_succ () in
      match
        List.find_opt (fun ((i : Sem.info), _) -> i.Sem.i_abort) succs
      with
      | Some (i, _) -> Some (List.rev (Sem.step_of_info i :: rev_steps))
      | None ->
        let on_path = SSet.add s.Sem.s_digest on_path in
        List.find_map
          (fun ((i : Sem.info), target) ->
            match target with
            | None -> None
            | Some s' ->
              go s' on_path (Sem.step_of_info i :: rev_steps) (depth + 1))
          succs
  in
  go s0 SSet.empty [] 0
