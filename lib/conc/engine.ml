(** Engine-parameterized exploration of interleaving worlds.

    The DPOR engines of [Cas_mc] need per-transition thread ids and
    footprints, and state keys independent of the scheduler choice. This
    module provides that *thread-selection view* of the preemptive
    semantics: explicit [Gsw] switch transitions disappear, a transition
    is "thread [t] takes one local step", worlds are keyed by
    [World.key_nocur], and footprints come straight from the
    local semantics (Fig. 4). If a thread holds the atomic bit, only it
    is schedulable — exactly the preemptive Switch side-condition d = 0.

    The naive engine keeps exploring the historical scheduler-explicit
    view ([Explore.world_system Preemptive.steps]), so its verdicts and
    world counts stay byte-compatible with earlier revisions; the DPOR
    engines explore the selection view. Both views have the same
    observable behaviours (event traces of completed executions, abort
    reachability, race predictions — all [cur]-independent), which the
    differential tests in [test/test_mc.ml] exercise.

    The link-time confinement check ([Framework.check_confinement]) also
    explores the selection view, on the naive engine: its verdict does
    not read [cur], and the [cur]-free projection of the preemptive
    view's reachable worlds is exactly the selection view's reachable
    set, so keying by [World.key_nocur] visits each state once instead of
    once per choice of [cur] ([test/test_link.ml] checks both sets are
    equal). It takes raw per-step footprints from [thread_trans], not the
    atomic-block summaries of [selection_system].

    The non-preemptive semantics intentionally stays naive-only: an np
    world steps only through the region of its one current thread, so
    per-state scheduling choice — the branching DPOR prunes — is already
    collapsed by the np reduction itself (§3.3); DPOR would degenerate to
    plain DFS there. *)

open Cas_base

type t = Cas_mc.Engine.t = Naive | Dpor | Dpor_par

let of_string = Cas_mc.Engine.of_string
let to_string = Cas_mc.Engine.to_string
let pp = Cas_mc.Engine.pp
let all = Cas_mc.Engine.all

let label_of_msg : Msg.t -> Cas_mc.Mcsys.label = function
  | Msg.Evt e -> Cas_mc.Mcsys.Levt e
  | Msg.Tau | Msg.Ret _ | Msg.EntAtom | Msg.ExtAtom | Msg.Call _
  | Msg.TailCall _ ->
    Cas_mc.Mcsys.Ltau

(** Threads the selection view may schedule: the atomic-bit holder alone
    if there is one (at most one in any reachable preemptive world),
    every live thread otherwise. *)
let schedulable (w : World.t) : int list =
  let live = World.live_tids w in
  match List.filter (fun t -> World.dbit w t) live with
  | [] -> live
  | holders -> holders

(** Accumulated footprint of the atomic block thread [tid] is inside in
    [w] (as in Predict-1 of Fig. 9: conflict is monotone in the
    footprint, so the maximal accumulated footprint covers every prefix). *)
let atomic_block_fp (w : World.t) tid ~bound : Footprint.t =
  let rec go w acc bound =
    if bound = 0 then acc
    else
      let succs = World.local_steps w tid in
      List.fold_left
        (fun acc s ->
          match s with
          | World.LAbort -> acc
          | World.LNext (Msg.ExtAtom, fp, _) -> Footprint.union acc fp
          | World.LNext (_, fp, w') ->
            go w' (Footprint.union acc fp) (bound - 1))
        acc succs
  in
  go w Footprint.empty bound

(** Thread [tid]'s enabled local steps in [w] as selection-view
    transitions carrying their raw per-step footprints. Successor worlds
    keep [cur] pointing at the scheduled thread so world-predicates that
    read it behave as in the preemptive view (the state key ignores it).
    Both [selection_system] and the link-time confinement check
    ([Framework.check_confinement]) enumerate steps through this. *)
let thread_trans (w : World.t) tid : World.t Cas_mc.Mcsys.trans list =
  List.map
    (function
      | World.LAbort ->
        {
          Cas_mc.Mcsys.tid;
          label = Cas_mc.Mcsys.Ltau;
          fp = Footprint.empty;
          target = Cas_mc.Mcsys.Abort;
        }
      | World.LNext (msg, fp, w') ->
        {
          Cas_mc.Mcsys.tid;
          label = label_of_msg msg;
          fp;
          target = Cas_mc.Mcsys.Next { w' with World.cur = tid };
        })
    (World.local_steps w tid)

(** The preemptive semantics as a footprint-instrumented selection
    system: the transitions of every [schedulable] thread.

    Atomic blocks are summarized at their entry: the [EntAtom] transition
    carries the accumulated footprint of the whole block (bounded as in
    the race predictor), and the steps inside the block — taken while the
    thread holds the atomic bit, when no other thread is schedulable —
    carry an empty footprint. Without this, a conflict discovered against
    an in-block step would ask for a backtrack at a frame where only the
    block's owner was enabled (a no-op), and the opposite block order
    would never be explored; with it, block-vs-block and block-vs-access
    orderings hang off the entry transition, where every contender was
    still schedulable. *)
let selection_system : World.t Cas_mc.Mcsys.t =
  {
    Cas_mc.Mcsys.fingerprint = World.key_nocur;
    all_done = World.all_done;
    trans =
      (fun w ->
        List.concat_map
          (fun tid ->
            let in_block = World.dbit w tid in
            List.map
              (fun (tr : World.t Cas_mc.Mcsys.trans) ->
                match tr.Cas_mc.Mcsys.target with
                | Cas_mc.Mcsys.Abort -> tr
                | Cas_mc.Mcsys.Next _ when in_block ->
                  { tr with Cas_mc.Mcsys.fp = Footprint.empty }
                | Cas_mc.Mcsys.Next w' ->
                  if World.dbit w' tid then
                    (* the step entered an atomic block *)
                    {
                      tr with
                      Cas_mc.Mcsys.fp =
                        Footprint.union tr.Cas_mc.Mcsys.fp
                          (atomic_block_fp w' tid ~bound:1000);
                    }
                  else tr)
              (thread_trans w tid))
          (schedulable w));
  }

(** Engine-selected reachability from a loaded world. [visit] fires once
    per distinct world; with [Dpor]/[Dpor_par] the visited worlds are a
    representative subset keyed without the scheduler choice, so [visit]
    must compute [cur]-independent, order-insensitive facts (the race
    predictor is both). *)
let explore ?(engine = Naive) ?jobs ?max_worlds ?recorder (w0 : World.t)
    ~(visit : World.t -> unit) : Cas_mc.Stats.t =
  match engine with
  | Naive ->
    Cas_mc.Engine.reachable ~engine ?jobs ?max_worlds ?recorder
      (Explore.to_mc (Explore.world_system Preemptive.steps))
      (Gsem.initials w0) ~visit
  | Dpor | Dpor_par ->
    Cas_mc.Engine.reachable ~engine ?jobs ?max_worlds ?recorder
      selection_system [ w0 ] ~visit

(** Engine-selected trace enumeration from a loaded world. *)
let traces ?(engine = Naive) ?jobs ?max_steps ?max_paths ?recorder
    (w0 : World.t) : Explore.trace_result * Cas_mc.Stats.t =
  match engine with
  | Naive ->
    Cas_mc.Engine.traces ~engine ?jobs ?max_steps ?max_paths ?recorder
      (Explore.to_mc (Explore.world_system Preemptive.steps))
      (Gsem.initials w0)
  | Dpor | Dpor_par ->
    Cas_mc.Engine.traces ~engine ?jobs ?max_steps ?max_paths ?recorder
      selection_system [ w0 ]
