(** A uniform, replayable view of the global semantics: both the SC
    thread-selection system ([Cas_conc.Engine.selection_system]) and the
    x86-TSO machine ([Cas_tso.Tso.mc_system]) unfold into the same
    first-order [state] type, so replay, shrinking, and schedule search
    are written once and work on either.

    A [state] exposes exactly what the diagnosis algorithms need: the
    enabled transitions with their recorded-step view ([info]: thread,
    event, footprint, flush flag, target digest), terminality, and the
    race predicate restricted to a thread pair. World types stay hidden
    behind closures — [Cas_diag] never matches on a world. *)

open Cas_base

(** The witness-step view of one enabled transition. *)
type info = {
  i_tid : int;
  i_event : Event.t option;
  i_fp : Footprint.t;
  i_flush : bool;  (** a TSO buffer drain of thread [i_tid] *)
  i_abort : bool;  (** the transition aborts (it has no target state) *)
  i_dst : string;  (** [sc_digest] or [tso_digest] of the target world *)
}

type state = {
  s_done : bool;
  s_digest : string;  (** [sc_digest] or [tso_digest] of this world *)
  s_race : int -> int -> bool;
      (** does this world predict a race between the given threads? *)
  s_succ : unit -> (info * state option) list;
      (** enabled transitions; [None] target iff [i_abort] *)
}

(** A world's digest: the hex of its 16-byte [Hashx] key without [cur]
    ([World.hkey_nocur], [Tso.hkey_nocur]; [Digest.to_hex] prints any
    16-byte string). It does not read [Fpmode], so witnesses are the same
    bytes with [--paranoid-fp] on or off, and no fingerprint string is
    built on the capture, replay or shrink paths. *)
let sc_digest w = Digest.to_hex (Cas_conc.World.hkey_nocur w)

let tso_digest w = Digest.to_hex (Cas_tso.Tso.hkey_nocur w)

let info_of_step (s : Witness.step) : info =
  {
    i_tid = s.Witness.s_tid;
    i_event = s.Witness.s_event;
    i_fp =
      Footprint.union
        (Footprint.reads s.Witness.s_reads)
        (Footprint.writes s.Witness.s_writes);
    i_flush = s.Witness.s_flush;
    i_abort = false;
    i_dst = s.Witness.s_dst;
  }

let step_of_info (i : info) : Witness.step =
  {
    Witness.s_tid = i.i_tid;
    s_event = i.i_event;
    s_reads = Addr.Set.elements (Footprint.rs_set i.i_fp);
    s_writes = Addr.Set.elements (Footprint.ws_set i.i_fp);
    s_flush = i.i_flush;
    s_dst = i.i_dst;
  }

let event_of_label = function
  | Cas_mc.Mcsys.Levt e -> Some e
  | Cas_mc.Mcsys.Ltau | Cas_mc.Mcsys.Lsw -> None

(* ------------------------------------------------------------------ *)
(* SC: the preemptive thread-selection view                            *)
(* ------------------------------------------------------------------ *)

(** Race prediction restricted to a thread pair (the pairwise core of
    [Cas_conc.Race.race_witness]). *)
let sc_race_between (w : Cas_conc.World.t) t1 t2 =
  t1 <> t2
  && List.exists
       (fun p1 ->
         List.exists
           (fun p2 -> Footprint.conflict_bits p1 p2)
           (Cas_conc.Race.predict w t2))
       (Cas_conc.Race.predict w t1)

let of_world (w0 : Cas_conc.World.t) : state =
  let sys = Cas_conc.Engine.selection_system in
  let rec make w =
    {
      s_done = Cas_conc.World.all_done w;
      s_digest = sc_digest w;
      s_race = (fun t1 t2 -> sc_race_between w t1 t2);
      s_succ =
        (fun () ->
          List.map
            (fun (tr : Cas_conc.World.t Cas_mc.Mcsys.trans) ->
              match tr.Cas_mc.Mcsys.target with
              | Cas_mc.Mcsys.Abort ->
                ( {
                    i_tid = tr.Cas_mc.Mcsys.tid;
                    i_event = None;
                    i_fp = tr.Cas_mc.Mcsys.fp;
                    i_flush = false;
                    i_abort = true;
                    i_dst = "";
                  },
                  None )
              | Cas_mc.Mcsys.Next w' ->
                ( {
                    i_tid = tr.Cas_mc.Mcsys.tid;
                    i_event = event_of_label tr.Cas_mc.Mcsys.label;
                    i_fp = tr.Cas_mc.Mcsys.fp;
                    i_flush = false;
                    i_abort = false;
                    i_dst = sc_digest w';
                  },
                  Some (make w') ))
            (sys.Cas_mc.Mcsys.trans w));
    }
  in
  make w0

(* ------------------------------------------------------------------ *)
(* TSO: the store-buffer machine                                       *)
(* ------------------------------------------------------------------ *)

let of_tso (w0 : Cas_tso.Tso.world) : state =
  let sys = Cas_tso.Tso.mc_system in
  let rec make w =
    {
      s_done = Cas_tso.Tso.all_done w;
      s_digest = tso_digest w;
      s_race = (fun _ _ -> false);
      s_succ =
        (fun () ->
          List.map
            (fun (tr : Cas_tso.Tso.world Cas_mc.Mcsys.trans) ->
              match tr.Cas_mc.Mcsys.target with
              | Cas_mc.Mcsys.Abort ->
                ( {
                    i_tid = tr.Cas_mc.Mcsys.tid;
                    i_event = None;
                    i_fp = tr.Cas_mc.Mcsys.fp;
                    i_flush = false;
                    i_abort = true;
                    i_dst = "";
                  },
                  None )
              | Cas_mc.Mcsys.Next w' ->
                ( {
                    i_tid = tr.Cas_mc.Mcsys.tid;
                    i_event = event_of_label tr.Cas_mc.Mcsys.label;
                    i_fp = tr.Cas_mc.Mcsys.fp;
                    i_flush = Cas_tso.Tso.is_drain w w' tr.Cas_mc.Mcsys.tid;
                    i_abort = false;
                    i_dst = tso_digest w';
                  },
                  Some (make w') ))
            (sys.Cas_mc.Mcsys.trans w));
    }
  in
  make w0
