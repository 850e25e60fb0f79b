(** Global worlds W = (T, t, d, σ) and the Load rule (Fig. 7).

    A thread is a stack of existentially-packed cores — the call stack of
    the interaction semantics (footnote 5: the thread pool maps thread IDs
    to stacks of (tl, F, κ) since modules call each other's external
    functions). The world keeps per-thread atomic bits 𝕕 as in the
    non-preemptive semantics; the preemptive semantics uses the current
    thread's bit as its single d flag, the two views coinciding because a
    preemptive thread is never descheduled mid-atomic-block. *)

open Cas_base

module IMap = Map.Make (Int)

type thread = {
  tid : int;
  flist : Flist.t;
  stack : Lang.xcore list;  (** head = running frame; [] = terminated *)
  fhashes : (int * int) list;
      (** memoized [Lang.xcore_hash] of each frame, same order as [stack]:
          a step rehashes only the frame it replaced, so [key_nocur] never
          re-reads the unchanged frames or the other threads *)
}

type t = {
  threads : thread IMap.t;
  cur : int;
  dbits : bool IMap.t;
  mem : Memory.t;
  genv : Genv.t;
  modules : Lang.modu list;
}

(** Global messages o ::= τ | e | sw (Fig. 7). *)
type gmsg = Gtau | Gevt of Event.t | Gsw

let pp_gmsg ppf = function
  | Gtau -> Fmt.string ppf "tau"
  | Gevt e -> Event.pp ppf e
  | Gsw -> Fmt.string ppf "sw"

type load_error =
  | Incompatible_globals of string
  | Duplicate_fundef of string
      (** a function symbol defined by more than one module: resolution
          would silently pick one definition, so Load rejects it *)
  | Unresolved_entry of string
  | Not_closed

let pp_load_error ppf = function
  | Incompatible_globals n -> Fmt.pf ppf "incompatible declarations of %s" n
  | Duplicate_fundef f ->
    Fmt.pf ppf "duplicate definition of function %s across modules" f
  | Unresolved_entry f -> Fmt.pf ppf "unresolved entry %s" f
  | Not_closed -> Fmt.string ppf "initial memory is not closed"

(** The Load rule: link global environments, initialize memory, check
    closedness, partition the freelists, and create one core per entry. *)
let load (p : Lang.prog) ~(args : Value.t list list) : (t, load_error) result =
  match Lang.duplicate_def p.modules with
  | Some f -> Error (Duplicate_fundef f)
  | None ->
  match Lang.link_genv p with
  | Error n -> Error (Incompatible_globals n)
  | Ok genv ->
    let mem = Genv.init_memory genv in
    if not (Memory.closed mem) then Error Not_closed
    else
      let n = List.length p.entries in
      let flists = Flist.partition ~globals:(Genv.block_count genv) n in
      let rec build tid entries flists args acc =
        match (entries, flists, args) with
        | [], _, _ -> Ok acc
        | entry :: es, fl :: fls, a :: argss -> (
          match Lang.resolve ~genv p.modules ~entry ~args:a with
          | None -> Error (Unresolved_entry entry)
          | Some xc ->
            build (tid + 1) es fls argss
              (IMap.add tid
                 {
                   tid;
                   flist = fl;
                   stack = [ xc ];
                   fhashes = [ Lang.xcore_hash xc ];
                 }
                 acc))
        | _ -> assert false
      in
      let args =
        if args = [] then List.map (fun _ -> []) p.entries else args
      in
      (match build 1 p.entries flists args IMap.empty with
      | Error e -> Error e
      | Ok threads ->
        let dbits = IMap.map (fun _ -> false) threads in
        Ok { threads; cur = 1; dbits; mem; genv; modules = p.modules })

let thread_done t = t.stack = []
let live_tids w =
  IMap.fold (fun tid t acc -> if thread_done t then acc else tid :: acc) w.threads []
  |> List.rev

let all_done w = live_tids w = []
let dbit w tid = Option.value ~default:false (IMap.find_opt tid w.dbits)

(** Canonical fingerprint of everything but the scheduler choice [cur]:
    the state key of the thread-selection view used by the DPOR engines
    ([Cas_conc.Engine]), where the scheduled thread is part of the
    transition, not of the state. *)
let fingerprint_nocur w =
  let buf = Buffer.create 256 in
  IMap.iter
    (fun tid t ->
      Buffer.add_string buf (string_of_int tid);
      Buffer.add_string buf (if dbit w tid then "!" else ":");
      List.iter
        (fun xc ->
          Buffer.add_string buf (Lang.xcore_fingerprint xc);
          Buffer.add_char buf '/')
        t.stack;
      Buffer.add_char buf ';')
    w.threads;
  Buffer.add_string buf (Memory.fingerprint w.mem);
  Buffer.contents buf

let fingerprint w = string_of_int w.cur ^ "|" ^ fingerprint_nocur w

(** Cheap fixed-width state keys in the fingerprints' equivalence classes:
    per-thread memoized frame hashes plus the memory's incremental hash,
    folded into a 16-byte string. Collisions are ~2^-63 per state pair;
    [Fpmode.paranoid] makes the engines' keys ([key_nocur], [key]) fall
    back to the collision-free strings. Witness digests ([Cas_diag.Sem])
    always use [hkey_nocur], which ignores that flag, so a witness is the
    same bytes in either mode. *)
let key_stream w =
  let st = Hashx.create () in
  IMap.iter
    (fun tid t ->
      Hashx.int st tid;
      Hashx.bool st (dbit w tid);
      List.iter
        (fun (h1, h2) ->
          Hashx.int st h1;
          Hashx.int st h2)
        t.fhashes;
      Hashx.char st ';')
    w.threads;
  let mh1, mh2 = Memory.hash w.mem in
  Hashx.int st mh1;
  Hashx.int st mh2;
  st

(** The 16-byte [Hashx] key of everything but [cur], whatever the
    [Fpmode] setting. *)
let hkey_nocur w = Hashx.key_of (Hashx.out (key_stream w))

let key_nocur w =
  if Fpmode.paranoid () then fingerprint_nocur w else hkey_nocur w

let key w =
  if Fpmode.paranoid () then fingerprint w
  else begin
    let st = key_stream w in
    Hashx.int st w.cur;
    Hashx.key_of (Hashx.out st)
  end

(* ------------------------------------------------------------------ *)
(* Local steps of one thread, with call/return linking                 *)
(* ------------------------------------------------------------------ *)

(** Result of one local step of a thread, before the scheduler decides
    about switching. The [Msg.t] is the local message that labelled the
    step (with [Call]/[TailCall]/[Ret] already resolved by the linker). *)
type local_succ =
  | LNext of Msg.t * Footprint.t * t
  | LAbort

let set_thread w (t : thread) = { w with threads = IMap.add t.tid t w.threads }

let set_top w (t : thread) (xc : Lang.xcore) =
  match (t.stack, t.fhashes) with
  | [], _ | _, [] -> invalid_arg "set_top: terminated thread"
  | _ :: rest, _ :: hrest ->
    set_thread w
      { t with stack = xc :: rest; fhashes = Lang.xcore_hash xc :: hrest }

(** Pop the top frame of [t], delivering [v] to the caller frame below (or
    terminating the thread). *)
let pop_frame w (t : thread) (v : Value.t) : t option =
  match t.stack with
  | [] -> None
  | _ :: [] -> Some (set_thread w { t with stack = []; fhashes = [] })
  | _ :: Lang.XCore (l, caller) :: rest -> (
    match l.after_external caller (Some v) with
    | None -> None
    | Some caller' ->
      let top = Lang.XCore (l, caller') in
      let hrest =
        match t.fhashes with _ :: _ :: hs -> hs | _ -> assert false
      in
      Some
        (set_thread w
           {
             t with
             stack = top :: rest;
             fhashes = Lang.xcore_hash top :: hrest;
           }))

(** All local successors of thread [tid] in world [w]. Handles the
    built-in [print] external, cross-module calls, tail calls, returns,
    and the atomic bits. *)
let local_steps (w : t) (tid : int) : local_succ list =
  match IMap.find_opt tid w.threads with
  | None -> []
  | Some t -> (
    match t.stack with
    | [] -> []
    | Lang.XCore (l, core) :: _ ->
      let succs = l.step t.flist core w.mem in
      if succs = [] then [ LAbort ]
      else
        List.map
          (function
            | Lang.Stuck_abort -> LAbort
            | Lang.Next (msg, fp, core', mem') -> (
              let w = { w with mem = mem' } in
              let w_top = set_top w t (Lang.XCore (l, core')) in
              match msg with
              | Msg.Tau | Msg.Evt _ -> LNext (msg, fp, w_top)
              | Msg.EntAtom ->
                LNext
                  (msg, fp, { w_top with dbits = IMap.add tid true w.dbits })
              | Msg.ExtAtom ->
                LNext
                  (msg, fp, { w_top with dbits = IMap.add tid false w.dbits })
              | Msg.Ret v -> (
                let t' =
                  match IMap.find_opt tid w_top.threads with
                  | Some t' -> t'
                  | None -> assert false
                in
                match pop_frame w_top t' v with
                | Some w' -> LNext (msg, fp, w')
                | None -> LAbort)
              | Msg.Call ("print", [ Value.Vint n ]) -> (
                (* built-in observable output *)
                match l.after_external core' None with
                | Some core'' ->
                  LNext
                    ( Msg.Evt (Event.Print n),
                      fp,
                      set_top w t (Lang.XCore (l, core'')) )
                | None -> LAbort)
              | Msg.Call (f, args) -> (
                match Lang.resolve ~genv:w.genv w.modules ~entry:f ~args with
                | Some callee ->
                  let t' =
                    match IMap.find_opt tid w_top.threads with
                    | Some t' -> t'
                    | None -> assert false
                  in
                  LNext
                    ( msg,
                      fp,
                      set_thread w_top
                        {
                          t' with
                          stack = callee :: t'.stack;
                          fhashes = Lang.xcore_hash callee :: t'.fhashes;
                        } )
                | None -> LAbort)
              | Msg.TailCall ("print", [ Value.Vint n ]) -> (
                (* tail-calling the built-in: the event fires and the
                   current frame returns to its caller *)
                let t' =
                  match IMap.find_opt tid w_top.threads with
                  | Some t' -> t'
                  | None -> assert false
                in
                match pop_frame w_top t' (Value.Vint 0) with
                | Some w' -> LNext (Msg.Evt (Event.Print n), fp, w')
                | None -> LAbort)
              | Msg.TailCall (f, args) -> (
                match Lang.resolve ~genv:w.genv w.modules ~entry:f ~args with
                | Some callee ->
                  let rest =
                    match t.stack with [] -> [] | _ :: r -> r
                  in
                  let hrest =
                    match t.fhashes with [] -> [] | _ :: r -> r
                  in
                  LNext
                    ( msg,
                      fp,
                      set_thread w
                        {
                          t with
                          stack = callee :: rest;
                          fhashes = Lang.xcore_hash callee :: hrest;
                        } )
                | None -> LAbort)))
          succs)

(** Footprint-only successors, for the race predictor's per-world probe
    ([Cas_conc.Race.predict]): runs the language step like [local_steps]
    but skips successor-world construction — the [set_top] frame surgery,
    frame rehashing, and thread-map updates — everywhere except atomic
    entry, where Predict-1 needs the successor to accumulate the block's
    footprint. Abort-bound steps are dropped exactly as the predictor
    drops [LAbort] (each arm mirrors the corresponding [local_steps]
    arm's failure condition), so the returned footprints are precisely
    those of the [LNext] successors [local_steps] would build. *)
type pred_succ = PNext of Footprint.t | PEnter of Footprint.t * t

let local_preds (w : t) (tid : int) : pred_succ list =
  match IMap.find_opt tid w.threads with
  | None -> []
  | Some t -> (
    match t.stack with
    | [] -> []
    | Lang.XCore (l, core) :: _ ->
      (* would the [Ret]/tail-print pop succeed? (cf. [pop_frame]) *)
      let pop_ok v =
        match t.stack with
        | [] -> false
        | [ _ ] -> true
        | _ :: Lang.XCore (lc, c) :: _ -> lc.after_external c (Some v) <> None
      in
      List.filter_map
        (function
          | Lang.Stuck_abort -> None
          | Lang.Next (msg, fp, core', mem') -> (
            match msg with
            | Msg.Tau | Msg.Evt _ | Msg.ExtAtom -> Some (PNext fp)
            | Msg.EntAtom ->
              let w = { w with mem = mem' } in
              let w_top = set_top w t (Lang.XCore (l, core')) in
              Some
                (PEnter (fp, { w_top with dbits = IMap.add tid true w.dbits }))
            | Msg.Ret v -> if pop_ok v then Some (PNext fp) else None
            | Msg.Call ("print", [ Value.Vint _ ]) ->
              if l.after_external core' None <> None then Some (PNext fp)
              else None
            | Msg.Call (f, args) ->
              if Lang.resolve ~genv:w.genv w.modules ~entry:f ~args <> None
              then Some (PNext fp)
              else None
            | Msg.TailCall ("print", [ Value.Vint _ ]) ->
              if pop_ok (Value.Vint 0) then Some (PNext fp) else None
            | Msg.TailCall (f, args) ->
              if Lang.resolve ~genv:w.genv w.modules ~entry:f ~args <> None
              then Some (PNext fp)
              else None))
        (l.step t.flist core w.mem))

let pp ppf w =
  Fmt.pf ppf "@[<v>cur=%d mem=%a@ %a@]" w.cur
    Fmt.(any "...")
    ()
    Fmt.(
      list ~sep:cut (fun ppf (tid, t) ->
          Fmt.pf ppf "T%d%s: %a" tid
            (if dbit w tid then " [atomic]" else "")
            (list ~sep:(any " <- ") Lang.pp_xcore)
            t.stack))
    (IMap.bindings w.threads)
