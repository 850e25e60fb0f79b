(** The x86-TSO machine (§7.3, following Sewell et al.'s x86-TSO model):
    each hardware thread owns a FIFO store buffer. Stores are buffered;
    loads read the youngest buffered write to the same address, falling
    back to memory; lock-prefixed instructions and fences require an empty
    buffer; buffered writes drain to memory at nondeterministic points.

    The machine runs whole programs of x86 modules (the P^rmm of Fig. 3).
    Frame allocations and frame-private accesses bypass the buffer: they
    are thread-local, so buffering them is unobservable (documented
    simplification). *)

open Cas_base
open Cas_langs

module IMap = Map.Make (Int)

type buffer = (Addr.t * Value.t) list  (** oldest first *)

type thread = {
  tid : int;
  flist : Flist.t;
  stack : Asm.core list;
  buf : buffer;
  fhashes : (int * int) list;
      (** memoized hash of each stack frame (same order): only the frame a
          step replaces is rehashed; buffers are short and hashed fresh *)
}

type world = {
  threads : thread IMap.t;
  cur : int;
  mem : Memory.t;
  genv : Genv.t;
  modules : Asm.program list;
}

type load_error = Cas_conc.World.load_error

(** Two-lane hash of one frame, in [Asm.fingerprint_core]'s classes. *)
let core_hash (c : Asm.core) =
  let st = Hashx.create () in
  Asm.hash_core st c;
  Hashx.out st

let load (modules : Asm.program list) (entries : string list) :
    (world, load_error) result =
  match
    Lang.duplicate_def (List.map (fun p -> Lang.Mod (Asm.lang, p)) modules)
  with
  | Some f -> Error (Cas_conc.World.Duplicate_fundef f)
  | None ->
  match Genv.link (List.map (fun (p : Asm.program) -> p.Asm.globals) modules) with
  | Error n -> Error (Cas_conc.World.Incompatible_globals n)
  | Ok genv ->
    let mem = Genv.init_memory genv in
    if not (Memory.closed mem) then Error Cas_conc.World.Not_closed
    else
      let n = List.length entries in
      let flists = Flist.partition ~globals:(Genv.block_count genv) n in
      let resolve entry =
        List.find_map
          (fun p -> Asm.init_core ~genv p ~entry ~args:[])
          modules
      in
      let rec build tid entries flists acc =
        match (entries, flists) with
        | [], _ -> Ok acc
        | e :: es, fl :: fls -> (
          match resolve e with
          | None -> Error (Cas_conc.World.Unresolved_entry e)
          | Some core ->
            build (tid + 1) es fls
              (IMap.add tid
                 {
                   tid;
                   flist = fl;
                   stack = [ core ];
                   buf = [];
                   fhashes = [ core_hash core ];
                 }
                 acc))
        | _ -> assert false
      in
      (match build 1 entries flists IMap.empty with
      | Error e -> Error e
      | Ok threads -> Ok { threads; cur = 1; mem; genv; modules })

let thread_done t = t.stack = [] && t.buf = []

let live_tids w =
  IMap.fold
    (fun tid t acc -> if t.stack = [] then acc else tid :: acc)
    w.threads []
  |> List.rev

let all_done w = IMap.for_all (fun _ t -> thread_done t) w.threads

(** Fingerprint without the scheduler choice [cur]: the state key of the
    thread-selection view explored by the DPOR engines ([mc_system]). *)
let fingerprint_nocur w =
  let buf = Buffer.create 256 in
  IMap.iter
    (fun tid t ->
      Buffer.add_string buf (string_of_int tid);
      Buffer.add_char buf ':';
      List.iter
        (fun c ->
          Buffer.add_string buf (Asm.fingerprint_core c);
          Buffer.add_char buf '/')
        t.stack;
      Buffer.add_char buf '[';
      List.iter
        (fun (a, v) ->
          Buffer.add_string buf (Addr.to_string a);
          Buffer.add_char buf '=';
          Buffer.add_string buf (Value.to_string v);
          Buffer.add_char buf ',')
        t.buf;
      Buffer.add_char buf ']')
    w.threads;
  Buffer.add_string buf (Memory.fingerprint w.mem);
  Buffer.contents buf

let fingerprint w = string_of_int w.cur ^ fingerprint_nocur w

(** Cheap fixed-width state keys in the fingerprints' equivalence classes
    (cf. [Cas_conc.World.key]): memoized frame hashes, the store buffers,
    and the memory's incremental hash. [Fpmode.paranoid] makes [key_nocur]
    and [key] fall back to the collision-free strings; [hkey_nocur], the
    witness digest, ignores it. *)
let key_stream w =
  let st = Hashx.create () in
  IMap.iter
    (fun tid t ->
      Hashx.int st tid;
      List.iter
        (fun (h1, h2) ->
          Hashx.int st h1;
          Hashx.int st h2)
        t.fhashes;
      Hashx.char st '[';
      List.iter
        (fun ((a : Addr.t), v) ->
          Hashx.int st a.Addr.block;
          Hashx.int st a.Addr.ofs;
          Hashx.int st (Value.hash v))
        t.buf;
      Hashx.char st ']')
    w.threads;
  let mh1, mh2 = Memory.hash w.mem in
  Hashx.int st mh1;
  Hashx.int st mh2;
  st

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
(* TSO-visible memory                                                  *)
(* ------------------------------------------------------------------ *)

(** Read through the thread's own store buffer (youngest entry wins),
    falling back to memory. *)
let read_buffered (buf : buffer) mem ~perm a =
  let rec newest = function
    | [] -> None
    | (a', v) :: rest -> (
      match newest rest with
      | Some v -> Some v
      | None -> if Addr.equal a a' then Some v else None)
  in
  match newest buf with
  | Some v -> Ok v
  | None -> Memory.load ~perm mem a

(* ------------------------------------------------------------------ *)
(* Steps                                                               *)
(* ------------------------------------------------------------------ *)

type succ = world Cas_conc.Explore.gsucc

let set_thread w t = { w with threads = IMap.add t.tid t w.threads }

let set_top w t core =
  match (t.stack, t.fhashes) with
  | [], _ | _, [] -> invalid_arg "Tso.set_top"
  | _ :: rest, _ :: hrest ->
    set_thread w
      { t with stack = core :: rest; fhashes = core_hash core :: hrest }

let pop_frame w (t : thread) (v : Value.t) : world option =
  match t.stack with
  | [] -> None
  | _ :: [] -> Some (set_thread w { t with stack = []; fhashes = [] })
  | _ :: caller :: rest -> (
    match Asm.after_external caller (Some v) with
    | None -> None
    | Some caller' ->
      let hrest =
        match t.fhashes with _ :: _ :: hs -> hs | _ -> assert false
      in
      Some
        (set_thread w
           {
             t with
             stack = caller' :: rest;
             fhashes = core_hash caller' :: hrest;
           }))

let resolve_call w f args =
  List.find_map (fun p -> Asm.init_core ~genv:w.genv p ~entry:f ~args) w.modules

(** One instruction of thread [tid] under TSO, with the footprint of the
    step. Buffered stores carry the write footprint of their address even
    though memory is only touched at drain time: ordering the buffering
    against other threads' accesses over-approximates dependence, which
    is the sound direction for the DPOR engines (loads through the own
    buffer likewise keep their read footprint). *)
let local_trans (w : world) (tid : int) : world Cas_mc.Mcsys.trans list =
  let abort =
    {
      Cas_mc.Mcsys.tid;
      label = Cas_mc.Mcsys.Ltau;
      fp = Footprint.empty;
      target = Cas_mc.Mcsys.Abort;
    }
  in
  let next ?(fp = Footprint.empty) ?(label = Cas_mc.Mcsys.Ltau) w' =
    { Cas_mc.Mcsys.tid; label; fp; target = Cas_mc.Mcsys.Next w' }
  in
  match IMap.find_opt tid w.threads with
  | None -> []
  | Some t -> (
    match t.stack with
    | [] -> []
    | (c : Asm.core) :: _ ->
      if c.Asm.waiting <> None then []
      else if c.Asm.need_frame then
        (* frame allocation: direct, private *)
        (match Asm.step t.flist c w.mem with
        | [ Lang.Next (Msg.Tau, fp, c', m') ] ->
          [ next ~fp (set_top { w with mem = m' } t c') ]
        | _ -> [ abort ])
      else if c.Asm.pc < 0 || c.Asm.pc >= Array.length c.Asm.code then
        [ abort ]
      else
        let perm = Asm.data_perm c in
        let advance ?(regs = c.Asm.regs) ?(flags = c.Asm.flags) () =
          { c with Asm.pc = c.Asm.pc + 1; regs; flags }
        in
        let i = c.Asm.code.(c.Asm.pc) in
        match i with
        | Asm.Pstore (d, ofs, s) -> (
          (* buffered store; permission checked eagerly *)
          match Asm.addr_plus (Asm.reg_val c d) ofs with
          | Some a -> (
            match Memory.load ~perm w.mem a with
            | Error (Memory.Unmapped _) -> [ abort ]
            | Error (Memory.Out_of_bounds _) -> [ abort ]
            | Error (Memory.Perm_mismatch _) -> [ abort ]
            | Ok _ ->
              let t' = { t with buf = t.buf @ [ (a, Asm.reg_val c s) ] } in
              [
                next ~fp:(Footprint.write1 a)
                  (set_top (set_thread w t') t' (advance ()));
              ])
          | None -> [ abort ])
        | Asm.Pload (d, s, ofs) -> (
          match Asm.addr_plus (Asm.reg_val c s) ofs with
          | Some a -> (
            match read_buffered t.buf w.mem ~perm a with
            | Ok v ->
              [
                next ~fp:(Footprint.read1 a)
                  (set_top w t (advance ~regs:(Mreg.Map.add d v c.Asm.regs) ()));
              ]
            | Error _ -> [ abort ])
          | None -> [ abort ])
        | Asm.Plock_cmpxchg (ra, rs) -> (
          (* locked instruction: fence semantics — buffer must be empty *)
          if t.buf <> [] then []
          else
            match Asm.reg_val c ra with
            | Value.Vptr a -> (
              match Memory.load ~perm w.mem a with
              | Error _ -> [ abort ]
              | Ok old ->
                let fp =
                  Footprint.union (Footprint.read1 a) (Footprint.write1 a)
                in
                let ax = Asm.reg_val c Mreg.AX in
                let flags = Some (ax, old) in
                if Value.equal ax old then (
                  match Memory.store ~perm w.mem a (Asm.reg_val c rs) with
                  | Ok m' ->
                    [ next ~fp (set_top { w with mem = m' } t (advance ~flags ())) ]
                  | Error _ -> [ abort ])
                else
                  [
                    next ~fp
                      (set_top w t
                         (advance ~flags
                            ~regs:(Mreg.Map.add Mreg.AX old c.Asm.regs)
                            ()));
                  ])
            | _ -> [ abort ])
        | Asm.Pmfence ->
          if t.buf <> [] then [] else [ next (set_top w t (advance ())) ]
        | _ -> (
          (* all other instructions do not touch shared memory: delegate
             to the SC interpreter *)
          match Asm.step t.flist c w.mem with
          | [] | [ Lang.Stuck_abort ] -> [ abort ]
          | [ Lang.Next (msg, fp, c', m') ] -> (
            let w = { w with mem = m' } in
            match msg with
            | Msg.Tau -> [ next ~fp (set_top w t c') ]
            | Msg.EntAtom | Msg.ExtAtom ->
              (* only lock-prefixed instructions generate these under the
                 SC interpreter; they are handled above *)
              [ abort ]
            | Msg.Evt e ->
              [ next ~fp ~label:(Cas_mc.Mcsys.Levt e) (set_top w t c') ]
            | Msg.Ret v -> (
              let w' = set_top w t c' in
              let t' = IMap.find tid w'.threads in
              match pop_frame w' t' v with
              | Some w'' -> [ next ~fp w'' ]
              | None -> [ abort ])
            | Msg.Call ("print", [ Value.Vint n ]) -> (
              match Asm.after_external c' None with
              | Some c'' ->
                [
                  next ~fp
                    ~label:(Cas_mc.Mcsys.Levt (Event.Print n))
                    (set_top w t c'');
                ]
              | None -> [ abort ])
            | Msg.TailCall ("print", [ Value.Vint n ]) -> (
              let w' = set_top w t c' in
              let t' = IMap.find tid w'.threads in
              match pop_frame w' t' (Value.Vint 0) with
              | Some w'' ->
                [ next ~fp ~label:(Cas_mc.Mcsys.Levt (Event.Print n)) w'' ]
              | None -> [ abort ])
            | Msg.Call (f, args) -> (
              match resolve_call w f args with
              | Some callee ->
                let w' = set_top w t c' in
                let t' = IMap.find tid w'.threads in
                [
                  next ~fp
                    (set_thread w'
                       {
                         t' with
                         stack = callee :: t'.stack;
                         fhashes = core_hash callee :: t'.fhashes;
                       });
                ]
              | None -> [ abort ])
            | Msg.TailCall (f, args) -> (
              match resolve_call w f args with
              | Some callee ->
                let rest = match t.stack with [] -> [] | _ :: r -> r in
                let hrest =
                  match t.fhashes with [] -> [] | _ :: r -> r
                in
                [
                  next ~fp
                    (set_thread w
                       {
                         t with
                         stack = callee :: rest;
                         fhashes = core_hash callee :: hrest;
                       });
                ]
              | None -> [ abort ]))
          | _ -> [ abort ]))

(** The footprint-erased view of [local_trans], for the historical
    successor-function interface. *)
let local_steps (w : world) (tid : int) : succ list =
  List.map
    (fun (tr : world Cas_mc.Mcsys.trans) ->
      match tr.Cas_mc.Mcsys.target with
      | Cas_mc.Mcsys.Abort -> Cas_conc.Explore.GAbort
      | Cas_mc.Mcsys.Next w' ->
        let g =
          match tr.Cas_mc.Mcsys.label with
          | Cas_mc.Mcsys.Levt e -> Cas_conc.World.Gevt e
          | Cas_mc.Mcsys.Ltau | Cas_mc.Mcsys.Lsw -> Cas_conc.World.Gtau
        in
        Cas_conc.Explore.GNext (g, w'))
    (local_trans w tid)

(** Store-buffer length of thread [tid] (0 for unknown threads). *)
let buffer_len (w : world) (tid : int) : int =
  match IMap.find_opt tid w.threads with
  | None -> 0
  | Some t -> List.length t.buf

(** Did the step [w] → [w'] attributed to [tid] drain that thread's
    buffer? [unbuffer] is the only transition that shrinks a buffer
    (instruction steps only append or leave it alone), so a strictly
    shorter buffer identifies flush steps — [Cas_diag] uses this to mark
    flush points on captured TSO schedules. *)
let is_drain (w : world) (w' : world) (tid : int) : bool =
  buffer_len w' tid < buffer_len w tid

(** Commit the oldest buffered write of thread [tid] to memory. *)
let unbuffer (w : world) (tid : int) : world option =
  match IMap.find_opt tid w.threads with
  | None | Some { buf = []; _ } -> None
  | Some ({ buf = (a, v) :: rest; _ } as t) -> (
    match Memory.perm_of_block w.mem a.Addr.block with
    | None -> None
    | Some perm -> (
      match Memory.store ~perm w.mem a v with
      | Ok m' -> Some (set_thread { w with mem = m' } { t with buf = rest })
      | Error _ -> None))

(** The full TSO transition relation: current-thread instruction steps,
    nondeterministic buffer drains of every thread, and free preemption. *)
let steps (w : world) : succ list =
  let local = local_steps w w.cur in
  let drains =
    IMap.fold
      (fun tid _ acc ->
        match unbuffer w tid with
        | Some w' -> Cas_conc.Explore.GNext (Cas_conc.World.Gtau, w') :: acc
        | None -> acc)
      w.threads []
  in
  let switches =
    live_tids w
    |> List.filter (fun t -> t <> w.cur)
    |> List.map (fun t ->
           Cas_conc.Explore.GNext (Cas_conc.World.Gsw, { w with cur = t }))
  in
  local @ drains @ switches

let system : world Cas_conc.Explore.system =
  { fingerprint = key; all_done; steps }

(** The TSO machine as a footprint-instrumented selection system for the
    DPOR engines: a transition is "thread [t] executes one instruction"
    or "thread [t]'s oldest buffered write drains" (drains belong to the
    buffer's owner and carry the write footprint of the drained address,
    so cross-thread flushes order correctly against loads and stores).
    Explicit switch transitions disappear; [cur] is cosmetic and excluded
    from the state key. *)
let mc_system : world Cas_mc.Mcsys.t =
  {
    Cas_mc.Mcsys.fingerprint = key_nocur;
    all_done;
    trans =
      (fun w ->
        let locals =
          List.concat_map
            (fun tid ->
              List.map
                (fun (tr : world Cas_mc.Mcsys.trans) ->
                  match tr.Cas_mc.Mcsys.target with
                  | Cas_mc.Mcsys.Next w' ->
                    { tr with Cas_mc.Mcsys.target = Cas_mc.Mcsys.Next { w' with cur = tid } }
                  | Cas_mc.Mcsys.Abort -> tr)
                (local_trans w tid))
            (live_tids w)
        in
        let drains =
          IMap.fold
            (fun tid (t : thread) acc ->
              match t.buf with
              | [] -> acc
              | (a, _) :: _ -> (
                match unbuffer w tid with
                | Some w' ->
                  {
                    Cas_mc.Mcsys.tid;
                    label = Cas_mc.Mcsys.Ltau;
                    fp = Footprint.write1 a;
                    target = Cas_mc.Mcsys.Next w';
                  }
                  :: acc
                | None -> acc))
            w.threads []
        in
        locals @ drains);
  }

let initials (w : world) : world list =
  match live_tids w with
  | [] -> [ w ]
  | ts -> List.map (fun t -> { w with cur = t }) ts

(** Trace enumeration with a selectable engine. [Naive] (the default)
    enumerates the historical scheduler-explicit graph; the DPOR engines
    reduce the selection view, which preserves completed traces and abort
    reachability but may cut cycles at different points (so [SCut]
    entries are only comparable between engines on the same view). *)
let mc_traces ?(engine = Cas_mc.Engine.Naive) ?jobs ?max_steps ?max_paths
    ?recorder (w : world) : Cas_conc.Explore.trace_result * Cas_mc.Stats.t =
  match engine with
  | Cas_mc.Engine.Naive ->
    Cas_mc.Engine.traces ?max_steps ?max_paths ?recorder
      (Cas_conc.Explore.to_mc system)
      (initials w)
  | Cas_mc.Engine.Dpor | Cas_mc.Engine.Dpor_par ->
    Cas_mc.Engine.traces ~engine ?jobs ?max_steps ?max_paths ?recorder
      mc_system [ w ]

let traces ?engine ?jobs ?max_steps ?max_paths (w : world) :
    Cas_conc.Explore.trace_result =
  fst (mc_traces ?engine ?jobs ?max_steps ?max_paths w)

(** Engine-selected reachability over the TSO machine. *)
let explore ?(engine = Cas_mc.Engine.Naive) ?jobs ?max_worlds ?recorder
    (w : world) ~(visit : world -> unit) : Cas_mc.Stats.t =
  match engine with
  | Cas_mc.Engine.Naive ->
    Cas_mc.Engine.reachable ?jobs ?max_worlds ?recorder
      (Cas_conc.Explore.to_mc system)
      (initials w) ~visit
  | Cas_mc.Engine.Dpor | Cas_mc.Engine.Dpor_par ->
    Cas_mc.Engine.reachable ~engine ?jobs ?max_worlds ?recorder mc_system
      [ w ] ~visit
