(** Schedule recorder: predecessor links threaded through the
    exploration engines so that, once a verdict is reached at some world,
    the schedule that produced it can be reconstructed.

    The recorder maps each world's state key (the system's [fingerprint]
    field: a 16-byte [Hashx] key, or the canonical string under
    [--paranoid-fp]) to the key of the world it was first reached *from*,
    together with the transition
    (thread id, label, footprint) that was executed — a spanning tree of
    the explored graph rooted at the initial worlds. Only the first edge
    to a world is kept ([record] is first-writer-wins), and an edge is
    only accepted when its parent is already in the tree, so parent
    chains are well-founded by construction and [path] always
    terminates.

    All operations take the internal lock, so a single recorder can be
    shared by the parallel engines; under [dpor-par] the *tree shape*
    then depends on task interleaving (whichever domain reaches a world
    first wins), but every recorded path is a real schedule of the
    semantics — [Cas_diag.Replay] re-validates it step by step, and
    verdict selection is made deterministic separately
    ([Cas_conc.Race.witness_key]). *)

open Cas_base

type step = { r_tid : int; r_label : Mcsys.label; r_fp : Footprint.t }

type entry = Root | Edge of string * step

type t = { tbl : (string, entry) Hashtbl.t; lock : Mutex.t }

let create () = { tbl = Hashtbl.create 1024; lock = Mutex.create () }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(** Declare the world keyed [key] an initial world (a root of the
    spanning tree). *)
let root t key =
  with_lock t (fun () ->
      if not (Hashtbl.mem t.tbl key) then Hashtbl.add t.tbl key Root)

(** Record that [child] was reached from [parent] by [step]. Ignored when
    [child] already has an edge (first wins) or [parent] is unknown (the
    edge would not connect to a root). *)
let record t ~parent (step : step) ~child =
  with_lock t (fun () ->
      if Hashtbl.mem t.tbl parent && not (Hashtbl.mem t.tbl child) then
        Hashtbl.add t.tbl child (Edge (parent, step)))

(** The recorded schedule from a root to [target]: the executed steps in
    order, each paired with the key of the world it *reaches*. [None] if
    [target] was never recorded. *)
let path t ~target : (step * string) list option =
  with_lock t (fun () ->
      let rec go key acc =
        match Hashtbl.find_opt t.tbl key with
        | None -> None
        | Some Root -> Some acc
        | Some (Edge (parent, s)) -> go parent ((s, key) :: acc)
      in
      go target [])

(** Number of recorded worlds (roots included). *)
let size t = with_lock t (fun () -> Hashtbl.length t.tbl)
