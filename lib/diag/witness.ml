(** Counterexample witnesses: the serializable artifact every negative
    verdict produces (ISSUE 3 tentpole). A witness is self-contained — it
    embeds the mini-C source text and load parameters next to the
    schedule, so [casc replay W.json] needs nothing but the file — and
    versioned: the header carries [Cas_base.Version.v] plus a format
    number, so stale artifacts are detectable rather than misread.

    Each schedule step records the scheduled thread, the observable event
    (if any), the step footprint, whether it was a TSO buffer flush, and
    [s_dst]: the digest of the *target* world, the hex of its
    scheduler-independent 16-byte [Hashx] key ([Sem.sc_digest],
    [Sem.tso_digest]). The digests make replay deterministic — when a
    thread has several enabled transitions, the recorded target digest
    selects the one the capture actually took (see [Replay]). They do not
    depend on [--paranoid-fp].

    Format history: format 1 digested the canonical fingerprint string
    (MD5); format 2 digests the [Hashx] key. A format-1 witness cannot be
    replayed strictly by this version and is rejected with a request to
    re-capture it. *)

open Cas_base

type step = {
  s_tid : int;
  s_event : Event.t option;
  s_reads : Addr.t list;
  s_writes : Addr.t list;
  s_flush : bool;  (** a TSO store-buffer drain of [s_tid]'s buffer *)
  s_dst : string;  (** digest of the target world; "" = any *)
}

type verdict =
  | Vrace of int * int  (** racy world reached; the two predicted tids *)
  | Vabort  (** an abort transition is reachable along the schedule *)
  | Vrefine of Event.t list
      (** the schedule realizes this completed event trace, which the
          reference side of a refinement check cannot produce *)

type semantics = Sc | Tso

type t = {
  version : string;  (** [Cas_base.Version.v] at capture time *)
  format : int;  (** witness format number, see [format_version] *)
  program : string;  (** mini-C source text, embedded *)
  entries : string list;
  with_lock : bool;  (** link the CImp lock object when reloading *)
  prog_hash : string;  (** MD5 of [program] *)
  semantics : semantics;
  engine : string;
  seed : int;
  verdict : verdict;
  steps : step list;
}

let format_version = 2

let hash_program src = Digest.to_hex (Digest.string src)

let make ~program ~entries ~with_lock ~semantics ~engine ~seed ~verdict steps
    =
  {
    version = Version.v;
    format = format_version;
    program;
    entries;
    with_lock;
    prog_hash = hash_program program;
    semantics;
    engine;
    seed;
    verdict;
    steps;
  }

(** Number of context switches in the schedule: adjacent steps executed
    by different threads (flushes count as steps of the buffer's owner). *)
let switches (w : t) : int =
  match w.steps with
  | [] -> 0
  | s0 :: rest ->
    fst
      (List.fold_left
         (fun (n, prev) s ->
           ((if s.s_tid = prev then n else n + 1), s.s_tid))
         (0, s0.s_tid) rest)

(** Events emitted along the schedule, in order. *)
let events (w : t) : Event.t list =
  List.filter_map (fun s -> s.s_event) w.steps

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let addr_to_json (a : Addr.t) = Json.Str (Addr.to_string a)

let addr_of_json j =
  let s = Json.to_str_exn j in
  match String.index_opt s '.' with
  | None -> Json.decode_fail "bad address %S" s
  | Some i -> (
    match
      ( int_of_string_opt (String.sub s 0 i),
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
    with
    | Some b, Some o -> Addr.make b o
    | _ -> Json.decode_fail "bad address %S" s)

let event_to_json = function
  | Event.Print n -> Json.Obj [ ("print", Json.Int n) ]
  | Event.Out s -> Json.Obj [ ("out", Json.Str s) ]

let event_of_json j =
  match (Json.member_opt "print" j, Json.member_opt "out" j) with
  | Some n, _ -> Event.Print (Json.to_int_exn n)
  | _, Some s -> Event.Out (Json.to_str_exn s)
  | None, None -> Json.decode_fail "bad event"

let step_to_json (s : step) =
  Json.Obj
    (List.concat
       [
         [ ("tid", Json.Int s.s_tid) ];
         (match s.s_event with
         | None -> []
         | Some e -> [ ("event", event_to_json e) ]);
         (if s.s_reads = [] then []
          else [ ("reads", Json.List (List.map addr_to_json s.s_reads)) ]);
         (if s.s_writes = [] then []
          else [ ("writes", Json.List (List.map addr_to_json s.s_writes)) ]);
         (if s.s_flush then [ ("flush", Json.Bool true) ] else []);
         (if s.s_dst = "" then [] else [ ("dst", Json.Str s.s_dst) ]);
       ])

let step_of_json j =
  {
    s_tid = Json.to_int_exn (Json.member "tid" j);
    s_event = Option.map event_of_json (Json.member_opt "event" j);
    s_reads =
      (match Json.member_opt "reads" j with
      | None -> []
      | Some l -> List.map addr_of_json (Json.to_list_exn l));
    s_writes =
      (match Json.member_opt "writes" j with
      | None -> []
      | Some l -> List.map addr_of_json (Json.to_list_exn l));
    s_flush =
      (match Json.member_opt "flush" j with
      | Some b -> Json.to_bool_exn b
      | None -> false);
    s_dst =
      (match Json.member_opt "dst" j with
      | Some s -> Json.to_str_exn s
      | None -> "");
  }

let verdict_to_json = function
  | Vrace (t1, t2) ->
    Json.Obj
      [
        ("kind", Json.Str "race"); ("tid1", Json.Int t1); ("tid2", Json.Int t2);
      ]
  | Vabort -> Json.Obj [ ("kind", Json.Str "abort") ]
  | Vrefine es ->
    Json.Obj
      [
        ("kind", Json.Str "refine");
        ("trace", Json.List (List.map event_to_json es));
      ]

let verdict_of_json j =
  match Json.to_str_exn (Json.member "kind" j) with
  | "race" ->
    Vrace
      ( Json.to_int_exn (Json.member "tid1" j),
        Json.to_int_exn (Json.member "tid2" j) )
  | "abort" -> Vabort
  | "refine" ->
    Vrefine (List.map event_of_json (Json.to_list_exn (Json.member "trace" j)))
  | k -> Json.decode_fail "unknown verdict kind %S" k

let semantics_to_string = function Sc -> "sc" | Tso -> "tso"

let semantics_of_string = function
  | "sc" -> Sc
  | "tso" -> Tso
  | s -> Json.decode_fail "unknown semantics %S" s

let to_json (w : t) : Json.t =
  Json.Obj
    [
      ("version", Json.Str w.version);
      ("format", Json.Int w.format);
      ("program", Json.Str w.program);
      ("entries", Json.List (List.map (fun e -> Json.Str e) w.entries));
      ("with_lock", Json.Bool w.with_lock);
      ("prog_hash", Json.Str w.prog_hash);
      ("semantics", Json.Str (semantics_to_string w.semantics));
      ("engine", Json.Str w.engine);
      ("seed", Json.Int w.seed);
      ("verdict", verdict_to_json w.verdict);
      ("steps", Json.List (List.map step_to_json w.steps));
    ]

let of_json (j : Json.t) : (t, string) result =
  Json.decode
    (fun j ->
      let format = Json.to_int_exn (Json.member "format" j) in
      if format <> format_version then
        Json.decode_fail
          "unsupported witness format %d (expected format %d): re-capture \
           the witness with this version"
          format format_version;
      {
        version = Json.to_str_exn (Json.member "version" j);
        format;
        program = Json.to_str_exn (Json.member "program" j);
        entries =
          List.map Json.to_str_exn (Json.to_list_exn (Json.member "entries" j));
        with_lock = Json.to_bool_exn (Json.member "with_lock" j);
        prog_hash = Json.to_str_exn (Json.member "prog_hash" j);
        semantics = semantics_of_string (Json.to_str_exn (Json.member "semantics" j));
        engine = Json.to_str_exn (Json.member "engine" j);
        seed = Json.to_int_exn (Json.member "seed" j);
        verdict = verdict_of_json (Json.member "verdict" j);
        steps = List.map step_of_json (Json.to_list_exn (Json.member "steps" j));
      })
    j

let to_string (w : t) : string = Json.to_string (to_json w)

let of_string (s : string) : (t, string) result =
  match Json.parse s with Error e -> Error e | Ok j -> of_json j

let save (w : t) ~(file : string) : unit =
  let oc = open_out_bin file in
  output_string oc (to_string w);
  output_char oc '\n';
  close_out oc

let load ~(file : string) : (t, string) result =
  match
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | s -> of_string s

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_verdict ppf = function
  | Vrace (t1, t2) -> Fmt.pf ppf "race between T%d and T%d" t1 t2
  | Vabort -> Fmt.pf ppf "abort reachable"
  | Vrefine es ->
    Fmt.pf ppf "unrefined trace [%a]" Fmt.(list ~sep:comma Event.pp) es

let pp ppf (w : t) =
  Fmt.pf ppf "witness v%s (%s, %s engine, %d steps, %d switches): %a"
    w.version
    (semantics_to_string w.semantics)
    w.engine (List.length w.steps) (switches w) pp_verdict w.verdict
