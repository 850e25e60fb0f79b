(** The benchmark's own seeded input generator.

    Everything the workloads run is generated here, as source text in the
    surface syntax [Cas_langs.Parse] accepts, from nothing but the seed.
    The generator depends on no library of the repository (not the
    fuzzer's generator, not [Cas_base.Rng]), so a change to the fuzzer
    cannot silently change what the benchmark measures.

    Three kinds of input:
    - concurrent programs for [check], [check-par] and [witness]: mini-C
      (optionally linked with γ_lock) and CImp, 1–3 threads, shared
      globals, bounded loops;
    - single Clight modules for [build];
    - multi-module projects plus one-function edits for [edit].

    Each input is drawn from two streams. The {e shape} stream depends on
    the input's index alone: thread count, language, synchronisation
    discipline, statement kinds, loop bounds and call graph. The
    {e fill} stream depends on the seed too: expressions, constants,
    operators and which global a statement touches. Two seeds therefore
    give different programs over the
    same skeletons, so the cost of a run depends on the seed only through
    what the skeletons leave open. *)

(* ------------------------------------------------------------------ *)
(* SplitMix64                                                          *)
(* ------------------------------------------------------------------ *)

module Rng = struct
  type t = { mutable s : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let mix z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let next64 t =
    t.s <- Int64.add t.s golden;
    mix t.s

  (** An independent stream for sub-input [i] of kind [stream]: it is a
      function of [(seed, stream, i)] alone, whatever was drawn before. *)
  let derive seed ~stream i =
    {
      s =
        mix
          (Int64.logxor (mix (Int64.of_int seed)) (mix (Int64.of_int ((stream * 1_000_003) + i))));
    }

  let int t bound = Int64.to_int (Int64.unsigned_rem (next64 t) (Int64.of_int bound))
  let bool t = int t 2 = 0
  let choose t a = a.(int t (Array.length a))
end

(** The seed of every shape stream: shapes do not depend on [--seed]. *)
let shape_seed = 0x5eed

type src = {
  shape : Rng.t;
  fill : Rng.t;
}

let streams ~seed ~stream i =
  { shape = Rng.derive shape_seed ~stream i; fill = Rng.derive seed ~stream i }

(* ------------------------------------------------------------------ *)
(* Concurrent programs                                                 *)
(* ------------------------------------------------------------------ *)

type lang = Minic | Cimp

type prog = {
  p_lang : lang;
  p_threads : int;
  p_sync : bool;
      (** every shared access sits in a lock section (mini-C, with γ_lock
          linked) or an atomic block (CImp) *)
  p_source : string;
  p_entries : string list;  (** [t1 .. tn], in tid order *)
  p_with_lock : bool;  (** link γ_lock when loading *)
}

let binops = [| "+"; "-"; "*"; "&"; "|"; "^"; "=="; "!="; "<" |]

(* integer expression of depth at most [depth] over [atoms] *)
let rec expr rng ~depth atoms =
  if depth = 0 || Rng.int rng 3 = 0 then
    if Rng.bool rng then Rng.choose rng atoms else string_of_int (Rng.int rng 8)
  else
    Printf.sprintf "(%s %s %s)"
      (expr rng ~depth:(depth - 1) atoms)
      (Rng.choose rng binops)
      (expr rng ~depth:(depth - 1) atoms)

(* The statement kinds of a thread body, from the shape stream. Loops and
   conditionals are never nested, so every program terminates after a
   handful of steps per thread and the state space stays bounded. *)
type simple = Local | Write | Read | Print
type stmt = Simple of simple | If of simple * simple | Loop of int * simple | Rmw

let simple_kind shape =
  match Rng.int shape 5 with 0 -> Local | 1 | 2 -> Write | 3 -> Read | _ -> Print

let skeleton shape ~fuel ~rmw =
  (* every thread touches shared memory at least once *)
  Simple Write
  :: List.init (fuel - 1) (fun _ ->
         match Rng.int shape 6 with
         | 0 ->
           let a = simple_kind shape in
           If (a, simple_kind shape)
         | 1 ->
           let b = 1 + Rng.int shape 2 in
           Loop (b, simple_kind shape)
         | 2 when rmw -> Rmw
         | _ -> Simple (simple_kind shape))

let is_shared = function Write | Read -> true | Local | Print -> false

let minic_thread { shape; fill } buf ~globals ~sync ~fuel =
  let add fmt = Printf.bprintf buf fmt in
  let atoms = [| "r"; "i" |] in
  let simple indent k =
    let s =
      match k with
      | Local -> Printf.sprintf "r = %s;" (expr fill ~depth:2 atoms)
      | Write -> Printf.sprintf "%s = %s;" (Rng.choose fill globals) (expr fill ~depth:1 atoms)
      | Read -> Printf.sprintf "r = (r + %s);" (Rng.choose fill globals)
      | Print -> Printf.sprintf "print(%s);" (expr fill ~depth:1 atoms)
    in
    if sync && is_shared k then add "%slock();\n%s%s\n%sunlock();\n" indent indent s indent
    else add "%s%s\n" indent s
  in
  List.iter
    (function
      | Simple k -> simple "  " k
      | If (a, b) ->
        add "  if (%s) {\n" (expr fill ~depth:1 atoms);
        simple "    " a;
        add "  } else {\n";
        simple "    " b;
        add "  }\n"
      | Loop (bound, k) ->
        add "  i = 0;\n  while (i < %d) {\n" bound;
        simple "    " k;
        add "    i = (i + 1);\n  }\n"
      | Rmw -> simple "  " Write)
    (skeleton shape ~fuel ~rmw:false)

let cimp_thread { shape; fill } buf ~globals ~sync ~fuel =
  let add fmt = Printf.bprintf buf fmt in
  let atoms = [| "r"; "s"; "i" |] in
  let simple indent k =
    let s =
      match k with
      | Local -> Printf.sprintf "r := %s;" (expr fill ~depth:2 atoms)
      | Write -> Printf.sprintf "[%s] := %s;" (Rng.choose fill globals) (expr fill ~depth:1 atoms)
      | Read -> Printf.sprintf "s := [%s];" (Rng.choose fill globals)
      | Print -> Printf.sprintf "print(%s);" (expr fill ~depth:1 atoms)
    in
    (* print is an external call: never inside an atomic block *)
    if sync && is_shared k then add "%satomic { %s }\n" indent s else add "%s%s\n" indent s
  in
  List.iter
    (function
      | Simple k -> simple "  " k
      | If (a, b) ->
        add "  if (%s) {\n" (expr fill ~depth:1 atoms);
        simple "    " a;
        add "  } else {\n";
        simple "    " b;
        add "  }\n"
      | Loop (bound, k) ->
        add "  i := 0;\n  while (i < %d) {\n" bound;
        simple "    " k;
        add "    i := (i + 1);\n  }\n"
      | Rmw ->
        (* a read-modify-write section even in unsynchronised programs *)
        let g = Rng.choose fill globals in
        add "  atomic { s := [%s]; [%s] := (s + %d); }\n" g g (1 + Rng.int fill 3))
    (skeleton shape ~fuel ~rmw:(not sync))

(** The [i]th concurrent program for [seed]. Shape by index: threads
    cycle 1, 2, 3; every third triple is CImp; every third block of nine
    is synchronised. The statement budget per thread shrinks as threads
    are added, so that the largest programs' interleavings stay within a
    small multiple of the median. *)
let program ~seed i : prog =
  let src = streams ~seed ~stream:1 i in
  let threads = 1 + (i mod 3) in
  let lang = if (i / 3) mod 3 = 2 then Cimp else Minic in
  let sync = (i / 9) mod 3 = 2 in
  let fuel = [| 4; 3; 2 |].(threads - 1) in
  let buf = Buffer.create 512 in
  let entries = List.init threads (fun k -> Printf.sprintf "t%d" (k + 1)) in
  (match lang with
  | Minic ->
    let globals = [| "g0"; "g1" |] in
    Array.iter (fun g -> Printf.bprintf buf "int %s = 0;\n" g) globals;
    List.iter
      (fun t ->
        Printf.bprintf buf "\nvoid %s() {\n  int r;\n  int i;\n  r = 0;\n  i = 0;\n" t;
        minic_thread src buf ~globals ~sync ~fuel;
        Buffer.add_string buf "}\n")
      entries
  | Cimp ->
    let globals = [| "x0"; "x1" |] in
    Array.iter (fun g -> Printf.bprintf buf "object int %s = 0;\n" g) globals;
    List.iter
      (fun t ->
        Printf.bprintf buf "\nvoid %s() {\n  r := 0;\n  s := 0;\n  i := 0;\n" t;
        cimp_thread src buf ~globals ~sync ~fuel;
        Buffer.add_string buf "  return;\n}\n")
      entries);
  {
    p_lang = lang;
    p_threads = threads;
    p_sync = sync;
    p_source = Buffer.contents buf;
    p_entries = entries;
    p_with_lock = lang = Minic && sync;
  }

(* ------------------------------------------------------------------ *)
(* Sequential Clight modules                                           *)
(* ------------------------------------------------------------------ *)

(** A function as generated: rendered from its parts so that an edit can
    re-render one function with a statement added. *)
type func = {
  f_name : string;
  f_params : string list;
  f_body : string list;  (** statements, one per line, before the return *)
  f_ret : string;  (** returned expression *)
  f_leaf : bool;  (** calls no other function *)
}

type modu = {
  m_name : string;
  m_globals : string list;
  m_funcs : func list;
}

let render_func buf (f : func) =
  Printf.bprintf buf "int %s(%s) {\n  int x;\n  int y;\n  int k;\n  x = 0;\n  y = 0;\n  k = 0;\n"
    f.f_name
    (String.concat ", " (List.map (fun p -> "int " ^ p) f.f_params));
  List.iter (fun s -> Printf.bprintf buf "  %s\n" s) f.f_body;
  Printf.bprintf buf "  return %s;\n}\n" f.f_ret

let render (m : modu) : string =
  let buf = Buffer.create 1024 in
  List.iter (fun g -> Printf.bprintf buf "int %s = 0;\n" g) m.m_globals;
  List.iter
    (fun f ->
      Buffer.add_char buf '\n';
      render_func buf f)
    m.m_funcs;
  Buffer.contents buf

(* A function body over its parameters and the locals [x], [y]: straight
   line code, at most one loop, conditionals, calls to [callees] and
   reads/writes of [globals]. Only the loop writes its counter [k], so
   every loop runs exactly its bound whatever the values. *)
let gen_func { shape; fill } ~name ~arity ~(callees : (string * int) list) ~globals : func =
  let params = List.init arity (fun k -> Printf.sprintf "a%d" k) in
  let atoms = Array.of_list ("x" :: "y" :: params) in
  let body = ref [] in
  let add s = body := s :: !body in
  let looped = ref false and called = ref false in
  for _ = 1 to 2 + Rng.int shape 4 do
    match Rng.int shape 7 with
    | 0 | 1 -> add (Printf.sprintf "x = %s;" (expr fill ~depth:2 atoms))
    | 2 -> add (Printf.sprintf "y = %s;" (expr fill ~depth:2 atoms))
    | 3 when callees <> [] ->
      let f, ar = List.nth callees (Rng.int shape (List.length callees)) in
      let args = List.init ar (fun _ -> expr fill ~depth:1 atoms) in
      called := true;
      add (Printf.sprintf "y = %s(%s);" f (String.concat ", " args))
    | 4 when globals <> [||] ->
      let g = Rng.choose fill globals in
      if Rng.bool shape then add (Printf.sprintf "%s = %s;" g (expr fill ~depth:1 atoms))
      else add (Printf.sprintf "x = (x + %s);" g)
    | 5 when not !looped ->
      looped := true;
      let bound = 1 + Rng.int shape 3 in
      add (Printf.sprintf "k = 0; while (k < %d) { x = %s; k = (k + 1); }" bound (expr fill ~depth:1 atoms))
    | _ ->
      add
        (Printf.sprintf "if (%s) { x = %s; } else { y = %s; }" (expr fill ~depth:1 atoms)
           (expr fill ~depth:1 atoms) (expr fill ~depth:1 atoms))
  done;
  {
    f_name = name;
    f_params = params;
    f_body = List.rev !body;
    f_ret = expr fill ~depth:1 atoms;
    f_leaf = not !called;
  }

let leaves (m : modu) =
  List.filter_map (fun f -> if f.f_leaf then Some (f.f_name, List.length f.f_params) else None) m.m_funcs

(* [nfuncs] functions named [prefix ^ "f" ^ k]; each may call the leaf
   functions before it and [externs] (leaves of other modules), so call
   chains are at most two deep. *)
let gen_module src ~name ~prefix ~nfuncs ~externs : modu =
  let globals = [| prefix ^ "g" |] in
  let rec go k acc callees =
    if k = nfuncs then List.rev acc
    else
      let arity = 1 + Rng.int src.shape 2 in
      let f = gen_func src ~name:(Printf.sprintf "%sf%d" prefix k) ~arity ~callees ~globals in
      go (k + 1) (f :: acc) (if f.f_leaf then (f.f_name, arity) :: callees else callees)
  in
  { m_name = name; m_globals = Array.to_list globals; m_funcs = go 0 [] externs }

(** The [i]th module of the [build] workload: 2–4 functions. *)
let build_module ~seed i : modu =
  gen_module (streams ~seed ~stream:2 i) ~name:(Printf.sprintf "u%d" i) ~prefix:""
    ~nfuncs:(2 + (i mod 3)) ~externs:[]

(* ------------------------------------------------------------------ *)
(* Projects and one-function edits                                     *)
(* ------------------------------------------------------------------ *)

type project = {
  pj_modules : modu list;  (** [main] first, then the library modules *)
  pj_entries : string list;  (** the thread entry points, in [main] *)
}

(** A project: [nlib] library modules of 2–3 functions each, where
    module [k] may call module [k-1]'s leaf functions, and a [main]
    module with two nullary thread entries. Both update a shared counter
    and print; only [t1] calls into the libraries, so the linked
    program's interleavings stay a small multiple of [t1]'s length. *)
let project ~seed ~nlib i : project =
  let src = streams ~seed ~stream:3 i in
  let rec libs k acc externs =
    if k = nlib then List.rev acc
    else
      let m =
        gen_module src ~name:(Printf.sprintf "lib%d" k) ~prefix:(Printf.sprintf "l%d_" k)
          ~nfuncs:(2 + Rng.int src.shape 2) ~externs
      in
      libs (k + 1) (m :: acc) (leaves m)
  in
  let libs = libs 0 [] [] in
  let lib_funcs =
    Array.of_list
      (List.concat_map (fun m -> List.map (fun f -> (f.f_name, List.length f.f_params)) m.m_funcs) libs)
  in
  let f, ar = Rng.choose src.shape lib_funcs in
  let args = List.init ar (fun _ -> string_of_int (Rng.int src.fill 5)) in
  let thread name calls =
    {
      f_name = name;
      f_params = [];
      f_body = calls @ [ "y = shared;"; "shared = (y + 1);"; "print(y);" ];
      f_ret = "0";
      f_leaf = calls = [];
    }
  in
  let main =
    {
      m_name = "main";
      m_globals = [ "shared" ];
      m_funcs =
        [ thread "t1" [ Printf.sprintf "x = %s(%s);" f (String.concat ", " args) ]; thread "t2" [] ];
    }
  in
  { pj_modules = main :: libs; pj_entries = [ "t1"; "t2" ] }

type edit = {
  e_module : int;  (** index into [pj_modules] *)
  e_func : string;
  e_source : string;  (** the edited module's new source *)
}

(** The edit of operation [op]: one statement added to one library
    function. Which function is a matter of shape; the statement is
    drawn from the fill stream. The added constant is unique to the
    operation, so the edited body is new on every operation and its
    certificate can never come from the cache. *)
let edit ~seed (pj : project) op : edit =
  let { shape; fill } = streams ~seed ~stream:4 op in
  let nmods = List.length pj.pj_modules in
  let k = 1 + Rng.int shape (nmods - 1) in
  let m = List.nth pj.pj_modules k in
  let j = Rng.int shape (List.length m.m_funcs) in
  let fresh = 1000 + op in
  let stmt =
    match Rng.int fill 3 with
    | 0 -> Printf.sprintf "x = (x + %d);" fresh
    | 1 -> Printf.sprintf "y = (y ^ %d);" fresh
    | _ -> Printf.sprintf "x = ((x * 3) - %d);" fresh
  in
  let funcs =
    List.mapi (fun idx f -> if idx = j then { f with f_body = f.f_body @ [ stmt ] } else f) m.m_funcs
  in
  { e_module = k; e_func = (List.nth funcs j).f_name; e_source = render { m with m_funcs = funcs } }

(* ------------------------------------------------------------------ *)
(* Digest                                                              *)
(* ------------------------------------------------------------------ *)

(** MD5 over the generated texts, in order: the benchmark prints it so
    two runs can be compared at a glance, and the self-test checks that
    one seed always gives byte-identical inputs. *)
let digest (texts : string list) : string = Digest.to_hex (Digest.string (String.concat "\000" texts))
