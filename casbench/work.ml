(** The five workloads. Each drives one user command through the public
    library calls that command makes, with a span around every call into
    a layer (the libraries under [lib/]). Spans cost one branch when the
    run is untraced.

    An operation returns its per-layer counts and a reference check. The
    caller times the operation and runs the check afterwards, outside the
    timed region. *)

open Cas_base
open Cas_langs
open Cas_conc
module Cache = Cas_compiler.Cache
module Driver = Cas_compiler.Driver
module Framework = Cascompcert.Framework
module Objfile = Cas_link.Objfile
module Linker = Cas_link.Linker
module Cert = Cas_link.Cert

type result = {
  r_failed : string option;
      (** the operation itself failed: an exception, a truncated search or
          a refused certificate *)
  r_counts : (string * float) list;
      (** exact per-layer counts of this operation (summed over the run) *)
  r_worlds : int option;  (** explored worlds, for the input report *)
  r_racy : bool option;
  r_verify : unit -> string option;
      (** the reference check: [Some why] when the output is wrong *)
}

let ok_result ?worlds ?racy ?(counts = []) verify =
  { r_failed = None; r_counts = counts; r_worlds = worlds; r_racy = racy; r_verify = verify }

type t = {
  name : string;
  per_second : int;
      (** operations per requested second. The list of work is
          [seconds * per_second] operations, fixed before the run starts:
          the input mix never depends on how fast the program is. *)
  setup : unit -> unit;  (** (re)build the inputs; timed *)
  prepare : int -> unit;  (** untimed, just before operation [i] *)
  op : int -> result;
  deferred_checks : bool;
      (** run the reference checks after the whole list, not right after
          each operation: they explore far more than the operation does,
          and the peak RSS measured over the operations must not include
          them *)
  props : unit -> (string * float) list;  (** input properties *)
}

let span = Span.with_

(* ------------------------------------------------------------------ *)
(* Concurrent programs: check, check-par, witness                      *)
(* ------------------------------------------------------------------ *)

(** Distinct programs per run. Every operation runs one of them; a run
    cycles through the list, so the reference checks (which cost far more
    than the operations) run once per distinct program. *)
let n_programs = 540

let parse_prog (g : Gen.prog) : Lang.prog =
  span "langs.parse" (fun () ->
      match g.Gen.p_lang with
      | Gen.Minic ->
        let client = Lang.Mod (Clight.lang, Parse.clight g.Gen.p_source) in
        let mods =
          if g.Gen.p_with_lock then [ client; Lang.Mod (Cimp.lang, Cimp.gamma_lock ()) ]
          else [ client ]
        in
        Lang.prog mods g.Gen.p_entries
      | Gen.Cimp -> Lang.prog [ Lang.Mod (Cimp.lang, Parse.cimp g.Gen.p_source) ] g.Gen.p_entries)

let load (g : Gen.prog) : World.t =
  let p = parse_prog g in
  span "conc.load" (fun () ->
      match World.load p ~args:[] with
      | Ok w -> w
      | Error e -> failwith (Fmt.str "load: %a" World.pp_load_error e))

let mc_counts (st : Cas_mc.Stats.t option) =
  match st with
  | None -> []
  | Some st ->
    [
      ("mc.worlds", float st.Cas_mc.Stats.worlds);
      ("mc.transitions", float st.Cas_mc.Stats.transitions);
      ("mc.store_hits", float st.Cas_mc.Stats.store_hits);
      ("mc.backtracks", float st.Cas_mc.Stats.backtracks);
      ("mc.steals", float st.Cas_mc.Stats.steals);
    ]

let truncated (r : Race.drf_report) = r.Race.stats.Explore.truncated
let worlds_of (r : Race.drf_report) = r.Race.stats.Explore.visited

(* What a check needs of a verdict. Deferred checks hold on to this and
   nothing else, so the heap does not grow with the list of work. *)
type verdict = { drf : bool; worlds : int; complete : bool }

let summary (r : Race.drf_report) =
  { drf = r.Race.drf; worlds = worlds_of r; complete = not (truncated r) }

(** World budget of the naive reference engine. Past it the reference is
    one-sided: a race naive found must be reported, nothing else is
    checked. *)
let naive_budget = 2_000

let programs = ref [||]

(* Reference verdicts, computed once per distinct program, the first
   time a check needs them. *)
let ref_dpor = ref [||]
let ref_naive = ref [||]

let setup_programs ~seed () =
  programs := Array.init n_programs (Gen.program ~seed);
  (* parse and load every program once: the inputs are valid before any
     operation is timed *)
  Array.iter (fun g -> ignore (load g)) !programs;
  ref_dpor := Array.make n_programs None;
  ref_naive := Array.make n_programs None

let reference tbl ?max_worlds engine p =
  match !tbl.(p) with
  | Some v -> v
  | None ->
    let v = summary (Race.drf ?max_worlds ~engine (load !programs.(p))) in
    !tbl.(p) <- Some v;
    v

let by_dpor = reference ref_dpor Cas_mc.Engine.Dpor
let by_naive = reference ref_naive ~max_worlds:naive_budget Cas_mc.Engine.Naive

let naive_complete_frac () =
  let known = List.filter_map Fun.id (Array.to_list !ref_naive) in
  match known with
  | [] -> 0.
  | _ -> float (List.length (List.filter (fun v -> v.complete) known)) /. float (List.length known)

let say b = if b then "DRF" else "racy"
let truncated_result = { (ok_result (fun () -> None)) with r_failed = Some "search truncated" }

let drf_op ~engine ?jobs ~(verify : int -> verdict -> string option) i =
  let p = i mod n_programs in
  let w0 = load !programs.(p) in
  let r = span "conc.drf" (fun () -> Race.drf ~engine ?jobs w0) in
  if truncated r then truncated_result
  else
    let v = summary r in
    ok_result ~worlds:v.worlds ~racy:(not v.drf) ~counts:(mc_counts r.Race.engine_stats) (fun () ->
        verify p v)

let program_props () =
  let progs = !programs in
  let n = float (Array.length progs) in
  let share f = float (Array.fold_left (fun c g -> if f g then c + 1 else c) 0 progs) /. n in
  [
    ("input.threads_1_frac", share (fun g -> g.Gen.p_threads = 1));
    ("input.threads_2_frac", share (fun g -> g.Gen.p_threads = 2));
    ("input.threads_3_frac", share (fun g -> g.Gen.p_threads = 3));
    ("input.cimp_frac", share (fun g -> g.Gen.p_lang = Gen.Cimp));
    ("input.sync_frac", share (fun g -> g.Gen.p_sync));
  ]

let check ~seed =
  {
    name = "check";
    per_second = 165;
    setup = setup_programs ~seed;
    prepare = (fun _ -> ());
    deferred_checks = true;
    op =
      drf_op ~engine:Cas_mc.Engine.Dpor ~verify:(fun p v ->
          let n = by_naive p in
          if n.complete && n.drf <> v.drf then
            Some (Fmt.str "dpor says %s, naive says %s" (say v.drf) (say n.drf))
          else if (not n.drf) && v.drf then Some "naive found a race within its budget, dpor says DRF"
          else None);
    props = (fun () -> program_props () @ [ ("input.naive_complete_frac", naive_complete_frac ()) ]);
  }

let check_par ~seed =
  {
    name = "check-par";
    per_second = 220;
    setup = setup_programs ~seed;
    prepare = (fun _ -> ());
    deferred_checks = true;
    op =
      drf_op ~engine:Cas_mc.Engine.Dpor_par ~jobs:2 ~verify:(fun p v ->
          let d = by_dpor p in
          if d.drf <> v.drf then Some (Fmt.str "dpor-par says %s, dpor says %s" (say v.drf) (say d.drf))
          else if v.drf && v.worlds <> d.worlds then
            Some (Fmt.str "dpor-par explored %d worlds, dpor %d" v.worlds d.worlds)
          else None);
    props = program_props;
  }

let witness ~seed =
  let op i =
    let p = i mod n_programs in
    let g = !programs.(p) in
    let w0 = load g in
    let rc = span "diag.capture" (fun () -> Cas_diag.Capture.race ~engine:Cas_mc.Engine.Dpor w0) in
    let r = rc.Cas_diag.Capture.rc_report in
    let json =
      Option.map
        (fun v ->
          span "diag.witness_json" (fun () ->
              Cas_diag.Witness.to_string
                (Cas_diag.Witness.make ~program:g.Gen.p_source ~entries:g.Gen.p_entries
                   ~with_lock:g.Gen.p_with_lock ~semantics:Cas_diag.Witness.Sc ~engine:"dpor" ~seed:0
                   ~verdict:v rc.Cas_diag.Capture.rc_steps)))
        rc.Cas_diag.Capture.rc_verdict
    in
    if truncated r then truncated_result
    else
      let v = summary r in
      ok_result ~worlds:v.worlds ~racy:(not v.drf)
        ~counts:
          (("diag.witness_steps", float (List.length rc.Cas_diag.Capture.rc_steps))
          :: mc_counts r.Race.engine_stats)
        (fun () ->
          let d = by_dpor p in
          if d.drf <> v.drf then Some (Fmt.str "capture says %s, dpor says %s" (say v.drf) (say d.drf))
          else
            match json with
            | None when not v.drf -> Some "racy verdict without a witness"
            | None -> None
            | Some json -> (
              match Cas_diag.Witness.of_string json with
              | Error e -> Some ("witness JSON does not read back: " ^ e)
              | Ok w ->
                let o = Cas_diag.Replay.run (Cas_diag.Sem.of_world (load g)) w in
                if o.Cas_diag.Replay.ok then None
                else Some ("witness does not replay strictly: " ^ o.Cas_diag.Replay.detail)))
  in
  {
    name = "witness";
    per_second = 75;
    setup = setup_programs ~seed;
    prepare = (fun _ -> ());
    deferred_checks = true;
    op;
    props = program_props;
  }

(* ------------------------------------------------------------------ *)
(* Certified objects: build and edit                                   *)
(* ------------------------------------------------------------------ *)

(** Stage pairs the certifier checks per function: every pass, plus the
    whole compiler end to end. *)
let stage_pairs () = List.length Driver.pass_names + 1

let cache_totals () =
  List.fold_left
    (fun (h, m) (s : Cache.stats) -> (h + s.Cache.hits, m + s.Cache.misses))
    (0, 0) (Cache.global_stats ())

let verdict_stats () = Cache.stats Framework.verdicts

(** [casc build]: [Objfile.build] untraced; traced, the same public calls
    it makes with the same arguments, each in the span of its layer. The
    checker steps are counted only when traced (-1 otherwise). *)
let build_object ~name ~source : (Objfile.t, string) Stdlib.result * int =
  if not !Span.on then (Objfile.build ~name ~source (), -1)
  else
    let options = Driver.default_options in
    let p = span "langs.parse" (fun () -> Parse.clight source) in
    let c = span "compiler.compile" (fun () -> Driver.compile_unit ~options ~cache:true p) in
    let reports = span "core.certify" (fun () -> Framework.check_passes ~cache:true ~options p) in
    span "link.object" (fun () ->
        let o =
          {
            Objfile.o_name = name;
            o_version = Version.v;
            o_format = Objfile.format_version;
            o_source = source;
            o_options = options;
            o_context = c.Driver.c_context;
            o_asm = c.Driver.c_asm;
            o_exports = Objfile.exports_of_asm c.Driver.c_asm;
            o_imports = Objfile.imports_of_asm c.Driver.c_asm;
            o_cert = { Cert.verdicts = []; chain = "" };
            o_body_digest = "";
          }
        in
        let o = { o with Objfile.o_body_digest = Objfile.body_digest_of o } in
        let cert = Cert.of_reports ~seed:(Objfile.cert_seed o) reports in
        let steps =
          List.fold_left (fun s (r : Framework.pass_sim_report) -> s + r.Framework.checker_steps) 0 reports
        in
        if Cert.ok cert then (Ok { o with Objfile.o_cert = cert }, steps)
        else (Error (name ^ ": failing verdicts"), steps))

(* The object [Objfile.build] makes must be the one the traced
   decomposition makes: same body, same certificate chain. Checked on the
   first operations of a traced run. *)
let same_object name source (body_digest, chain) =
  let saved = !Span.on in
  Span.on := false;
  let r = Objfile.build ~name ~source () in
  Span.on := saved;
  match r with
  | Error e -> Some ("Objfile.build failed: " ^ e)
  | Ok o ->
    if o.Objfile.o_body_digest <> body_digest || o.Objfile.o_cert.Cert.chain <> chain then
      Some "traced build differs from Objfile.build"
    else None

let build ~seed =
  let mods = ref [||] in
  let n_modules = 400 in
  let op i =
    let m = !mods.(i mod n_modules) in
    let name = m.Gen.m_name and source = Gen.render m in
    match build_object ~name ~source with
    | Error e, _ -> { (ok_result (fun () -> None)) with r_failed = Some e }
    | Ok o, steps ->
      let counts = if steps >= 0 then [ ("core.checker_steps", float steps) ] else [] in
      (* only the verdict triples outlive the operation *)
      let verdicts =
        List.map (fun (e : Cert.entry) -> (e.Cert.e_pass, e.Cert.e_entry, e.Cert.e_tag)) o.Objfile.o_cert.Cert.verdicts
      in
      let digests =
        if !Span.on && i < 3 then Some (o.Objfile.o_body_digest, o.Objfile.o_cert.Cert.chain) else None
      in
      ok_result ~counts (fun () ->
          let nf = List.length m.Gen.m_funcs in
          if List.exists (fun (_, _, tag) -> tag = "fail") verdicts then Some "certificate not ok"
          else if List.length verdicts <> stage_pairs () * nf then
            Some (Fmt.str "%d verdicts for %d functions x %d stage pairs" (List.length verdicts) nf (stage_pairs ()))
          else if
            List.exists
              (fun (f : Gen.func) ->
                List.exists
                  (fun pass ->
                    List.length (List.filter (fun (p, e, _) -> p = pass && e = f.Gen.f_name) verdicts) <> 1)
                  ("Compiler" :: Driver.pass_names))
              m.Gen.m_funcs
          then Some "not exactly one verdict per pass and function"
          else Option.bind digests (same_object name source))
  in
  {
    name = "build";
    per_second = 260;
    setup =
      (fun () ->
        mods := Array.init n_modules (Gen.build_module ~seed);
        Array.iter (fun m -> ignore (Parse.clight (Gen.render m))) !mods);
    (* a cold cache for every build: nothing carries over *)
    prepare = (fun _ -> Cache.clear_memory ());
    deferred_checks = false;
    op;
    props =
      (fun () ->
        let fs = Array.map (fun m -> float (List.length m.Gen.m_funcs)) !mods in
        [ ("input.functions_per_module", Array.fold_left ( +. ) 0. fs /. float n_modules) ]);
  }

(** Prebuilt projects per run; operation [i] edits project [i mod n]. *)
let n_projects = 16

(** Library modules per project, besides [main]. *)
let n_libs = 2

let edit ~seed =
  let projects = ref [||] in
  let op i =
    let pj, objs = !projects.(i mod n_projects) in
    let e = Gen.edit ~seed pj i in
    let name = (List.nth pj.Gen.pj_modules e.Gen.e_module).Gen.m_name in
    let v0 = verdict_stats () in
    match build_object ~name ~source:e.Gen.e_source with
    | Error err, _ -> { (ok_result (fun () -> None)) with r_failed = Some err }
    | Ok o, steps -> (
      let v1 = verdict_stats () in
      let all = List.mapi (fun k o' -> if k = e.Gen.e_module then o else o') objs in
      match span "link.link" (fun () -> Linker.link ~certify:true ~entries:pj.Gen.pj_entries all) with
      | Error err ->
        { (ok_result (fun () -> None)) with r_failed = Some (Fmt.str "%a" Linker.pp_error err) }
      | Ok lk ->
        let s = lk.Linker.lk_stats in
        let counts =
          [
            ("link.verdicts", float s.Linker.l_verdicts);
            ("link.cached", float s.Linker.l_cached);
            ("link.checker_steps", float s.Linker.l_checker_steps);
          ]
          @ if steps >= 0 then [ ("core.checker_steps", float steps) ] else []
        in
        let certified = lk.Linker.lk_image.Cas_link.Image.i_certified in
        let modules =
          Option.map
            (fun (r : Framework.compose_report) ->
              List.map
                (fun (cm : Framework.compose_module_report) ->
                  (cm.Framework.cm_module, cm.Framework.cm_entry, cm.Framework.cm_cached, cm.Framework.cm_steps))
                r.Framework.comp_modules)
            lk.Linker.lk_compose
        in
        ok_result ~counts (fun () ->
            let m = List.nth pj.Gen.pj_modules e.Gen.e_module in
            let untouched = List.length m.Gen.m_funcs - 1 in
            let hits = v1.Cache.hits - v0.Cache.hits in
            if not certified then Some "image not certified"
            else if hits < untouched * stage_pairs () then
              Some
                (Fmt.str "certify: %d verdict hits, %d untouched functions need %d" hits untouched
                   (untouched * stage_pairs ()))
            else
              match modules with
              | None -> Some "certified link without a composition report"
              | Some ms ->
                List.find_map
                  (fun (md, entry, cached, steps) ->
                    let edited = md = name && entry = e.Gen.e_func in
                    if edited && cached then Some (Fmt.str "edited %s served from the cache" entry)
                    else if (not edited) && steps <> 0 then
                      Some (Fmt.str "untouched %s.%s took %d checker steps" md entry steps)
                    else None)
                  ms))
  in
  (* The developer's starting point: every module of the project built
     and the project linked once, so the cache holds exactly that
     project's certificates. *)
  let prebuild pj =
    Cache.clear_memory ();
    let built =
      List.map
        (fun (m : Gen.modu) ->
          match Objfile.build ~name:m.Gen.m_name ~source:(Gen.render m) () with
          | Ok o -> o
          | Error e -> failwith e)
        pj.Gen.pj_modules
    in
    match Linker.link ~certify:true ~entries:pj.Gen.pj_entries built with
    | Ok _ -> built
    | Error e -> failwith (Fmt.str "%a" Linker.pp_error e)
  in
  {
    name = "edit";
    per_second = 30;
    setup =
      (fun () ->
        projects :=
          Array.init n_projects (fun k ->
              let pj = Gen.project ~seed ~nlib:n_libs k in
              (pj, prebuild pj)));
    (* back to the prebuilt state before every edit: a casc process
       starts from the project's cache, not from the previous edits' *)
    prepare = (fun i -> ignore (prebuild (fst !projects.(i mod n_projects))));
    deferred_checks = false;
    op;
    props =
      (fun () ->
        let pjs = Array.map fst !projects in
        let n = float (Array.length pjs) in
        let mean f = Array.fold_left (fun a pj -> a +. f pj) 0. pjs /. n in
        let nfuncs pj = float (List.fold_left (fun a m -> a + List.length m.Gen.m_funcs) 0 pj.Gen.pj_modules) in
        [
          ("input.modules_per_project", mean (fun pj -> float (List.length pj.Gen.pj_modules)));
          ("input.functions_per_project", mean nfuncs);
          ("input.edited_frac", mean (fun pj -> 1. /. nfuncs pj));
        ]);
  }

let all = [ "build"; "edit"; "check"; "check-par"; "witness" ]

let make name ~seed =
  match name with
  | "build" -> Some (build ~seed)
  | "edit" -> Some (edit ~seed)
  | "check" -> Some (check ~seed)
  | "check-par" -> Some (check_par ~seed)
  | "witness" -> Some (witness ~seed)
  | _ -> None

