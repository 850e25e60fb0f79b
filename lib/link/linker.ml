(** The certified linker: loads `.cao` object files, resolves symbols,
    and composes the per-module certificates into a whole-program
    certificate by empirically checking the premises of the paper's
    linking lemma (Lem. 6) on the linked program
    ([Cascompcert.Framework.compose_certificates]).

    Relinking is incremental: each module's link-time simulation verdict
    is memoized in the certificate cache under a key derived from the
    object's content digests, so an unchanged object re-certifies with
    zero checker steps — across processes too, when a cache directory is
    set ([Cas_compiler.Cache.set_default_dir]). The whole-program
    confinement and boundary checks are memoized the same way
    ([Framework.link_checks_key]). [jobs > 1] fans the
    per-module checks out over OCaml 5 domains. *)

open Cas_base
open Cas_langs

type stats = {
  l_objects : int;
  l_verdicts : int;  (** module-entry simulation verdicts consulted *)
  l_cached : int;  (** of which were certificate-cache hits *)
  l_checker_steps : int;  (** checker steps actually executed *)
  l_wall_ns : float;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "%d object%s, %d verdict%s (%d cached), %d checker steps, %.2f ms"
    s.l_objects
    (if s.l_objects = 1 then "" else "s")
    s.l_verdicts
    (if s.l_verdicts = 1 then "" else "s")
    s.l_cached s.l_checker_steps (s.l_wall_ns /. 1e6)

type outcome = {
  lk_image : Image.t;
  lk_compose : Cascompcert.Framework.compose_report option;
      (** present when the link was certified *)
  lk_stats : stats;
}

type error =
  | Load_error of string * string  (** file, message *)
  | Resolve_errors of Resolve.error list
  | Source_error of string * string
      (** module, error re-parsing its recorded source *)
  | Certify_failed of Cascompcert.Framework.compose_report

let pp_error ppf = function
  | Load_error (file, msg) -> Fmt.pf ppf "%s: %s" file msg
  | Resolve_errors es ->
    Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Resolve.pp_error) es
  | Source_error (m, msg) -> Fmt.pf ppf "%s: %s" m msg
  | Certify_failed r ->
    Fmt.pf ppf
      "@[<v>certificate composition failed:@ %a@]"
      Cascompcert.Framework.pp_compose r

(** Digest of the composed certificate: commits to every module's body
    digest and certificate chain plus the entry points — the content
    address of "these exact certified objects, linked". *)
let compose_digest ~(entries : string list) (objs : Objfile.t list) : string =
  Cas_compiler.Cache.digest
    ( "cai-cert",
      Version.v,
      entries,
      List.map
        (fun (o : Objfile.t) ->
          (o.o_name, o.o_body_digest, o.o_cert.Cert.chain))
        objs )

(** Link already-loaded (and integrity-verified) objects. [label] names
    objects in resolver errors (defaults to the module name; [link_files]
    passes the on-disk file name). *)
let link ?bounds ?max_switches ?tau_bound ?(jobs = 1) ?(certify = false)
    ?label ~(entries : string list) (objs : Objfile.t list) :
    (outcome, error) result =
  let t0 = Unix.gettimeofday () in
  match Resolve.resolve ~entries ?label objs with
  | Error es -> Error (Resolve_errors es)
  | Ok res -> (
    let objs = res.Resolve.r_objects in
    let modules_of_image () =
      List.map
        (fun (o : Objfile.t) ->
          {
            Image.lm_name = o.o_name;
            lm_obj_digest = o.o_body_digest;
            lm_asm = o.o_asm;
          })
        objs
    in
    let finish ?compose ~certified ~cert_digest () =
      let img =
        Image.make ~entries ~modules:(modules_of_image ()) ~certified
          ~cert_digest
      in
      let l_verdicts, l_cached, l_checker_steps =
        match compose with
        | None -> (0, 0, 0)
        | Some (r : Cascompcert.Framework.compose_report) ->
          List.fold_left
            (fun (n, c, s) (m : Cascompcert.Framework.compose_module_report)
               ->
              (n + 1, (c + if m.cm_cached then 1 else 0), s + m.cm_steps))
            (0, 0, 0) r.comp_modules
      in
      Ok
        {
          lk_image = img;
          lk_compose = compose;
          lk_stats =
            {
              l_objects = List.length objs;
              l_verdicts;
              l_cached;
              l_checker_steps;
              l_wall_ns = (Unix.gettimeofday () -. t0) *. 1e9;
            };
        }
    in
    if not certify then finish ~certified:false ~cert_digest:"" ()
    else
      (* re-parse each object's recorded source: the src side of the
         link-time module-local simulations *)
      let rec sources acc = function
        | [] -> Ok (List.rev acc)
        | (o : Objfile.t) :: rest -> (
          match Parse.clight o.o_source with
          | exception Parse.Error (msg, _) ->
            Error
              (Source_error
                 (o.o_name, Fmt.str "recorded source no longer parses: %s" msg))
          | p ->
            sources
              ((o.o_name, Lang.Mod (Clight.lang, p), Lang.Mod (Asm.lang, o.o_asm))
              :: acc)
              rest)
      in
      match sources [] objs with
      | Error e -> Error e
      | Ok modules ->
        (* Key each verdict by the *function body digests* of the entry
           on both sides of the link-time simulation, plus both sides'
           global declarations. Content addressing makes stale-verdict
           collisions impossible by construction: two same-named objects
           with disjoint exports digest their entries to different keys
           (an absent function digests to the bare language prefix), and
           editing one function of an object invalidates exactly that
           function's verdict — relinking revalidates only it. *)
        let mod_at = Array.of_list modules in
        let verdict_key ~mod_index ~mod_name:_ ~entry =
          if mod_index < 0 || mod_index >= Array.length mod_at then None
          else
            let _, src_mod, tgt_mod = mod_at.(mod_index) in
            let (Lang.Mod (sl, sc)) = src_mod in
            let (Lang.Mod (tl, tc)) = tgt_mod in
            Some
              (Cas_compiler.Cache.digest
                 ( "link-verdict",
                   Version.v,
                   Lang.digest_fundef src_mod entry,
                   Lang.digest_fundef tgt_mod entry,
                   (sl.Lang.globals_of sc, tl.Lang.globals_of tc),
                   max_switches,
                   tau_bound ))
        in
        let compose =
          Cascompcert.Framework.compose_certificates ?bounds ?max_switches
            ?tau_bound ~jobs ~verdict_key ~modules ~entries ()
        in
        if not compose.Cascompcert.Framework.comp_ok then
          Error (Certify_failed compose)
        else
          finish ~compose ~certified:true
            ~cert_digest:(compose_digest ~entries objs) ())

(** Load, verify and link object files from disk. *)
let link_files ?bounds ?max_switches ?tau_bound ?jobs ?certify ~entries
    (files : string list) : (outcome, error) result =
  let rec load acc = function
    | [] -> Ok (List.rev acc)
    | file :: rest -> (
      match Objfile.load ~file with
      | Error msg -> Error (Load_error (file, msg))
      | Ok o -> load (o :: acc) rest)
  in
  match load [] files with
  | Error e -> Error e
  | Ok objs ->
    (* attribute resolver errors to file names: two files may well carry
       the same module name, and "defined by both g and g" helps nobody *)
    let labels = List.combine objs files in
    let label o =
      match List.assq_opt o labels with Some f -> f | None -> o.Objfile.o_name
    in
    link ?bounds ?max_switches ?tau_bound ?jobs ?certify ~label ~entries objs
