(** casbench: the end-to-end benchmark of the certified toolchain.

    {v
    casbench --workload W --seed N --seconds S --trace 0|1
    casbench --self-test
    v}

    A run does a fixed list of [S * per_second] operations, each timed
    from outside with a monotonic clock, with the heap reset before each
    one outside the timed region. Reference checks run outside the timed
    region too. The workload is set up seven times, spread over the run,
    and the median set-up time is reported. With [--trace 1] the same
    list runs once more with spans on, and the per-layer breakdown is
    reported instead of the end-to-end metrics. The last line of standard
    output is one JSON object:
    [{"correct", "attempted", "failed", "metrics"}]. *)

let setup_rounds = 7
let out_dir = Filename.concat "casbench" "out"

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(** Linear-interpolated percentile of an ascending array. *)
let percentile (a : float array) q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float lo in
    if Float.is_integer pos || a.(hi) = infinity then a.(lo) else a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 0.5

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> nan
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float kb /. 1024.)
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v

(* ------------------------------------------------------------------ *)
(* One pass over the list of work                                      *)
(* ------------------------------------------------------------------ *)

type sample = {
  ms : float;
  counts : (string * float) list;
  worlds : int option;
  racy : bool option;
  mutable failure : string option;
  mutable pending : (unit -> string option) option;  (** a deferred check *)
  minor_words : float;
  major_collections : int;
  heap_words : int;  (** major heap size when the operation ended *)
  cache_hits : int;
  cache_lookups : int;
}

let checked (check : unit -> string option) =
  try check () with e -> Some ("check raised " ^ Printexc.to_string e)

let run_op (w : Work.t) ~traced i : sample =
  w.Work.prepare i;
  (* each casc command starts in a fresh process: no heap carried over *)
  Gc.full_major ();
  let gc0 = if traced then Some (Gc.quick_stat ()) else None in
  let c0 = if traced then Work.cache_totals () else (0, 0) in
  Span.cur_op := i;
  let t0 = Span.now_ns () in
  let res =
    try if traced then Span.with_ "op" (fun () -> w.Work.op i) else w.Work.op i
    with e -> { (Work.ok_result (fun () -> None)) with Work.r_failed = Some (Printexc.to_string e) }
  in
  let t1 = Span.now_ns () in
  let minor_words, major_collections, heap_words =
    match gc0 with
    | None -> (0., 0, 0)
    | Some g0 ->
      let g1 = Gc.quick_stat () in
      ( g1.Gc.minor_words -. g0.Gc.minor_words,
        g1.Gc.major_collections - g0.Gc.major_collections,
        g1.Gc.heap_words )
  in
  let cache_hits, cache_lookups =
    if traced then
      let h0, m0 = c0 and h1, m1 = Work.cache_totals () in
      (h1 - h0, h1 - h0 + (m1 - m0))
    else (0, 0)
  in
  let failure, pending =
    match res.Work.r_failed with
    | Some why -> (Some why, None)
    | None when w.Work.deferred_checks -> (None, Some res.Work.r_verify)
    | None -> (checked res.Work.r_verify, None)
  in
  {
    ms = Span.ms_between t0 t1;
    counts = res.Work.r_counts;
    worlds = res.Work.r_worlds;
    racy = res.Work.r_racy;
    failure;
    pending;
    minor_words;
    major_collections;
    heap_words;
    cache_hits;
    cache_lookups;
  }

(** Run every operation of the list, each followed by its reference check
    unless the workload defers it ([finish] runs those). [between i] runs
    untimed before operation [i]. Returns the samples and the peak RSS of
    the operations. *)
let pass ?(between = ignore) (w : Work.t) ~traced ~n : sample array * float =
  Span.on := traced;
  let t0 = Span.now_ns () in
  let samples =
    Array.init n (fun i ->
        between i;
        run_op w ~traced i)
  in
  Span.on := false;
  let rss = peak_rss_mb () in
  Printf.printf "%s pass: operations %.2f s (%.2f s timed, peak RSS %.0f MB)\n%!"
    (if traced then "traced" else "untraced")
    (Span.ms_between t0 (Span.now_ns ()) /. 1e3)
    (Array.fold_left (fun a s -> a +. s.ms) 0. samples /. 1e3)
    rss;
  (samples, rss)

(** Run the deferred checks of a pass, after every pass: they explore far
    more than the operations, and the heap they leave would slow the
    heap resets of a later pass. Returns why each failed operation
    failed. *)
let finish (samples : sample array) : (int * string) list =
  let t0 = Span.now_ns () in
  Array.iter
    (fun s ->
      Option.iter
        (fun check ->
          s.failure <- checked check;
          s.pending <- None)
        s.pending)
    samples;
  Printf.printf "deferred checks: %.2f s\n%!" (Span.ms_between t0 (Span.now_ns ()) /. 1e3);
  List.filter_map
    (fun i -> Option.map (fun why -> (i, why)) samples.(i).failure)
    (List.init (Array.length samples) Fun.id)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(** Latencies, with a failed operation counted as never finishing. *)
let latencies samples failures =
  let a = Array.mapi (fun i s -> if List.mem_assoc i failures then infinity else s.ms) samples in
  Array.sort compare a;
  a

let total_s samples = Array.fold_left (fun a s -> a +. s.ms) 0. samples /. 1e3

let ops_per_s samples failures =
  float (Array.length samples - List.length failures) /. total_s samples

let finite x = if Float.is_finite x then x else 1e300

let end_to_end ~setup_s ~rss samples failures =
  let lat = latencies samples failures in
  let n = Array.length samples in
  [
    ("setup_s", setup_s, "s");
    ("p50_ms", percentile lat 0.5, "ms");
    ("p90_ms", percentile lat 0.9, "ms");
    ("ops_per_s", ops_per_s samples failures, "1/s");
    ("ok_frac", float (n - List.length failures) /. float n, "frac");
    ("peak_rss_mb", rss, "MB");
  ]

let sum_count samples key =
  Array.fold_left
    (fun a s -> a +. Option.value ~default:0. (List.assoc_opt key s.counts))
    0. samples

(** Input properties measured on the untraced pass. *)
let input_report (w : Work.t) samples =
  let n = Array.length samples in
  let worlds = List.filter_map (fun s -> s.worlds) (Array.to_list samples) in
  let racy = List.filter_map (fun s -> s.racy) (Array.to_list samples) in
  let sorted = Array.map (fun s -> s.ms) samples in
  Array.sort (fun a b -> compare b a) sorted;
  let top = max 1 (n / 100) in
  let top_ms = Array.fold_left ( +. ) 0. (Array.sub sorted 0 top) in
  let worlds_stats =
    match worlds with
    | [] -> []
    | _ ->
      let a = Array.of_list (List.map float worlds) in
      Array.sort compare a;
      [
        ("input.worlds_min", a.(0));
        ("input.worlds_median", percentile a 0.5);
        ("input.worlds_max", a.(Array.length a - 1));
      ]
  in
  let racy_frac =
    match racy with
    | [] -> []
    | _ ->
      [ ("input.racy_frac", float (List.length (List.filter Fun.id racy)) /. float (List.length racy)) ]
  in
  w.Work.props () @ worlds_stats @ racy_frac
  @ [ ("input.top1pct_time_frac", top_ms /. (total_s samples *. 1e3)) ]

let per_layer ~untraced ~traced ~traced_failures ~untraced_failures =
  let n = float (Array.length traced) in
  let self = Span.self_ms () in
  let self_ms name = Option.value ~default:0. (Hashtbl.find_opt self name) /. n in
  let sum f = Array.fold_left (fun a s -> a +. f s) 0. traced in
  let count key = sum_count traced key in
  let frac num den = if den > 0. then num /. den else 0. in
  let worlds = count "mc.worlds" in
  let explore_ms = (self_ms "conc.drf" +. self_ms "diag.capture") *. n in
  let covered, wall =
    List.fold_left
      (fun (c, w) ((root : Span.t), kids) ->
        (Int64.add c (Span.covered_ns root kids), Int64.add w (Int64.sub root.Span.t1 root.Span.t0)))
      (0L, 0L) (Span.by_op ())
  in
  let top_heap_words = Array.fold_left (fun m s -> max m s.heap_words) 0 traced in
  [
    ("langs.parse_ms", self_ms "langs.parse");
    ("compiler.compile_ms", self_ms "compiler.compile");
    ("compiler.cache_hit_frac", frac (sum (fun s -> float s.cache_hits)) (sum (fun s -> float s.cache_lookups)));
    ("core.certify_ms", self_ms "core.certify");
    ("core.checker_steps", count "core.checker_steps" /. n);
    ("link.object_ms", self_ms "link.object");
    ("link.link_ms", self_ms "link.link");
    ("link.cached_verdict_frac", frac (count "link.cached") (count "link.verdicts"));
    ("link.checker_steps", count "link.checker_steps" /. n);
    ("conc.load_ms", self_ms "conc.load");
    ("conc.drf_ms", self_ms "conc.drf");
    ("mc.worlds", worlds /. n);
    ("mc.transitions", count "mc.transitions" /. n);
    ("mc.store_hit_frac", frac (count "mc.store_hits") (count "mc.store_hits" +. worlds));
    ("mc.backtracks", count "mc.backtracks" /. n);
    ("mc.steals", count "mc.steals" /. n);
    ("mc.worlds_per_ms", frac worlds explore_ms);
    ("diag.capture_ms", self_ms "diag.capture");
    ("diag.witness_steps", count "diag.witness_steps" /. n);
    ("diag.witness_json_ms", self_ms "diag.witness_json");
    ("gc.minor_mwords", sum (fun s -> s.minor_words) /. n /. 1e6);
    ("gc.major_collections", sum (fun s -> float s.major_collections) /. n);
    ("gc.top_heap_mb", float (top_heap_words * (Sys.word_size / 8)) /. 1048576.);
    ("trace.bench_ms", self_ms "op");
    ("trace.coverage_frac", frac (Int64.to_float covered) (Int64.to_float wall));
    ( "trace.overhead_frac",
      1. -. (ops_per_s traced traced_failures /. ops_per_s untraced untraced_failures) );
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let num x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

(** Every metric of a traced run, with its unit. A workload that does
    not exercise a layer reports 0 for it. *)
let per_layer_metrics =
  [
    ("langs.parse_ms", "ms");
    ("compiler.compile_ms", "ms");
    ("compiler.cache_hit_frac", "frac");
    ("core.certify_ms", "ms");
    ("core.checker_steps", "count");
    ("link.object_ms", "ms");
    ("link.link_ms", "ms");
    ("link.cached_verdict_frac", "frac");
    ("link.checker_steps", "count");
    ("conc.load_ms", "ms");
    ("conc.drf_ms", "ms");
    ("mc.worlds", "count");
    ("mc.transitions", "count");
    ("mc.store_hit_frac", "frac");
    ("mc.backtracks", "count");
    ("mc.steals", "count");
    ("mc.worlds_per_ms", "1/ms");
    ("diag.capture_ms", "ms");
    ("diag.witness_steps", "count");
    ("diag.witness_json_ms", "ms");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("trace.bench_ms", "ms");
    ("trace.coverage_frac", "frac");
    ("trace.overhead_frac", "frac");
    ("input.threads_1_frac", "frac");
    ("input.threads_2_frac", "frac");
    ("input.threads_3_frac", "frac");
    ("input.cimp_frac", "frac");
    ("input.sync_frac", "frac");
    ("input.racy_frac", "frac");
    ("input.naive_complete_frac", "frac");
    ("input.worlds_min", "count");
    ("input.worlds_median", "count");
    ("input.worlds_max", "count");
    ("input.top1pct_time_frac", "frac");
    ("input.functions_per_module", "count");
    ("input.modules_per_project", "count");
    ("input.functions_per_project", "count");
    ("input.edited_frac", "frac");
  ]

let metrics_json (ms : (string * float * string) list) =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (num (finite v)) u) ms)
  ^ "}"

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_file path s =
  mkdirs (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Self-test: one seed, byte-identical inputs                          *)
(* ------------------------------------------------------------------ *)

let inputs_digest ~seed =
  let progs = List.init Work.n_programs (fun i -> (Gen.program ~seed i).Gen.p_source) in
  let mods = List.init 400 (fun i -> Gen.render (Gen.build_module ~seed i)) in
  let pjs =
    List.init Work.n_projects (fun k ->
        let pj = Gen.project ~seed ~nlib:Work.n_libs k in
        String.concat "\001" (List.map Gen.render pj.Gen.pj_modules)
        ^ String.concat "\001" (List.init 50 (fun op -> (Gen.edit ~seed pj op).Gen.e_source)))
  in
  Gen.digest (progs @ mods @ pjs)

let self_test () =
  let ok = ref true in
  List.iter
    (fun seed ->
      let a = inputs_digest ~seed and b = inputs_digest ~seed in
      (* input [i] depends on (seed, i) alone, not on generation order *)
      let rev = Gen.digest (List.rev (List.init Work.n_programs (fun i -> (Gen.program ~seed (Work.n_programs - 1 - i)).Gen.p_source))) in
      let fwd = Gen.digest (List.init Work.n_programs (fun i -> (Gen.program ~seed i).Gen.p_source)) in
      let same = a = b && rev = fwd in
      if not same then ok := false;
      Printf.printf "seed %d: inputs %s %s\n" seed a (if same then "identical" else "DIFFER"))
    [ 1; 2; 3 ];
  if inputs_digest ~seed:1 = inputs_digest ~seed:2 then begin
    ok := false;
    print_endline "seeds 1 and 2 give the same inputs"
  end;
  (* every input parses *)
  (try
     List.iter
       (fun i ->
         let g = Gen.program ~seed:1 i in
         ignore (Work.load g))
       (List.init Work.n_programs Fun.id)
   with e ->
     ok := false;
     Printf.printf "generated program does not load: %s\n" (Printexc.to_string e));
  print_endline (if !ok then "self-test passed" else "self-test FAILED");
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " Work.all);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  size of the list of work, in nominal seconds");
      ("--trace", Arg.Set_int trace, "0|1  per-layer breakdown instead of end-to-end metrics");
      ("--self-test", Arg.Set selftest, " check that one seed gives byte-identical inputs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "casbench --workload W --seed N --seconds S --trace 0|1";
  if !selftest then self_test ();
  let w =
    match Work.make !workload ~seed:!seed with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload ^ " (" ^ String.concat ", " Work.all ^ ")");
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be at least 1 and --trace 0 or 1";
    exit 2
  end;
  (* memory tier only: no cache directory, in the checkout or anywhere *)
  Cas_compiler.Cache.set_default_dir None;
  let setup_times = ref [] in
  let timed_setup () =
    Gc.full_major ();
    let t0 = Span.now_ns () in
    w.Work.setup ();
    setup_times := (Span.ms_between t0 (Span.now_ns ()) /. 1e3) :: !setup_times
  in
  timed_setup ();
  let n = !seconds * w.Work.per_second in
  Printf.printf "casbench %s: seed %d, %d operations, inputs %s\n%!" w.Work.name !seed n
    (inputs_digest ~seed:!seed);
  (* The other set-ups are spread over the list, so that their median sees
     the same phases of a shared machine as the operations do. *)
  let between i =
    if i > 0 && i mod max 1 (n / setup_rounds) = 0 && List.length !setup_times < setup_rounds then
      timed_setup ()
  in
  let untraced, rss = pass ~between w ~traced:false ~n in
  while List.length !setup_times < setup_rounds do
    timed_setup ()
  done;
  let setup_s = median !setup_times in
  let traced =
    if !trace = 1 then begin
      Span.reset ();
      Some (fst (pass w ~traced:true ~n))
    end
    else None
  in
  let u_fail = finish untraced in
  let props = input_report w untraced in
  Printf.printf "input properties:\n";
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k (num v)) props;
  let report_failures label fs =
    List.iter (fun (i, why) -> Printf.printf "FAILED %s op %d: %s\n" label i why) fs
  in
  report_failures "untraced" u_fail;
  let tag = Printf.sprintf "%s-seed%d%s" w.Work.name !seed (if !trace = 1 then "-trace" else "") in
  let metrics, failed =
    if !trace = 0 then (end_to_end ~setup_s ~rss untraced u_fail, List.length u_fail)
    else begin
      let traced = Option.get traced in
      let t_fail = finish traced in
      report_failures "traced" t_fail;
      write_file (Filename.concat out_dir (tag ^ ".trace.json")) (Span.to_chrome_json ());
      let layers =
        per_layer ~untraced ~traced ~traced_failures:t_fail ~untraced_failures:u_fail @ props
      in
      ( List.map (fun (k, u) -> (k, Option.value ~default:0. (List.assoc_opt k layers), u)) per_layer_metrics,
        (* an operation that failed in either pass *)
        List.length (List.sort_uniq compare (List.map fst u_fail @ List.map fst t_fail)) )
    end
  in
  Printf.printf "metrics:\n";
  List.iter (fun (k, v, u) -> Printf.printf "  %-28s %14s %s\n" k (num v) u) metrics;
  let json =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" (failed = 0) n failed (metrics_json metrics)
  in
  write_file (Filename.concat out_dir (tag ^ ".json"))
    (Printf.sprintf "{\"workload\": %S, \"seed\": %d, \"operations\": %d, \"input\": {%s}, \"result\": %s}\n"
       w.Work.name !seed n
       (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (num v)) props))
       json);
  print_endline json
