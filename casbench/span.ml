(** Monotonic clock and in-memory span recording.

    A span records its name, start, end, parent span and operation id.
    Spans are appended to an in-memory buffer while the traced run is
    going and written out once, at the end. With recording off, [with_]
    is a single branch around the call. *)

let now_ns () : int64 = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

type t = {
  id : int;
  name : string;
  op : int;  (** operation id: spans of one operation share it *)
  parent : int;  (** id of the enclosing span, -1 for an operation root *)
  t0 : int64;
  t1 : int64;
}

let on = ref false
let spans : t list ref = ref []
let next_id = ref 0
let cur_op = ref (-1)
let stack : int list ref = ref []

let reset () =
  spans := [];
  next_id := 0;
  stack := []

(** Run [f] inside span [name] of the current operation. *)
let with_ name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      stack := List.tl !stack;
      spans := { id; name; op = !cur_op; parent; t0; t1 } :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(** Per operation: its root span and the layer spans directly below it. *)
let by_op () : (t * t list) list =
  let roots = Hashtbl.create 256 and kids = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent < 0 then Hashtbl.replace roots s.id s
      else Hashtbl.replace kids s.parent (s :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    !spans;
  Hashtbl.fold (fun id r acc -> (r, Option.value ~default:[] (Hashtbl.find_opt kids id)) :: acc) roots []
  |> List.sort (fun (a, _) (b, _) -> compare a.op b.op)

(** Length of the union of [children]'s intervals, clipped to [root]. *)
let covered_ns (root : t) (children : t list) : int64 =
  let iv =
    List.map (fun c -> (max c.t0 root.t0, min c.t1 root.t1)) children
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, max cb b))
        | Some (ca, cb) -> (Int64.add acc (Int64.sub cb ca), Some (a, b)))
      (0L, None) iv
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

(** Self time of every span name, in ms summed over all operations: a
    span's duration minus the part of it its own children cover. *)
let self_ms () : (string, float) Hashtbl.t =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent (s :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    !spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = Int64.sub s.t1 s.t0 in
      let cov = covered_ns s (Option.value ~default:[] (Hashtbl.find_opt kids s.id)) in
      let ms = Int64.to_float (Int64.sub own cov) /. 1e6 in
      Hashtbl.replace acc s.name (ms +. Option.value ~default:0. (Hashtbl.find_opt acc s.name)))
    !spans;
  acc

(** The spans as Chrome trace-event JSON ([X] slices, microseconds). *)
let to_chrome_json () : string =
  let base = List.fold_left (fun m s -> min m s.t0) Int64.max_int !spans in
  let us t = Int64.to_float (Int64.sub t base) /. 1e3 in
  let ev s =
    Printf.sprintf
      "{\"name\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
      s.name (us s.t0)
      (Int64.to_float (Int64.sub s.t1 s.t0) /. 1e3)
      s.id s.parent s.op
  in
  "{\"traceEvents\":[\n" ^ String.concat ",\n" (List.rev_map ev !spans) ^ "\n]}\n"
