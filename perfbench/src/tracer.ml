(* In-memory spans around the benchmark's calls into each layer.

   A span has a name, a start and an end, the span that was open when
   it started (its parent) and the operation id shared by every span
   of one request, candidate or deploy.  Spans are kept in memory and
   written once, at the end, as trace-event JSON. *)

module J = Serve.Json

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  start : float;
  mutable stop : float;
}

type t = {
  origin : float;
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : span list;
}

let create () = { origin = Clock.now (); spans = []; next = 0; stack = [] }

let span t ~op name f =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s = { id = t.next; name; op; parent; start = Clock.now (); stop = nan } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.stack <- s :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Clock.now ();
      t.stack <- List.tl t.stack)
    f

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* self time: the span's duration minus the part its direct children
   cover (children never overlap: the benchmark is single-threaded
   while tracing) *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
        Hashtbl.replace child s.parent (prev +. duration s))
    t.spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
    (spans t)

(* self times of every span with this name, in seconds, oldest first *)
let self_of t name =
  List.filter_map
    (fun (s, self) -> if String.equal s.name name then Some self else None)
    (self_times t)

let roots t = List.filter (fun s -> s.parent < 0) (spans t)

(* sum of the self times of every non-root span over the summed root
   durations: how much of the operation time the layer spans explain *)
let coverage t =
  let roots_total = List.fold_left (fun a s -> a +. duration s) 0. (roots t) in
  let layers =
    List.fold_left
      (fun a (s, self) -> if s.parent >= 0 then a +. self else a)
      0. (self_times t)
  in
  if roots_total > 0. then layers /. roots_total else nan

let to_json ?(metadata = []) t =
  let us x = J.Num (Float.round (1e6 *. x)) in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("cat", J.Str "perfbench");
        ("ph", J.Str "X");
        ("ts", us (s.start -. t.origin));
        ("dur", us (duration s));
        ("pid", J.Num 1.);
        ("tid", J.Num 1.);
        ( "args",
          J.Obj
            [
              ("id", J.Num (float_of_int s.id));
              ("op", J.Num (float_of_int s.op));
              ("parent", J.Num (float_of_int s.parent));
            ] );
      ]
  in
  J.Obj
    [
      ("traceEvents", J.Arr (List.map event (spans t)));
      ("displayTimeUnit", J.Str "ms");
      ("metadata", J.Obj metadata);
    ]

let write ?metadata t path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (J.to_string (to_json ?metadata t));
      Out_channel.output_char oc '\n')
