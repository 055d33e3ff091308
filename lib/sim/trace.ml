(* Samples live in fixed-size chunks referenced from a small pointer
   directory: appending allocates a fresh chunk every [chunk_size]
   samples and only ever copies the directory (pointers), never the
   recorded data — so long batch runs stop re-copying large probe
   arrays the way the previous doubling scheme did.  A chunk is flat:
   [chunk_size] times and [chunk_size × w] floats, the row of sample i
   at [i·w] — so recording a sample allocates nothing. *)

let chunk_size = 1024

type t = {
  w : int;
  mutable tdir : float array array;  (* tdir.(c).(i) = time of sample c·N+i *)
  mutable vdir : float array array;  (* vdir.(c).(i·w + j) = its component j *)
  mutable n : int;
}

let create ~width =
  if width <= 0 then invalid_arg "Trace.create: non-positive width";
  { w = width; tdir = [||]; vdir = [||]; n = 0 }

let width tr = tr.w
let length tr = tr.n

(* the chunk holding sample [i]; only called for i < n or i = n right
   after [ensure_capacity], so the slot is always allocated *)
let[@inline] chunk i = i / chunk_size
let[@inline] offset i = i mod chunk_size

let ensure_capacity tr =
  let c = chunk tr.n in
  if c >= Array.length tr.tdir then begin
    (* grow the directory (pointer copy only) *)
    let cap = Int.max 4 (2 * Array.length tr.tdir) in
    let tdir = Array.make cap [||] in
    let vdir = Array.make cap [||] in
    Array.blit tr.tdir 0 tdir 0 (Array.length tr.tdir);
    Array.blit tr.vdir 0 vdir 0 (Array.length tr.vdir);
    tr.tdir <- tdir;
    tr.vdir <- vdir
  end;
  (* chunks survive [clear] for reuse, hence the emptiness test *)
  if Array.length tr.tdir.(c) = 0 then begin
    tr.tdir.(c) <- Array.make chunk_size 0.;
    tr.vdir.(c) <- Array.make (chunk_size * tr.w) 0.
  end

(* writes [v] as the row of sample [i], element by element *)
let store tr i (v : float array) =
  let row = tr.vdir.(chunk i) and base = offset i * tr.w in
  for j = 0 to tr.w - 1 do
    row.(base + j) <- v.(j)
  done

(* a fresh copy of the row of sample [i] *)
let row tr i = Array.sub tr.vdir.(chunk i) (offset i * tr.w) tr.w

let record tr time v =
  if Array.length v <> tr.w then invalid_arg "Trace.record: width mismatch";
  if tr.n > 0 && tr.tdir.(chunk (tr.n - 1)).(offset (tr.n - 1)) = time then
    store tr (tr.n - 1) v
  else begin
    ensure_capacity tr;
    tr.tdir.(chunk tr.n).(offset tr.n) <- time;
    store tr tr.n v;
    tr.n <- tr.n + 1
  end

let times tr = Array.init tr.n (fun i -> tr.tdir.(chunk i).(offset i))
let values tr = Array.init tr.n (row tr)

let component tr j =
  if j < 0 || j >= tr.w then invalid_arg "Trace.component: out of range";
  Control.Metrics.of_arrays (times tr)
    (Array.init tr.n (fun i -> tr.vdir.(chunk i).((offset i * tr.w) + j)))

let last tr =
  if tr.n = 0 then None
  else Some (tr.tdir.(chunk (tr.n - 1)).(offset (tr.n - 1)), row tr (tr.n - 1))

let clear tr = tr.n <- 0

let iter f tr =
  for i = 0 to tr.n - 1 do
    f tr.tdir.(chunk i).(offset i) (row tr i)
  done

let to_csv ?labels tr =
  let labels =
    match labels with
    | Some l ->
        if List.length l <> tr.w then invalid_arg "Trace.to_csv: label count mismatch";
        l
    | None -> List.init tr.w (Printf.sprintf "y%d")
  in
  let buf = Buffer.create (64 * (tr.n + 1)) in
  Buffer.add_string buf ("time," ^ String.concat "," labels ^ "\n");
  iter
    (fun t v ->
      Buffer.add_string buf (Printf.sprintf "%.9g" t);
      Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf ",%.9g" x)) v;
      Buffer.add_char buf '\n')
    tr;
  Buffer.contents buf

let to_csv_file ?labels tr path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_csv ?labels tr))
