type t = {
  n_domains : int;
  queue : (unit -> unit) Queue.t;  (* job-announcement queue the workers block on *)
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable workers : unit Domain.t list;
  mutable closed : bool;
}

(* set while a domain executes pool work, so a nested [map] from
   inside a task degrades to the sequential path instead of parking
   every domain in a wait *)
let inside_task = Domain.DLS.new_key (fun () -> false)

let domains t = t.n_domains

let run_task task =
  let saved = Domain.DLS.get inside_task in
  Domain.DLS.set inside_task true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set inside_task saved) task

let worker t () =
  let rec loop () =
    Mutex.lock t.lock;
    let rec next () =
      if Queue.is_empty t.queue then
        if t.closed then None
        else begin
          Condition.wait t.nonempty t.lock;
          next ()
        end
      else Some (Queue.pop t.queue)
    in
    let task = next () in
    Mutex.unlock t.lock;
    match task with
    | None -> ()
    | Some task ->
        run_task task;
        loop ()
  in
  loop ()

let create ?domains () =
  let n_domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Pool.create: domain count must be at least 1";
        d
    | None -> Domain.recommended_domain_count ()
  in
  let t =
    {
      n_domains;
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      workers = [];
      closed = false;
    }
  in
  if n_domains > 1 then
    t.workers <- List.init (n_domains - 1) (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  Mutex.lock t.lock;
  if not t.closed then begin
    t.closed <- true;
    Condition.broadcast t.nonempty
  end;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_lock = Mutex.create ()
let default_pool = ref None

let default () =
  Mutex.lock default_lock;
  let t =
    match !default_pool with
    | Some t -> t
    | None ->
        let t = create () in
        default_pool := Some t;
        t
  in
  Mutex.unlock default_lock;
  t

let sequential t = t.n_domains <= 1 || Domain.DLS.get inside_task

(* ------------------------------------------------------------------ *)
(* the scheduler: one ordered map-reduce over a shared chunk source

   Every participating domain takes the next [chunk] elements off the
   input sequence, in input order, under the job lock.  The submitting
   domain folds chunk results strictly in chunk order and runs chunks
   itself while the next one to fold is still in flight elsewhere.
   Work only ever leaves the source, so a worker that finds it empty
   is done with the job; aborting the job just empties the source. *)

let ordered_fold t ~chunk ~emit ~map:fm ~reduce ~init xs =
  if t.closed then invalid_arg "Pool: the pool is shut down";
  let lock = Mutex.create () and ready = Condition.create () in
  let cursor = ref xs and empty = ref false and taken = ref 0 in
  (* a producer that raises is remembered and re-raised only after
     everything it yielded has been folded — exactly where the
     sequential fold would raise *)
  let producer_exn = ref None in
  (* results of chunks finished ahead of the fold, by chunk id *)
  let finished = Hashtbl.create 16 in
  (* the next chunk of the source ([lock] held; never raises) *)
  let take () =
    let items = ref [] and k = ref 0 in
    while !k < chunk && not !empty do
      match Seq.uncons !cursor with
      | Some (x, rest) ->
          cursor := rest;
          items := x :: !items;
          incr k
      | None -> empty := true
      | exception e ->
          producer_exn := Some (e, Printexc.get_raw_backtrace ());
          empty := true
    done;
    if !k = 0 then None
    else begin
      let id = !taken in
      incr taken;
      Some (id, List.rev !items)
    end
  in
  let run items =
    run_task (fun () ->
        List.map
          (fun x -> try Ok (fm x) with e -> Error (e, Printexc.get_raw_backtrace ()))
          items)
  in
  let rec participate () =
    Mutex.lock lock;
    let work = take () in
    Mutex.unlock lock;
    match work with
    | None -> ()
    | Some (id, items) ->
        let out = run items in
        Mutex.lock lock;
        Hashtbl.replace finished id out;
        Condition.signal ready;
        Mutex.unlock lock;
        participate ()
  in
  Mutex.lock t.lock;
  List.iter (fun _ -> Queue.add participate t.queue) t.workers;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  let acc = ref init and folded = ref 0 and count = ref 0 in
  let fold out =
    List.iter
      (function
        | Ok v ->
            acc := reduce !acc v;
            incr count;
            emit !count !acc
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      out;
    incr folded
  in
  let rec drive () =
    Mutex.lock lock;
    match Hashtbl.find_opt finished !folded with
    | Some out ->
        Hashtbl.remove finished !folded;
        Mutex.unlock lock;
        fold out;
        drive ()
    | None -> (
        match take () with
        | Some (id, items) ->
            Mutex.unlock lock;
            let out = run items in
            if id = !folded then fold out
            else begin
              Mutex.lock lock;
              Hashtbl.replace finished id out;
              Mutex.unlock lock
            end;
            drive ()
        | None when !folded = !taken -> Mutex.unlock lock
        | None ->
            Condition.wait ready lock;
            Mutex.unlock lock;
            drive ())
  in
  (match drive () with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.lock lock;
      empty := true;
      Mutex.unlock lock;
      Printexc.raise_with_backtrace e bt);
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !producer_exn;
  !acc

let map ?chunk t f xs =
  let n = List.length xs in
  let chunk =
    match chunk with
    | Some c ->
        if c < 1 then invalid_arg "Pool.map: chunk must be at least 1";
        c
    | None -> max 1 ((n + (4 * t.n_domains) - 1) / (4 * t.n_domains))
  in
  if n <= 1 || sequential t then List.map f xs
  else
    List.rev
      (ordered_fold t ~chunk ~emit:(fun _ _ -> ()) ~map:f
         ~reduce:(fun acc y -> y :: acc) ~init:[] (List.to_seq xs))

let map_reduce_seq ?(chunk = 8) ?(snapshot_every = 4096) ?snapshot t ~map:fm
    ~reduce ~init xs =
  if chunk < 1 then invalid_arg "Pool.map_reduce_seq: chunk must be at least 1";
  if snapshot_every < 1 then
    invalid_arg "Pool.map_reduce_seq: snapshot_every must be at least 1";
  let emit count acc =
    match snapshot with
    | Some cb when count mod snapshot_every = 0 -> cb ~evaluated:count acc
    | Some _ | None -> ()
  in
  if sequential t then
    (* the reference: same fold order, same snapshot cadence *)
    let acc, _ =
      Seq.fold_left
        (fun (acc, count) x ->
          let acc = reduce acc (fm x) in
          let count = count + 1 in
          emit count acc;
          (acc, count))
        (init, 0) xs
    in
    acc
  else ordered_fold t ~chunk ~emit ~map:fm ~reduce ~init xs
