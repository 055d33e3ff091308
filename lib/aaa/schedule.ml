type comp_slot = {
  cs_op : Algorithm.op_id;
  cs_operator : Architecture.operator_id;
  cs_start : float;
  cs_duration : float;
}

type comm_slot = {
  cm_src : Algorithm.op_id * int;
  cm_dst : Algorithm.op_id * int;
  cm_medium : Architecture.medium_id;
  cm_from : Architecture.operator_id;
  cm_to : Architecture.operator_id;
  cm_hop : int;
  cm_start : float;
  cm_duration : float;
  cm_read : float;
}

let read_offset c = c.cm_read
let retry_slack c = c.cm_read -. (c.cm_start +. c.cm_duration)

let slot_key c =
  ((fst c.cm_src :> int), snd c.cm_src, (fst c.cm_dst :> int), snd c.cm_dst, c.cm_hop)

type t = {
  algorithm : Algorithm.t;
  architecture : Architecture.t;
  comp : comp_slot list;
  comm : comm_slot list;
  makespan : float;
}

let eps = 1e-9

let slot_of sched op =
  match List.find_opt (fun s -> s.cs_op = op) sched.comp with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "[SCHED002] operation %S is not scheduled"
           (Algorithm.op_name sched.algorithm op))

let operator_of sched op = (slot_of sched op).cs_operator

let on_operator sched operator =
  List.filter (fun s -> s.cs_operator = operator) sched.comp

let on_medium sched medium = List.filter (fun c -> c.cm_medium = medium) sched.comm

let check_no_overlap_comp alg name slots =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if a.cs_start +. a.cs_duration > b.cs_start +. eps then
          invalid_arg
            (Printf.sprintf
               "[SCHED003] computations %S [%g, %g] and %S [%g, %g] overlap on operator %S"
               (Algorithm.op_name alg a.cs_op)
               a.cs_start
               (a.cs_start +. a.cs_duration)
               (Algorithm.op_name alg b.cs_op)
               b.cs_start
               (b.cs_start +. b.cs_duration)
               name);
        go rest
    | [ _ ] | [] -> ()
  in
  go slots

let check_no_overlap_comm alg name slots =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if a.cm_start +. a.cm_duration > b.cm_start +. eps then
          invalid_arg
            (Printf.sprintf
               "[SCHED004] transfers %S -> %S [%g, %g] and %S -> %S [%g, %g] overlap on medium %S"
               (Algorithm.op_name alg (fst a.cm_src))
               (Algorithm.op_name alg (fst a.cm_dst))
               a.cm_start
               (a.cm_start +. a.cm_duration)
               (Algorithm.op_name alg (fst b.cm_src))
               (Algorithm.op_name alg (fst b.cm_dst))
               b.cm_start
               (b.cm_start +. b.cm_duration)
               name);
        go rest
    | [ _ ] | [] -> ()
  in
  go slots

(* The (possibly multi-hop) transfer chain of one dependency, in hop
   order.  Raises when absent or malformed. *)
let transfer_chain sched ((src, sp), (dst, dp)) ~from_operator ~to_operator =
  let hops =
    List.filter (fun c -> c.cm_src = (src, sp) && c.cm_dst = (dst, dp)) sched.comm
    |> List.sort (fun a b -> Int.compare a.cm_hop b.cm_hop)
  in
  let describe () =
    Printf.sprintf "%S -> %S"
      (Algorithm.op_name sched.algorithm src)
      (Algorithm.op_name sched.algorithm dst)
  in
  (match hops with
  | [] -> invalid_arg (Printf.sprintf "[SCHED005] missing transfer %s" (describe ()))
  | first :: _ ->
      if first.cm_hop <> 0 || first.cm_from <> from_operator then
        invalid_arg
          (Printf.sprintf "[SCHED006] transfer %s does not leave the producer" (describe ())));
  let rec check_chain = function
    | a :: (b :: _ as rest) ->
        if b.cm_hop <> a.cm_hop + 1 || b.cm_from <> a.cm_to then
          invalid_arg
            (Printf.sprintf "[SCHED006] broken transfer route %s (hop %d)" (describe ())
               b.cm_hop);
        if b.cm_start +. eps < a.cm_start +. a.cm_duration then
          invalid_arg
            (Printf.sprintf "[SCHED006] hop %d of %s starts at %g before hop %d ends at %g"
               b.cm_hop (describe ()) b.cm_start a.cm_hop
               (a.cm_start +. a.cm_duration));
        check_chain rest
    | [ last ] ->
        if last.cm_to <> to_operator then
          invalid_arg
            (Printf.sprintf "[SCHED006] transfer %s does not reach the consumer" (describe ()))
    | [] -> assert false
  in
  check_chain hops;
  hops

(* Data arrival time of dependency (src -> dst) given the slots.  A
   Memory source carries the previous iteration's value: it is
   available locally at iteration start, and when the consumer sits on
   another operator the transfer happens after the memory is written —
   it wraps around to serve the *next* iteration — so only its
   existence is checked, not its completion time. *)
let arrival sched ((src, sp), (dst, dp)) =
  let src_slot = slot_of sched src in
  let dst_slot = slot_of sched dst in
  let is_memory = Algorithm.op_kind sched.algorithm src = Algorithm.Memory in
  if src_slot.cs_operator = dst_slot.cs_operator then
    if is_memory then 0. else src_slot.cs_start +. src_slot.cs_duration
  else begin
    let hops =
      transfer_chain sched
        ((src, sp), (dst, dp))
        ~from_operator:src_slot.cs_operator ~to_operator:dst_slot.cs_operator
    in
    let first = List.hd hops in
    let produced = src_slot.cs_start +. src_slot.cs_duration in
    if first.cm_start +. eps < produced then
      invalid_arg
        (Printf.sprintf
           "[SCHED007] transfer of %S output %d starts at %g before it is produced at %g"
           (Algorithm.op_name sched.algorithm src)
           sp first.cm_start produced);
    if is_memory then 0.
    else
      let last = List.nth hops (List.length hops - 1) in
      last.cm_read
  end

let validate sched =
  Algorithm.validate sched.algorithm;
  Architecture.validate sched.architecture;
  (* sane slot times *)
  List.iter
    (fun s ->
      if s.cs_start < 0. || s.cs_duration < 0. then
        invalid_arg
          (Printf.sprintf "[SCHED011] slot of %S has negative start or duration [%g, %g]"
             (Algorithm.op_name sched.algorithm s.cs_op)
             s.cs_start s.cs_duration))
    sched.comp;
  List.iter
    (fun c ->
      if c.cm_start < 0. || c.cm_duration < 0. then
        invalid_arg
          (Printf.sprintf
             "[SCHED011] transfer %S -> %S has negative start or duration [%g, %g]"
             (Algorithm.op_name sched.algorithm (fst c.cm_src))
             (Algorithm.op_name sched.algorithm (fst c.cm_dst))
             c.cm_start c.cm_duration))
    sched.comm;
  (* read offsets never precede the transfer's completion *)
  List.iter
    (fun c ->
      if c.cm_read +. eps < c.cm_start +. c.cm_duration then
        invalid_arg
          (Printf.sprintf
             "[SCHED012] transfer %S -> %S reads at %g before its completion at %g"
             (Algorithm.op_name sched.algorithm (fst c.cm_src))
             (Algorithm.op_name sched.algorithm (fst c.cm_dst))
             c.cm_read
             (c.cm_start +. c.cm_duration)))
    sched.comm;
  (* every operation exactly once *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.cs_op then
        invalid_arg
          (Printf.sprintf "[SCHED001] operation %S is scheduled more than once"
             (Algorithm.op_name sched.algorithm s.cs_op));
      Hashtbl.replace seen s.cs_op ())
    sched.comp;
  List.iter
    (fun op ->
      if not (Hashtbl.mem seen op) then
        invalid_arg
          (Printf.sprintf "[SCHED002] operation %S is missing from the schedule"
             (Algorithm.op_name sched.algorithm op)))
    (Algorithm.ops sched.algorithm);
  (* resource exclusivity *)
  List.iter
    (fun operator ->
      check_no_overlap_comp sched.algorithm
        (Architecture.operator_name sched.architecture operator)
        (on_operator sched operator))
    (Architecture.operators sched.architecture);
  List.iter
    (fun medium ->
      check_no_overlap_comm sched.algorithm
        (Architecture.medium_name sched.architecture medium)
        (on_medium sched medium))
    (Architecture.media sched.architecture);
  (* precedence *)
  List.iter
    (fun ((src, sp), (dst, dp)) ->
      let dst_slot = slot_of sched dst in
      let t_arr = arrival sched ((src, sp), (dst, dp)) in
      if dst_slot.cs_start +. eps < t_arr then
        invalid_arg
          (Printf.sprintf
             "[SCHED007] %S starts at %g before its input %S.%d -> %S.%d arrives at %g"
             (Algorithm.op_name sched.algorithm dst)
             dst_slot.cs_start
             (Algorithm.op_name sched.algorithm src)
             sp
             (Algorithm.op_name sched.algorithm dst)
             dp t_arr))
    (Algorithm.dependencies sched.algorithm)

let make ~algorithm ~architecture ~comp ~comm =
  let comp = List.sort (fun a b -> Float.compare a.cs_start b.cs_start) comp in
  let comm = List.sort (fun a b -> Float.compare a.cm_start b.cm_start) comm in
  let makespan =
    List.fold_left (fun acc s -> Float.max acc (s.cs_start +. s.cs_duration)) 0. comp
    |> fun m ->
    List.fold_left (fun acc c -> Float.max acc (c.cm_start +. c.cm_duration)) m comm
  in
  let sched = { algorithm; architecture; comp; comm; makespan } in
  validate sched;
  sched

let completions_of_kind sched ids =
  List.map
    (fun op ->
      let s = slot_of sched op in
      (op, s.cs_start +. s.cs_duration))
    ids

let sensor_completions sched = completions_of_kind sched (Algorithm.sensors sched.algorithm)
let actuator_completions sched = completions_of_kind sched (Algorithm.actuators sched.algorithm)

let fits_period sched = sched.makespan <= Algorithm.period sched.algorithm +. eps

(* Schedule-time slack insertion: reserve a retry window after each
   transfer by moving its consumer's read offset to completion + slack,
   then retime every downstream slot so the schedule stays valid.  The
   retimed schedule keeps the original total order on every operator
   and medium; only start times move (monotonically later), so the
   fixpoint below converges.  The reserved window is kept free on the
   medium (the next transfer starts no earlier than the previous read
   offset) and across hops of one route, so a bounded number of
   retransmissions fits before the consumer's planned read. *)
let insert_slack ~slack_of sched =
  let comp = Array.of_list sched.comp in
  let comm = Array.of_list sched.comm in
  let slack = Array.map (fun c -> Float.max 0. (slack_of c)) comm in
  let read i = comm.(i).cm_start +. comm.(i).cm_duration +. slack.(i) in
  let comp_idx = Hashtbl.create 64 in
  Array.iteri (fun i s -> Hashtbl.replace comp_idx s.cs_op i) comp;
  (* previous slot sharing the same resource, in the original order *)
  let prev_sharing key_of n =
    let last = Hashtbl.create 8 in
    Array.init n (fun i ->
        let k = key_of i in
        let p = Hashtbl.find_opt last k in
        Hashtbl.replace last k i;
        p)
  in
  let comp_prev = prev_sharing (fun i -> comp.(i).cs_operator) (Array.length comp) in
  let comm_prev = prev_sharing (fun i -> comm.(i).cm_medium) (Array.length comm) in
  let find_hop c hop =
    let r = ref None in
    Array.iteri
      (fun j c' ->
        if c'.cm_src = c.cm_src && c'.cm_dst = c.cm_dst && c'.cm_hop = hop then r := Some j)
      comm;
    !r
  in
  let hop_prev =
    Array.map (fun c -> if c.cm_hop = 0 then None else find_hop c (c.cm_hop - 1)) comm
  in
  (* per-consumer data lower bounds: producer finish when co-located,
     final-hop read offset otherwise; memory sources are free *)
  let dep_bounds = Hashtbl.create 64 in
  List.iter
    (fun ((src, sp), (dst, dp)) ->
      if Algorithm.op_kind sched.algorithm src <> Algorithm.Memory then begin
        let si = Hashtbl.find comp_idx src and di = Hashtbl.find comp_idx dst in
        let bound =
          if comp.(si).cs_operator = comp.(di).cs_operator then `Finish si
          else begin
            let hops = ref [] in
            Array.iteri
              (fun j c -> if c.cm_src = (src, sp) && c.cm_dst = (dst, dp) then hops := j :: !hops)
              comm;
            let last =
              List.fold_left
                (fun acc j ->
                  match acc with
                  | None -> Some j
                  | Some a -> if comm.(j).cm_hop > comm.(a).cm_hop then Some j else acc)
                None !hops
            in
            match last with None -> `Finish si | Some j -> `Read j
          end
        in
        Hashtbl.add dep_bounds di bound
      end)
    (Algorithm.dependencies sched.algorithm);
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 10_000 do
    incr rounds;
    changed := false;
    Array.iteri
      (fun i c ->
        let lb = ref c.cm_start in
        (match Hashtbl.find_opt comp_idx (fst c.cm_src) with
        | Some si when c.cm_hop = 0 ->
            let s = comp.(si) in
            lb := Float.max !lb (s.cs_start +. s.cs_duration)
        | _ -> ());
        (match hop_prev.(i) with Some j -> lb := Float.max !lb (read j) | None -> ());
        (match comm_prev.(i) with Some j -> lb := Float.max !lb (read j) | None -> ());
        if !lb > c.cm_start +. eps then begin
          comm.(i) <- { c with cm_start = !lb };
          changed := true
        end)
      comm;
    Array.iteri
      (fun i s ->
        let lb = ref s.cs_start in
        (match comp_prev.(i) with
        | Some j ->
            let p = comp.(j) in
            lb := Float.max !lb (p.cs_start +. p.cs_duration)
        | None -> ());
        List.iter
          (function
            | `Finish j ->
                let p = comp.(j) in
                lb := Float.max !lb (p.cs_start +. p.cs_duration)
            | `Read j -> lb := Float.max !lb (read j))
          (Hashtbl.find_all dep_bounds i);
        if !lb > s.cs_start +. eps then begin
          comp.(i) <- { s with cs_start = !lb };
          changed := true
        end)
      comp
  done;
  if !changed then
    invalid_arg "[SCHED012] slack insertion did not converge (cyclic retiming constraints)";
  let comm = Array.to_list (Array.mapi (fun i c -> { c with cm_read = read i }) comm) in
  make ~algorithm:sched.algorithm ~architecture:sched.architecture
    ~comp:(Array.to_list comp) ~comm

let pp ppf sched =
  Format.fprintf ppf "@[<v>schedule of %S on %S (makespan %.6g, period %g)@,"
    (Algorithm.name sched.algorithm)
    (Architecture.name sched.architecture)
    sched.makespan
    (Algorithm.period sched.algorithm);
  List.iter
    (fun operator ->
      Format.fprintf ppf "%s:@," (Architecture.operator_name sched.architecture operator);
      List.iter
        (fun s ->
          Format.fprintf ppf "  [%.6g, %.6g] %s@," s.cs_start (s.cs_start +. s.cs_duration)
            (Algorithm.op_name sched.algorithm s.cs_op))
        (on_operator sched operator))
    (Architecture.operators sched.architecture);
  List.iter
    (fun medium ->
      Format.fprintf ppf "%s:@," (Architecture.medium_name sched.architecture medium);
      List.iter
        (fun c ->
          Format.fprintf ppf "  [%.6g, %.6g] %s -> %s@," c.cm_start
            (c.cm_start +. c.cm_duration)
            (Algorithm.op_name sched.algorithm (fst c.cm_src))
            (Algorithm.op_name sched.algorithm (fst c.cm_dst)))
        (on_medium sched medium))
    (Architecture.media sched.architecture);
  Format.fprintf ppf "@]"
