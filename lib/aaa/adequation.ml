type strategy = Pressure | Earliest_finish

exception Infeasible of string

let infeasible fmt = Printf.ksprintf (fun s -> raise (Infeasible s)) fmt

(* array-index views of the abstract ids *)
let oi (x : Algorithm.op_id) = (x :> int)
let pi (x : Architecture.operator_id) = (x :> int)
let mi (x : Architecture.medium_id) = (x :> int)

(* Dependencies driving scheduling: real data dependencies plus an
   implicit width-1 edge from each conditioning-variable source to
   every operation conditioned on it (unless a data edge from that
   source port already exists).  The virtual edges use destination
   port -1. *)
let scheduling_deps algorithm =
  let deps = Algorithm.dependencies algorithm in
  let cond_deps =
    List.filter_map
      (fun op ->
        match Algorithm.op_cond algorithm op with
        | None -> None
        | Some { Algorithm.var; _ } -> (
            match Algorithm.condition_source algorithm ~var with
            | None -> None (* validate will have rejected this *)
            | Some (src, sp) ->
                let already =
                  List.exists (fun ((s, p), (d, _)) -> s = src && p = sp && d = op) deps
                in
                if already || src = op then None else Some ((src, sp), (op, -1))))
      (Algorithm.ops algorithm)
  in
  deps @ cond_deps

let dep_width algorithm ((src, sp), (_, dp)) =
  if dp = -1 then 1 else (Algorithm.op_outputs algorithm src).(sp)

(* Tail levels (remaining critical path) over precedence edges,
   using operator-averaged WCETs and ignoring communications. *)
let tail_levels ~algorithm ~architecture ~durations deps =
  let operator_names =
    List.map (Architecture.operator_name architecture) (Architecture.operators architecture)
  in
  let avg op =
    match
      Durations.average_wcet durations ~op:(Algorithm.op_name algorithm op)
        ~operators:operator_names
    with
    | Some v -> v
    | None ->
        if Algorithm.op_kind algorithm op = Algorithm.Memory then 0.
        else
          infeasible "operation %S cannot run on any operator"
            (Algorithm.op_name algorithm op)
  in
  let n = Algorithm.op_count algorithm in
  let tails = Array.make n 0. in
  let order = List.rev (Algorithm.topological_order algorithm) in
  List.iter
    (fun op ->
      let succ_tail =
        List.fold_left
          (fun acc ((s, _), (d, _)) ->
            if s = op && Algorithm.op_kind algorithm s <> Algorithm.Memory then
              Float.max acc tails.(oi d)
            else acc)
          0. deps
      in
      tails.(oi op) <- avg op +. succ_tail)
    order;
  tails

let critical_path ~algorithm ~architecture ~durations =
  let deps = scheduling_deps algorithm in
  let tails = tail_levels ~algorithm ~architecture ~durations deps in
  Array.fold_left Float.max 0. tails

(* A route that takes two consecutive hops on the same medium is
   dominated: that medium also joins the hop before and the hop after
   directly.  The shortcut route has fewer hops, so it comes earlier in
   {!Architecture.routes}' breadth-first order (and within the same
   [max_routes] cap); along it the tentative walk reaches every later
   hop no later, because a walk never updates medium availability
   between its own hops.  [best_transfer] keeps the first of equally
   early routes, so dropping the dominated ones never changes its
   choice. *)
let rec relays_on_one_medium = function
  | (m1, _) :: ((m2, _) :: _ as rest) -> m1 = m2 || relays_on_one_medium rest
  | [ _ ] | [] -> false

(* [run] asks for the same (source, destination) pair for every
   dependency × candidate operator × ready operation × step; the table
   searches and filters each pair once.  Keyed on operator ids: the
   architecture does not change during a run. *)
let route_table architecture =
  let n = Architecture.operator_count architecture in
  let table = Hashtbl.create 16 in
  fun src dst ->
    let key = (pi src * n) + pi dst in
    match Hashtbl.find_opt table key with
    | Some routes -> routes
    | None ->
        let routes =
          List.filter
            (fun route -> not (relays_on_one_medium route))
            (Architecture.routes architecture src dst)
        in
        Hashtbl.add table key routes;
        routes

type placed = { p_operator : Architecture.operator_id; p_start : float; p_finish : float }

let run ?(strategy = Pressure) ?(pins = []) ~algorithm ~architecture ~durations () =
  Algorithm.validate algorithm;
  Architecture.validate architecture;
  let n = Algorithm.op_count algorithm in
  let operator_ids = Architecture.operators architecture in
  let deps = scheduling_deps algorithm in
  let tails = tail_levels ~algorithm ~architecture ~durations deps in
  (* resolve pins *)
  let pin_table = Hashtbl.create 8 in
  List.iter
    (fun (op_name, operator_name) ->
      match Algorithm.find_op algorithm op_name with
      | None -> invalid_arg (Printf.sprintf "Adequation: unknown pinned operation %S" op_name)
      | Some op -> (
          match Architecture.find_operator architecture operator_name with
          | None ->
              invalid_arg
                (Printf.sprintf "Adequation: unknown pinned operator %S" operator_name)
          | Some operator -> Hashtbl.replace pin_table (oi op) operator))
    pins;
  (* each regular operation's allowed operators and their WCETs,
     resolved once so the scheduling loop makes no string-keyed lookup *)
  let allowed = Array.make n [] in
  let wcets = Array.make_matrix n (Architecture.operator_count architecture) 0. in
  List.iter
    (fun op ->
      if Algorithm.op_kind algorithm op <> Algorithm.Memory then begin
        let name = Algorithm.op_name algorithm op in
        let ok =
          List.filter
            (fun operator ->
              match
                Durations.wcet durations ~op:name
                  ~operator:(Architecture.operator_name architecture operator)
              with
              | Some w ->
                  wcets.(oi op).(pi operator) <- w;
                  true
              | None -> false)
            operator_ids
        in
        allowed.(oi op) <-
          (match Hashtbl.find_opt pin_table (oi op) with
          | Some pinned ->
              if List.mem pinned ok then [ pinned ]
              else
                infeasible "operation %S is pinned to %S where it has no WCET" name
                  (Architecture.operator_name architecture pinned)
          | None ->
              if ok = [] then infeasible "operation %S cannot run on any operator" name else ok)
      end)
    (Algorithm.ops algorithm);
  let placed : placed option array = Array.make n None in
  let place op p = placed.(oi op) <- Some p in
  let placement op = placed.(oi op) in
  let operator_avail = Array.make (Architecture.operator_count architecture) 0. in
  let medium_avail = Array.make (Architecture.medium_count architecture) 0. in
  let comm_slots = ref [] in
  let routes = route_table architecture in
  (* precedence predecessors: sources of scheduling deps, except memories *)
  let pred_edges = Array.make n [] in
  List.iter
    (fun (((src, _), (dst, _)) as edge) ->
      if Algorithm.op_kind algorithm src <> Algorithm.Memory then
        pred_edges.(oi dst) <- edge :: pred_edges.(oi dst))
    deps;
  let is_memory op = Algorithm.op_kind algorithm op = Algorithm.Memory in
  let ready op =
    placement op = None
    && (not (is_memory op))
    && List.for_all (fun ((src, _), _) -> placement src <> None) pred_edges.(oi op)
  in
  (* best (possibly multi-hop) transfer of [words] from [src_operator]
     to [operator], given current media availability and the producer
     finish time; returns the arrival time at the destination *)
  let best_transfer ~commit ~src ~sp ~dst ~dp ~src_operator ~operator ~ready_at ~words =
    let candidate_routes = routes src_operator operator in
    match candidate_routes with
    | [] -> None
    | _ :: _ ->
        (* tentative walk along a route: hop list with start/duration *)
        let walk route =
          let rec go t from acc = function
            | [] -> (t, List.rev acc)
            | (medium, next) :: rest ->
                let start = Float.max medium_avail.(mi medium) t in
                let duration = Architecture.comm_duration architecture medium ~words in
                go (start +. duration) next ((medium, from, next, start, duration) :: acc) rest
          in
          go ready_at src_operator [] route
        in
        let arrival, hops =
          List.fold_left
            (fun best route ->
              let ((a, _) as cand) = walk route in
              match best with
              | None -> Some cand
              | Some (ba, _) -> if a < ba then Some cand else best)
            None candidate_routes
          |> Option.get
        in
        if commit then
          List.iteri
            (fun hop (medium, from, to_, start, duration) ->
              medium_avail.(mi medium) <- start +. duration;
              comm_slots :=
                {
                  Schedule.cm_src = (src, sp);
                  cm_dst = (dst, dp);
                  cm_medium = medium;
                  cm_from = from;
                  cm_to = to_;
                  cm_hop = hop;
                  cm_start = start;
                  cm_duration = duration;
                  cm_read = start +. duration;
                }
                :: !comm_slots)
            hops;
        Some arrival
  in
  (* earliest start/finish of [op] on [operator]; when [commit] is set
     the communications are recorded and media reserved *)
  let try_on ~commit op operator =
    let feasible = ref true in
    let arrival = ref 0. in
    List.iter
      (fun (((src, sp), (dst, dp)) as edge) ->
        match placement src with
        | None -> assert false
        | Some p ->
            let a =
              if p.p_operator = operator then p.p_finish
              else
                match
                  best_transfer ~commit ~src ~sp ~dst ~dp ~src_operator:p.p_operator
                    ~operator ~ready_at:p.p_finish ~words:(dep_width algorithm edge)
                with
                | Some t -> t
                | None ->
                    feasible := false;
                    0.
            in
            arrival := Float.max !arrival a)
      pred_edges.(oi op);
    if not !feasible then None
    else begin
      let start = Float.max operator_avail.(pi operator) !arrival in
      Some (start, start +. wcets.(oi op).(pi operator))
    end
  in
  let total_regular =
    List.length (List.filter (fun op -> not (is_memory op)) (Algorithm.ops algorithm))
  in
  for _ = 1 to total_regular do
    let candidates =
      List.filter_map
        (fun op ->
          if not (ready op) then None
          else begin
            let best =
              List.fold_left
                (fun best operator ->
                  match try_on ~commit:false op operator with
                  | None -> best
                  | Some (est, eft) -> (
                      match best with
                      | None -> Some (operator, est, eft)
                      | Some (_, _, beft) ->
                          if eft < beft then Some (operator, est, eft) else best))
                None allowed.(oi op)
            in
            match best with
            | None ->
                infeasible "no operator reachable for inputs of %S"
                  (Algorithm.op_name algorithm op)
            | Some (operator, _, eft) -> Some (op, operator, eft)
          end)
        (Algorithm.ops algorithm)
    in
    match candidates with
    | [] -> infeasible "scheduling stalled: no ready operation (dependency cycle?)"
    | _ :: _ ->
        (* Pressure: most urgent first (max eft + remaining critical
           path).  Earliest_finish: min eft. *)
        let better (cop, _, ceft) (bop, _, beft) =
          match strategy with
          | Pressure -> ceft +. tails.(oi cop) > beft +. tails.(oi bop)
          | Earliest_finish -> ceft < beft
        in
        let chosen =
          List.fold_left
            (fun best c ->
              match best with
              | None -> Some c
              | Some b -> if better c b then Some c else best)
            None candidates
          |> Option.get
        in
        let op, operator, _ = chosen in
        (match try_on ~commit:true op operator with
        | None -> assert false
        | Some (start, finish) ->
            place op { p_operator = operator; p_start = start; p_finish = finish };
            operator_avail.(pi operator) <- finish)
  done;
  (* place memory operations on their producer's operator, right after
     the producing computation (or at operator availability) *)
  List.iter
    (fun op ->
      if is_memory op then begin
        let producers =
          List.filter_map
            (fun port -> Algorithm.dep_source algorithm op port)
            (List.init (Array.length (Algorithm.op_inputs algorithm op)) Fun.id)
        in
        let operator, ready_at =
          match producers with
          | [] -> (List.hd operator_ids, 0.)
          | (p0, _) :: _ ->
              let home =
                match placement p0 with
                | Some p -> p.p_operator
                | None -> List.hd operator_ids
              in
              let latest =
                List.fold_left
                  (fun acc (src, sp) ->
                    match placement src with
                    | Some p when p.p_operator = home -> Float.max acc p.p_finish
                    | Some p -> (
                        match
                          best_transfer ~commit:true ~src ~sp ~dst:op ~dp:0
                            ~src_operator:p.p_operator ~operator:home ~ready_at:p.p_finish
                            ~words:((Algorithm.op_outputs algorithm src).(sp))
                        with
                        | Some t -> Float.max acc t
                        | None ->
                            infeasible "no medium to feed memory %S"
                              (Algorithm.op_name algorithm op))
                    | None ->
                        infeasible "memory %S depends on an unscheduled memory"
                          (Algorithm.op_name algorithm op))
                  0. producers
              in
              (home, latest)
        in
        let wcet =
          match
            Durations.wcet durations
              ~op:(Algorithm.op_name algorithm op)
              ~operator:(Architecture.operator_name architecture operator)
          with
          | Some w -> w
          | None -> 0.
        in
        let start = Float.max operator_avail.(pi operator) ready_at in
        place op { p_operator = operator; p_start = start; p_finish = start +. wcet };
        operator_avail.(pi operator) <- start +. wcet
      end)
    (Algorithm.ops algorithm);
  (* end-of-iteration transfers of memory values to remote consumers *)
  List.iter
    (fun (((src, sp), (dst, dp)) as edge) ->
      if is_memory src then
        match (placement src, placement dst) with
        | Some ps, Some pd when ps.p_operator <> pd.p_operator -> (
            match
              best_transfer ~commit:true ~src ~sp ~dst ~dp ~src_operator:ps.p_operator
                ~operator:pd.p_operator ~ready_at:ps.p_finish
                ~words:(dep_width algorithm edge)
            with
            | Some _ -> ()
            | None ->
                infeasible "no medium from memory %S to consumer %S"
                  (Algorithm.op_name algorithm src)
                  (Algorithm.op_name algorithm dst))
        | Some _, Some _ -> ()
        | None, _ | _, None -> assert false)
    deps;
  let comp =
    List.map
      (fun op ->
        match placement op with
        | Some p ->
            {
              Schedule.cs_op = op;
              cs_operator = p.p_operator;
              cs_start = p.p_start;
              cs_duration = p.p_finish -. p.p_start;
            }
        | None -> assert false)
      (Algorithm.ops algorithm)
  in
  Schedule.make ~algorithm ~architecture ~comp ~comm:!comm_slots

(* -------------------------------------------------------------- *)
(* local-search refinement *)

let mapping_of schedule =
  let algorithm = schedule.Schedule.algorithm in
  let architecture = schedule.Schedule.architecture in
  List.filter_map
    (fun op ->
      if Algorithm.op_kind algorithm op = Algorithm.Memory then None
      else
        Some
          ( Algorithm.op_name algorithm op,
            Architecture.operator_name architecture (Schedule.operator_of schedule op) ))
    (Algorithm.ops algorithm)

let refine ?(iterations = 200) ?(seed = 0) ?(temperature = 0.05) ~algorithm ~architecture
    ~durations ~initial () =
  if iterations < 0 then invalid_arg "Adequation.refine: negative iteration count";
  let rng = Numerics.Rng.create seed in
  let movable =
    (* non-memory operations able to run on more than one operator *)
    List.filter_map
      (fun op ->
        if Algorithm.op_kind algorithm op = Algorithm.Memory then None
        else begin
          let name = Algorithm.op_name algorithm op in
          let hosts =
            List.filter
              (fun operator ->
                Durations.can_run durations ~op:name
                  ~operator:(Architecture.operator_name architecture operator))
              (Architecture.operators architecture)
          in
          if List.length hosts > 1 then
            Some (name, List.map (Architecture.operator_name architecture) hosts)
          else None
        end)
      (Algorithm.ops algorithm)
  in
  if movable = [] then initial
  else begin
    let current = ref (mapping_of initial) in
    let current_cost = ref initial.Schedule.makespan in
    let best = ref initial in
    for _ = 1 to iterations do
      let op_name, hosts = Numerics.Rng.choice rng (Array.of_list movable) in
      let here = List.assoc op_name !current in
      let others = List.filter (fun h -> not (String.equal h here)) hosts in
      if others <> [] then begin
        let target = Numerics.Rng.choice rng (Array.of_list others) in
        let proposal =
          List.map
            (fun (name, host) ->
              if String.equal name op_name then (name, target) else (name, host))
            !current
        in
        match run ~pins:proposal ~algorithm ~architecture ~durations () with
        | exception Infeasible _ -> ()
        | candidate ->
            let cost = candidate.Schedule.makespan in
            let accept =
              cost < !current_cost
              || (temperature > 0.
                 && Numerics.Rng.float rng 1.
                    < Float.exp
                        (-.(cost -. !current_cost) /. (temperature *. !current_cost)))
            in
            if accept then begin
              current := proposal;
              current_cost := cost;
              if cost < !best.Schedule.makespan then best := candidate
            end
      end
    done;
    !best
  end
