type operator_id = int
type medium_id = int

type medium_kind = Bus | Point_to_point

type medium = {
  m_name : string;
  m_kind : medium_kind;
  m_latency : float;
  m_time_per_word : float;
  m_endpoints : operator_id list;
}

type t = {
  a_name : string;
  mutable a_operators : string array;
  mutable a_media : medium array;
}

let create ~name = { a_name = name; a_operators = [||]; a_media = [||] }

let name a = a.a_name
let operator_count a = Array.length a.a_operators
let medium_count a = Array.length a.a_media
let operators a = List.init (operator_count a) Fun.id
let media a = List.init (medium_count a) Fun.id

let check_operator a id =
  if id < 0 || id >= operator_count a then invalid_arg "Architecture: unknown operator id"

let check_medium a id =
  if id < 0 || id >= medium_count a then invalid_arg "Architecture: unknown medium id"

let operator_name a id =
  check_operator a id;
  a.a_operators.(id)

let medium_name a id =
  check_medium a id;
  a.a_media.(id).m_name

let medium_kind a id =
  check_medium a id;
  a.a_media.(id).m_kind

let find_operator a name =
  let rec go i =
    if i >= operator_count a then None
    else if String.equal a.a_operators.(i) name then Some i
    else go (i + 1)
  in
  go 0

let find_medium a name =
  let rec go i =
    if i >= medium_count a then None
    else if String.equal a.a_media.(i).m_name name then Some i
    else go (i + 1)
  in
  go 0

let add_operator a ~name =
  if find_operator a name <> None then
    invalid_arg (Printf.sprintf "Architecture.add_operator: duplicate %S" name);
  a.a_operators <- Array.append a.a_operators [| name |];
  operator_count a - 1

let add_medium a ~name ~kind ?(latency = 0.) ~time_per_word endpoints =
  if find_medium a name <> None then
    invalid_arg (Printf.sprintf "Architecture.add_medium: duplicate %S" name);
  if latency < 0. || time_per_word < 0. then
    invalid_arg "[ARCH002] Architecture.add_medium: negative timing parameter";
  List.iter (check_operator a) endpoints;
  let endpoints = List.sort_uniq compare endpoints in
  (match kind with
  | Point_to_point ->
      if List.length endpoints <> 2 then
        invalid_arg "[ARCH002] Architecture.add_medium: point-to-point medium needs exactly two operators"
  | Bus ->
      if List.length endpoints < 2 then
        invalid_arg "[ARCH002] Architecture.add_medium: bus needs at least two operators";
      (* a shared bus with a zero word time has infinite capacity: every
         arbitration/utilization analysis on it divides by zero.  The
         point-to-point kind keeps accepting 0 (an idealised wire). *)
      if time_per_word = 0. then
        invalid_arg
          "[ARCH002] Architecture.add_medium: zero-capacity bus (time_per_word must be > 0)");
  let m =
    { m_name = name; m_kind = kind; m_latency = latency; m_time_per_word = time_per_word;
      m_endpoints = endpoints }
  in
  a.a_media <- Array.append a.a_media [| m |];
  medium_count a - 1

let medium_endpoints a id =
  check_medium a id;
  a.a_media.(id).m_endpoints

let comm_duration a id ~words =
  check_medium a id;
  if words < 0 then invalid_arg "Architecture.comm_duration: negative size";
  let m = a.a_media.(id) in
  m.m_latency +. (float_of_int words *. m.m_time_per_word)

let connecting a o1 o2 =
  check_operator a o1;
  check_operator a o2;
  if o1 = o2 then invalid_arg "Architecture.connecting: identical operators";
  List.filter
    (fun mid ->
      let eps = a.a_media.(mid).m_endpoints in
      List.mem o1 eps && List.mem o2 eps)
    (media a)

let routes ?(max_hops = 3) ?(max_routes = 8) a src dst =
  check_operator a src;
  check_operator a dst;
  if src = dst then invalid_arg "Architecture.routes: identical operators";
  (* media incident to each operator, in medium-id order *)
  let incident = Array.make (operator_count a) [] in
  for mid = medium_count a - 1 downto 0 do
    List.iter (fun op -> incident.(op) <- mid :: incident.(op)) a.a_media.(mid).m_endpoints
  done;
  (* Iterative deepening: for hops = 1, 2, … a depth-first walk lists
     the simple paths of exactly that many hops, visiting media in id
     order and endpoints in ascending order — the order a breadth-first
     search over simple paths yields them in (the contract in the
     interface).  A BFS queue would hold O(N²) partial paths per call
     on an N-operator bus, most of them never used once [max_routes]
     is reached.  A path never passes through [dst]: reaching it ends
     the route. *)
  let results = ref [] and found = ref 0 in
  let rec walk here path_rev visited left =
    if left = 1 then
      List.iter
        (fun mid ->
          if !found < max_routes && List.mem mid incident.(dst) then begin
            results := List.rev ((mid, dst) :: path_rev) :: !results;
            incr found
          end)
        incident.(here)
    else
      List.iter
        (fun mid ->
          List.iter
            (fun next ->
              if !found < max_routes && next <> dst && not (List.mem next visited) then
                walk next ((mid, next) :: path_rev) (next :: visited) (left - 1))
            a.a_media.(mid).m_endpoints)
        incident.(here)
  in
  for hops = 1 to max_hops do
    if !found < max_routes then walk src [] [ src ] hops
  done;
  List.rev !results

let validate a =
  if operator_count a = 0 then invalid_arg "[ARCH001] architecture has no operator";
  if operator_count a > 1 then begin
    (* connectivity of the operator graph induced by media *)
    let n = operator_count a in
    let reached = Array.make n false in
    let rec visit id =
      if not reached.(id) then begin
        reached.(id) <- true;
        Array.iter
          (fun m -> if List.mem id m.m_endpoints then List.iter visit m.m_endpoints)
          a.a_media
      end
    in
    visit 0;
    if not (Array.for_all Fun.id reached) then
      invalid_arg "[ARCH001] operator graph is not connected"
  end

let single ?(proc_name = "P0") () =
  let a = create ~name:"single" in
  let _ = add_operator a ~name:proc_name in
  a

let bus_topology ?(name = "bus_arch") ?latency ~time_per_word procs =
  let a = create ~name in
  let ids = List.map (fun p -> add_operator a ~name:p) procs in
  if List.length ids >= 2 then
    ignore (add_medium a ~name:"bus" ~kind:Bus ?latency ~time_per_word ids);
  a

let fully_connected ?(name = "mesh_arch") ?latency ~time_per_word procs =
  let a = create ~name in
  let ids = List.map (fun p -> add_operator a ~name:p) procs in
  let arr = Array.of_list ids in
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      ignore
        (add_medium a
           ~name:(Printf.sprintf "link_%s_%s" a.a_operators.(arr.(i)) a.a_operators.(arr.(j)))
           ~kind:Point_to_point ?latency ~time_per_word [ arr.(i); arr.(j) ])
    done
  done;
  a
