(* The host-speed probe.  A fixed computation written against the
   standard library alone, shaped like the workloads' inner loops:
   boxed-float state updates, a Map-keyed event queue, short-lived
   allocation and a Printf render.  It calls no code of the repository,
   so a change to the program never changes its time; only the host's
   speed does. *)

module Q = Map.Make (Float)

let kernel () =
  let x = Array.make 8 0.1 in
  let q = ref Q.empty and acc = ref 0. in
  for step = 0 to 1999 do
    for i = 0 to 7 do
      let xi = x.(i) and xj = x.((i + 1) land 7) in
      x.(i) <- xi +. (0.001 *. (xj -. (0.5 *. xi) +. sin (float_of_int step *. 0.01)))
    done;
    q := Q.add (float_of_int (step * 7919 mod 1000) +. x.(step land 7)) step !q;
    if step land 3 = 3 then begin
      let k, _ = Q.min_binding !q in
      q := Q.remove k !q;
      acc := !acc +. k
    end
  done;
  let b = Buffer.create 4096 in
  Q.iter (fun k v -> Buffer.add_string b (Printf.sprintf "%.3f:%d," k v)) !q;
  !acc +. float_of_int (Buffer.length b) +. Array.fold_left ( +. ) 0. x

(* the kernel's result, fixed: a probe that computes something else is
   not measuring the same work *)
let expected = lazy (kernel ())

(* CPU seconds of one kernel run on the reference host (a 2-core Xeon VM
   at 2.0 GHz, in its faster periods); times scaled to the reference
   speed read as if measured there *)
let reference_s = 0.0015

(* CPU seconds of the kernel now: the median of three runs *)
let sample () =
  let expected = Lazy.force expected in
  let one () =
    let t0 = Clock.cpu () in
    let r = kernel () in
    let dt = Clock.cpu () -. t0 in
    if not (Float.equal r expected) then failwith "host-speed probe: kernel result changed";
    dt
  in
  let a = one () in
  let b = one () in
  let c = one () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)
