(* Operation timing at the reference host's speed.

   The hosts this benchmark runs on are shared, and their speed drifts:
   the same CPU-bound loop takes 30 % longer from one minute to the
   next, and up to three times as long in a busy hour.  Neither wall
   time nor CPU time hides that, so a run that measured either would
   compare hosts, not programs.  The meter therefore times each
   operation in CPU time and probes the host's speed with [Calib.sample]
   every [interval] wall seconds.  An operation's scaled time is its
   CPU time times [Calib.reference_s] over the mean of the [window]
   probes before and the [window] after it: what it would have taken
   on the reference host.  The probes run outside the timed
   operations.

   The raw wall and CPU totals stay available, and every run prints
   them beside the scaled figures. *)

(* wall seconds between speed probes *)
let interval = 0.1

type t = {
  mutable last : float;  (** wall clock of the last probe *)
  mutable probes : float list;  (** kernel CPU seconds, newest first *)
  mutable n_probes : int;
  mutable ops : (float * int) list;
      (** CPU seconds and probes taken before it, per operation, newest
          first *)
  mutable wall : float;  (** summed wall time of the operations *)
}

let probe m =
  m.probes <- Calib.sample () :: m.probes;
  m.n_probes <- m.n_probes + 1;
  m.last <- Clock.now ()

let create () =
  let m = { last = 0.; probes = []; n_probes = 0; ops = []; wall = 0. } in
  probe m;
  m

(* probe the host if the last probe is [interval] old; call it between
   operations *)
let tick m = if Clock.now () -. m.last >= interval then probe m

(* run [f] as one timed operation *)
let time m f =
  let w0 = Clock.now () and c0 = Clock.cpu () in
  let r = f () in
  let c = Clock.cpu () -. c0 and w = Clock.now () -. w0 in
  m.ops <- (c, m.n_probes) :: m.ops;
  m.wall <- m.wall +. w;
  r

let wall m = m.wall

type summary = {
  scaled : float list;  (** seconds per operation at reference speed, in run order *)
  cpu_s : float;  (** summed CPU time of the operations *)
  wall_s : float;  (** summed wall time of the operations *)
  slowdown : float;  (** median probe time over the reference's *)
}

(* probes on each side of an operation that its speed estimate
   averages.  The host flips between fast and slow spells within a
   second, and one probe sees only the spell it ran in; the mean over
   a few neighbours estimates the share of each around the operation.
   Over four 25 s explore runs this halved the spread of p90 against
   the two adjacent probes alone, and left that of p50 under 2 %. *)
let window = 3

(* close the run with a last probe, so every operation has one after it *)
let finish m =
  probe m;
  let probes = Array.of_list (List.rev m.probes) in
  let n = Array.length probes in
  (* the mean of the [window] probes before and the [window] after the
     operation that was timed after probe [k - 1] *)
  let speed k =
    let lo = max 0 (k - window) and hi = min n (k + window) in
    Stats.sum (Array.to_list (Array.sub probes lo (hi - lo))) /. float_of_int (hi - lo)
  in
  let scaled = List.rev_map (fun (c, k) -> c *. Calib.reference_s /. speed k) m.ops in
  {
    scaled;
    cpu_s = Stats.sum (List.map fst m.ops);
    wall_s = m.wall;
    slowdown = Stats.median (Array.to_list probes) /. Calib.reference_s;
  }
