(* Monotonic clock in seconds, nanosecond resolution: span durations of
   sub-microsecond calls (a Pareto insert, a cache lookup) stay
   measurable.  Only differences are used. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU time of this process, user plus system, in seconds (getrusage,
   microsecond resolution).  It leaves out the time the process waits
   for a core: behind another process, or, on a guest with steal-time
   accounting, while the host runs someone else. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
