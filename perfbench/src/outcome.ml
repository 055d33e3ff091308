(* What one untraced workload run measured and checked. *)

type t = {
  attempted : int;
  failed : int;
  failures : string list;  (** the first few check failures, for the log *)
  timing : Meter.summary;  (** the operations' times *)
  items : int;  (** work items completed: requests, candidates or deploys *)
  setup_s : float;  (** median set-up time at reference speed *)
  domains : int;  (** domains the workload ran on *)
  peak_rss_mb : float;
  output_digest : string;  (** digest of every checked output, for determinism *)
  input_digest : string;  (** digest of the generated inputs *)
  sizes : (string * Serve.Json.t) list;  (** input sizes for the run record *)
}

(* a running digest over a run's inputs or outputs, in constant memory
   whatever the run length (so peak RSS does not grow with it) *)
type digest = { mutable acc : Digest.t }

let digest () = { acc = Digest.string "" }
let add d s = d.acc <- Digest.string (d.acc ^ s)
let hex d = Digest.to_hex d.acc

(* failure bookkeeping shared by the workloads: a failed check or an
   exception marks the operation failed; it is never retried *)
type checks = { mutable n_failed : int; mutable messages : string list }

let checks () = { n_failed = 0; messages = [] }

let fail c msg =
  c.n_failed <- c.n_failed + 1;
  if List.length c.messages < 8 then c.messages <- msg :: c.messages

(* run [f] as operation [what]: false and a recorded failure if it
   raises or returns false *)
let check c what f =
  match f () with
  | true -> true
  | false ->
      fail c (what ^ ": check failed");
      false
  | exception e ->
      fail c (what ^ ": " ^ Printexc.to_string e);
      false

(* time-boxed closed loop: run operation [i] for i = 0, 1, ... until
   either [ops] operations ran or their summed wall time reached
   [seconds] at the end of a whole [block] of operations.  A workload
   whose blocks hold the same mix of work thus measures the same mix
   whatever the seed and however fast the host.  [step] times its
   operation with [Meter.time m] and runs its checks outside that. *)
let until ?(block = 1) ~seconds ~ops m step =
  let i = ref 0 in
  let continue () =
    match ops with
    | Some n -> !i < n
    | None -> Meter.wall m < seconds || !i mod block <> 0
  in
  while continue () do
    Meter.tick m;
    step !i;
    incr i
  done;
  !i

(* median over [repeats] set-ups at reference speed, each one between
   two speed probes; every set-up but the last is torn down, the last
   one is returned for the measured run *)
let setup ~repeats ~create ~destroy =
  let m = Meter.create () in
  let rec go k =
    (* each set-up starts from a collected heap, so it does not pay
       for the garbage of the one torn down before it *)
    Gc.full_major ();
    Meter.probe m;
    let x = Meter.time m create in
    Meter.probe m;
    if k + 1 < repeats then begin
      destroy x;
      go (k + 1)
    end
    else x
  in
  let x = go 0 in
  (x, Stats.median (Meter.finish m).Meter.scaled)
