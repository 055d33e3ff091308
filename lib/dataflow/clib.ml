module M = Numerics.Matrix
module I = Interval

(* interval image of an affine row Σ scale·port (+ extra terms),
   hulled over the rows of a gain matrix — shared by the matrix-gain
   and state-feedback transfers *)
let rows_hull ~rows row =
  let acc = ref (row 0) in
  for r = 1 to rows - 1 do
    acc := I.join !acc (row r)
  done;
  [| !acc |]

let constant ?(name = "const") v =
  let v = Array.copy v in
  Block.make ~name ~out_widths:[| Array.length v |]
    ~transfer:(Block.Static [| I.hull v |])
    (fun _ -> [| Array.copy v |])

let gain ?(name = "gain") k =
  Block.make ~name ~in_widths:[| 1 |] ~out_widths:[| 1 |] ~feedthrough:true
    ~always_active:true
    ~transfer:(Block.Map (fun ins -> [| I.scale k ins.(0) |]))
    (fun ctx -> [| [| k *. ctx.Block.inputs.(0).(0) |] |])

let matrix_gain ?(name = "matrix_gain") k =
  let transfer ins =
    rows_hull ~rows:(M.rows k) (fun r ->
        let acc = ref (I.point 0.) in
        for j = 0 to M.cols k - 1 do
          acc := I.add !acc (I.scale (M.get k r j) ins.(0))
        done;
        !acc)
  in
  Block.make ~name ~in_widths:[| M.cols k |] ~out_widths:[| M.rows k |] ~feedthrough:true
    ~always_active:true ~transfer:(Block.Map transfer) (fun ctx ->
      [| M.mul_vec k ctx.Block.inputs.(0) |])

let sum ?(name = "sum") signs =
  if Array.length signs = 0 then invalid_arg "Clib.sum: no inputs";
  let transfer ins =
    let acc = ref (I.point 0.) in
    Array.iteri (fun i s -> acc := I.add !acc (I.scale s ins.(i))) signs;
    [| !acc |]
  in
  Block.make ~name
    ~in_widths:(Array.map (fun _ -> 1) signs)
    ~out_widths:[| 1 |] ~feedthrough:true ~always_active:true
    ~transfer:(Block.Map transfer) (fun ctx ->
      let acc = ref 0. in
      Array.iteri (fun i s -> acc := !acc +. (s *. ctx.Block.inputs.(i).(0))) signs;
      [| [| !acc |] |])

let product ?(name = "product") n =
  if n <= 0 then invalid_arg "Clib.product: need at least one input";
  let transfer ins = [| Array.fold_left I.mul (I.point 1.) ins |] in
  Block.make ~name ~in_widths:(Array.make n 1) ~out_widths:[| 1 |] ~feedthrough:true
    ~always_active:true ~transfer:(Block.Map transfer) (fun ctx ->
      let acc = ref 1. in
      Array.iter (fun u -> acc := !acc *. u.(0)) ctx.Block.inputs;
      [| [| !acc |] |])

let divide ?(name = "divide") () =
  Block.make ~name ~in_widths:[| 1; 1 |] ~out_widths:[| 1 |] ~feedthrough:true
    ~always_active:true
    ~transfer:(Block.Map (fun ins -> [| I.div ins.(0) ins.(1) |]))
    ~guards:[ Block.Nonzero 1 ]
    (fun ctx -> [| [| ctx.Block.inputs.(0).(0) /. ctx.Block.inputs.(1).(0) |] |])

let sqrt_op ?(name = "sqrt") () =
  Block.make ~name ~in_widths:[| 1 |] ~out_widths:[| 1 |] ~feedthrough:true
    ~always_active:true
    ~transfer:(Block.Map (fun ins -> [| I.sqrt_ ins.(0) |]))
    ~guards:[ Block.Nonnegative 0 ]
    (fun ctx -> [| [| sqrt ctx.Block.inputs.(0).(0) |] |])

let log_op ?(name = "log") () =
  Block.make ~name ~in_widths:[| 1 |] ~out_widths:[| 1 |] ~feedthrough:true
    ~always_active:true
    ~transfer:(Block.Map (fun ins -> [| I.log_ ins.(0) |]))
    ~guards:[ Block.Positive 0 ]
    (fun ctx -> [| [| log ctx.Block.inputs.(0).(0) |] |])

let saturation ?(name = "saturation") ~lo ~hi () =
  if lo >= hi then invalid_arg "Clib.saturation: lo >= hi";
  Block.make ~name ~in_widths:[| 1 |] ~out_widths:[| 1 |] ~feedthrough:true
    ~always_active:true
    ~transfer:(Block.Map (fun ins -> [| I.clamp ~lo ~hi ins.(0) |]))
    ~clamp:(lo, hi)
    (fun ctx -> [| [| Float.max lo (Float.min hi ctx.Block.inputs.(0).(0)) |] |])

let mux ?(name = "mux") widths =
  let total = Array.fold_left ( + ) 0 widths in
  let transfer ins =
    if Array.length ins = 0 then [| I.point 0. |]
    else [| Array.fold_left I.join ins.(0) ins |]
  in
  Block.make ~name ~in_widths:widths ~out_widths:[| total |] ~feedthrough:true
    ~always_active:true ~transfer:(Block.Map transfer) (fun ctx ->
      [| Array.concat (Array.to_list ctx.Block.inputs) |])

let demux ?(name = "demux") widths =
  let total = Array.fold_left ( + ) 0 widths in
  Block.make ~name ~in_widths:[| total |] ~out_widths:widths ~feedthrough:true
    ~always_active:true
    ~transfer:(Block.Map (fun ins -> Array.map (fun _ -> ins.(0)) widths))
    (fun ctx ->
      let v = ctx.Block.inputs.(0) in
      let offset = ref 0 in
      Array.map
        (fun w ->
          let part = Array.sub v !offset w in
          offset := !offset + w;
          part)
        widths)

let step_source ?(name = "step") ?(at = 0.) ?(before = 0.) ~after () =
  Block.make ~name ~out_widths:[| 1 |] ~always_active:true
    ~transfer:(Block.Static [| I.join (I.point before) (I.point after) |])
    (fun ctx -> [| [| (if ctx.Block.time >= at then after else before) |] |])

let sine_source ?(name = "sine") ?(amplitude = 1.) ?(phase = 0.) ~freq_hz () =
  let a = Float.abs amplitude in
  Block.make ~name ~out_widths:[| 1 |] ~always_active:true
    ~transfer:(Block.Static [| I.v (-.a) a |])
    (fun ctx ->
      [| [| amplitude *. sin ((2. *. Float.pi *. freq_hz *. ctx.Block.time) +. phase) |] |])

let integrator ?(name = "integrator") x0 =
  let n = Array.length x0 in
  (* the state drifts monotonically in the direction the derivative
     sign allows: a one-signed input keeps one bound at its initial
     value, a zero input freezes the state entirely *)
  let step ~prev ins =
    let d = ins.(0) and p = prev.(0) in
    [|
      I.v
        (if d.I.lo < 0. then neg_infinity else p.I.lo)
        (if d.I.hi > 0. then infinity else p.I.hi);
    |]
  in
  Block.make ~name ~in_widths:[| n |] ~out_widths:[| n |] ~cstate0:(Array.copy x0)
    ~always_active:true
    ~transfer:(Block.Update { init = [| I.hull x0 |]; step; tracks_input = false })
    ~derivatives:(fun ctx -> ctx.Block.inputs.(0))
    (fun ctx -> [| Array.copy ctx.Block.cstate |])

let lti_continuous ?name ?(split_inputs = false) ?(split_outputs = false) ~x0
    (sys : Control.Lti.t) =
  (match sys.domain with
  | Control.Lti.Continuous -> ()
  | Control.Lti.Discrete _ -> invalid_arg "Clib.lti_continuous: discrete system");
  if Array.length x0 <> Control.Lti.state_dim sys then
    invalid_arg "Clib.lti_continuous: x0 dimension mismatch";
  let name = Option.value name ~default:"plant" in
  let m = Control.Lti.input_dim sys and p = Control.Lti.output_dim sys in
  let in_widths = if split_inputs then Array.make m 1 else [| m |] in
  let out_widths = if split_outputs then Array.make p 1 else [| p |] in
  let feedthrough = M.norm_inf sys.d > 0. in
  (* dx = A x + B u into one reused buffer, with the float operations of
     [Control.Lti.deriv]: each row sum starts at 0 and adds its terms in
     column order, then the two sums are added *)
  let n = Array.length x0 in
  let a = Array.init (n * n) (fun k -> M.get sys.a (k / n) (k mod n)) in
  let b = Array.init (n * m) (fun k -> M.get sys.b (k / m) (k mod m)) in
  let dx = Array.make n 0. in
  let derivatives ctx =
    let x = ctx.Block.cstate and inputs = ctx.Block.inputs in
    for i = 0 to n - 1 do
      let ax = ref 0. in
      for j = 0 to n - 1 do
        ax := !ax +. (a.((i * n) + j) *. x.(j))
      done;
      let bu = ref 0. in
      for j = 0 to m - 1 do
        let u = if split_inputs then inputs.(j).(0) else inputs.(0).(j) in
        bu := !bu +. (b.((i * m) + j) *. u)
      done;
      dx.(i) <- !ax +. !bu
    done;
    dx
  in
  (* y = C x + D u into reused rows, with the float operations of
     [Control.Lti.output]: the row sum of C x, then that of D u, then
     their sum *)
  let c = Array.init (p * n) (fun k -> M.get sys.c (k / n) (k mod n)) in
  let d = Array.init (p * m) (fun k -> M.get sys.d (k / m) (k mod m)) in
  let y = Array.make p 0. in
  let rows = if split_outputs then Array.init p (fun _ -> [| 0. |]) else [| y |] in
  let outputs ctx =
    let x = ctx.Block.cstate and inputs = ctx.Block.inputs in
    for i = 0 to p - 1 do
      let cx = ref 0. in
      for j = 0 to n - 1 do
        cx := !cx +. (c.((i * n) + j) *. x.(j))
      done;
      let du = ref 0. in
      for j = 0 to m - 1 do
        let u = if split_inputs then inputs.(j).(0) else inputs.(0).(j) in
        du := !du +. (d.((i * m) + j) *. u)
      done;
      y.(i) <- !cx +. !du
    done;
    if split_outputs then
      for i = 0 to p - 1 do
        rows.(i).(0) <- y.(i)
      done;
    rows
  in
  Block.make ~name ~in_widths ~out_widths ~cstate0:(Array.copy x0) ~feedthrough
    ~always_active:true ~derivatives outputs

let state_feedback ?(name = "state_feedback") k =
  let n = M.cols k and m = M.rows k in
  let held = ref (Array.make m 0.) in
  let step ~prev:_ ins =
    rows_hull ~rows:m (fun r ->
        let acc = ref (I.point 0.) in
        for j = 0 to n - 1 do
          acc := I.add !acc (I.scale (-.M.get k r j) ins.(j))
        done;
        !acc)
  in
  Block.make ~name ~in_widths:(Array.make n 1) ~out_widths:[| m |] ~event_inputs:1
    ~transfer:(Block.Update { init = [| I.point 0. |]; step; tracks_input = false })
    ~on_event:(fun ctx ~port:_ ->
      let x = Array.map (fun v -> v.(0)) ctx.Block.inputs in
      held := Array.map (fun u -> -.u) (M.mul_vec k x);
      [])
    ~reset:(fun () -> held := Array.make m 0.)
    (fun _ -> [| Array.copy !held |])

let lqg ?(name = "lqg") ~sysd ~k ~kalman () =
  (match sysd.Control.Lti.domain with
  | Control.Lti.Discrete _ -> ()
  | Control.Lti.Continuous -> invalid_arg "Clib.lqg: observer model must be discrete");
  let n = Control.Lti.state_dim sysd in
  let m = Control.Lti.input_dim sysd in
  let p = Control.Lti.output_dim sysd in
  if M.rows k <> m || M.cols k <> n then invalid_arg "Clib.lqg: gain must be m x n";
  let l_gain = kalman.Control.Kalman.l in
  if M.rows l_gain <> n || M.cols l_gain <> p then
    invalid_arg "Clib.lqg: Kalman gain must be n x p";
  let xhat = ref (Array.make n 0.) in
  let held = ref (Array.make m 0.) in
  Block.make ~name ~in_widths:(Array.make p 1) ~out_widths:[| m |] ~event_inputs:1
    ~on_event:(fun ctx ~port:_ ->
      let y = Array.map (fun v -> v.(0)) ctx.Block.inputs in
      (* control from the predicted estimate, then measurement update *)
      let u = Array.map (fun v -> -.v) (M.mul_vec k !xhat) in
      let innovation =
        Numerics.Vec.sub y (Control.Lti.output sysd !xhat u)
      in
      xhat :=
        Numerics.Vec.add
          (Control.Lti.step_discrete sysd !xhat u)
          (M.mul_vec l_gain innovation);
      held := u;
      [])
    ~reset:(fun () ->
      xhat := Array.make n 0.;
      held := Array.make m 0.)
    (fun _ -> [| Array.copy !held |])

let delayed_state_feedback ?(name = "delayed_state_feedback") k =
  let m = M.rows k in
  let n = M.cols k - m in
  if n <= 0 then invalid_arg "Clib.delayed_state_feedback: K must have n + m columns";
  let u_prev = ref (Array.make m 0.) in
  let held = ref (Array.make m 0.) in
  (* the augmented state feeds the previous output back through the
     last m columns of K, so the abstract step reads prev.(0) there *)
  let step ~prev ins =
    rows_hull ~rows:m (fun r ->
        let acc = ref (I.point 0.) in
        for j = 0 to n - 1 do
          acc := I.add !acc (I.scale (-.M.get k r j) ins.(j))
        done;
        for j = n to n + m - 1 do
          acc := I.add !acc (I.scale (-.M.get k r j) prev.(0))
        done;
        !acc)
  in
  Block.make ~name ~in_widths:(Array.make n 1) ~out_widths:[| m |] ~event_inputs:1
    ~transfer:(Block.Update { init = [| I.point 0. |]; step; tracks_input = false })
    ~on_event:(fun ctx ~port:_ ->
      let x = Array.map (fun v -> v.(0)) ctx.Block.inputs in
      let aug = Array.append x !u_prev in
      let u = Array.map (fun v -> -.v) (M.mul_vec k aug) in
      u_prev := Array.copy u;
      held := u;
      [])
    ~reset:(fun () ->
      u_prev := Array.make m 0.;
      held := Array.make m 0.)
    (fun _ -> [| Array.copy !held |])

let lti_discrete ?name ~x0 (sys : Control.Lti.t) =
  (match sys.domain with
  | Control.Lti.Discrete _ -> ()
  | Control.Lti.Continuous -> invalid_arg "Clib.lti_discrete: continuous system");
  if Array.length x0 <> Control.Lti.state_dim sys then
    invalid_arg "Clib.lti_discrete: x0 dimension mismatch";
  let name = Option.value name ~default:"controller" in
  let x = ref (Array.copy x0) in
  let held = ref (Array.make (Control.Lti.output_dim sys) 0.) in
  Block.make ~name
    ~in_widths:[| Control.Lti.input_dim sys |]
    ~out_widths:[| Control.Lti.output_dim sys |]
    ~event_inputs:1
    ~on_event:(fun ctx ~port:_ ->
      let u = ctx.Block.inputs.(0) in
      held := Control.Lti.output sys !x u;
      x := Control.Lti.step_discrete sys !x u;
      [])
    ~reset:(fun () ->
      x := Array.copy x0;
      held := Array.make (Control.Lti.output_dim sys) 0.)
    (fun _ -> [| Array.copy !held |])

let sample_hold ?(name = "sample_hold") ?initial width =
  let initial =
    match initial with
    | Some v ->
        if Array.length v <> width then invalid_arg "Clib.sample_hold: initial width";
        Array.copy v
    | None -> Array.make width 0.
  in
  let held = ref (Array.copy initial) in
  Block.make ~name ~in_widths:[| width |] ~out_widths:[| width |] ~event_inputs:1
    ~transfer:
      (Block.Update
         {
           init = [| I.hull initial |];
           step = (fun ~prev:_ ins -> [| ins.(0) |]);
           tracks_input = true;
         })
    ~on_event:(fun ctx ~port:_ ->
      held := Array.copy ctx.Block.inputs.(0);
      [])
    ~reset:(fun () -> held := Array.copy initial)
    (fun _ -> [| Array.copy !held |])

let unit_delay ?(name = "unit_delay") y0 =
  let width = Array.length y0 in
  let held = ref (Array.copy y0) in
  let next = ref (Array.copy y0) in
  Block.make ~name ~in_widths:[| width |] ~out_widths:[| width |] ~event_inputs:1
    ~transfer:
      (Block.Update
         {
           init = [| I.hull y0 |];
           step = (fun ~prev:_ ins -> [| ins.(0) |]);
           tracks_input = true;
         })
    ~on_event:(fun ctx ~port:_ ->
      held := !next;
      next := Array.copy ctx.Block.inputs.(0);
      [])
    ~reset:(fun () ->
      held := Array.copy y0;
      next := Array.copy y0)
    (fun _ -> [| Array.copy !held |])

let pid ?(name = "pid") controller =
  let held = ref 0. in
  let g = Control.Pid.gains controller in
  let ts = Control.Pid.ts controller in
  let umin, umax = Control.Pid.limits controller in
  (* abstract image of one Pid.step: u = clamp(P + I + D).  The
     integral is bounded only by the anti-windup clamp; the filtered
     derivative is a convex combination of raw slopes, so its hull
     with the zero initial state covers every filter state. *)
  let step ~prev:_ ins =
    let e = I.sub ins.(0) ins.(1) in
    let p = I.scale g.Control.Pid.kp e in
    let i =
      if g.Control.Pid.ki = 0. then I.point 0.
      else
        match Control.Pid.windup controller with
        | Some w -> I.v (-.Float.abs w) (Float.abs w)
        | None -> I.top
    in
    let d =
      if g.Control.Pid.kd = 0. then I.point 0.
      else I.join (I.point 0.) (I.scale (g.Control.Pid.kd /. ts) (I.sub e e))
    in
    let u = I.add (I.add p i) d in
    [| I.clamp ?lo:umin ?hi:umax u |]
  in
  Block.make ~name ~in_widths:[| 1; 1 |] ~out_widths:[| 1 |] ~event_inputs:1
    ~transfer:(Block.Update { init = [| I.point 0. |]; step; tracks_input = false })
    ~on_event:(fun ctx ~port:_ ->
      let r = ctx.Block.inputs.(0).(0) and y = ctx.Block.inputs.(1).(0) in
      held := Control.Pid.step controller ~r ~y;
      [])
    ~reset:(fun () ->
      Control.Pid.reset controller;
      held := 0.)
    (fun _ -> [| [| !held |] |])

let stateful ~name ~in_widths ~out_widths ?(reset = fun () -> ()) ?transfer step =
  let zero () = Array.map (fun w -> Array.make w 0.) out_widths in
  let held = ref (zero ()) in
  Block.make ~name ~in_widths ~out_widths ~event_inputs:1 ?transfer
    ~on_event:(fun ctx ~port:_ ->
      let out = step ctx.Block.inputs in
      if Array.length out <> Array.length out_widths then
        invalid_arg (Printf.sprintf "Block %S: step returned wrong port count" name);
      held := out;
      [])
    ~reset:(fun () ->
      reset ();
      held := zero ())
    (fun _ -> Array.map Array.copy !held)

let pure_fn ~name ~in_widths ~out_widths ?transfer f =
  Block.make ~name ~in_widths ~out_widths ~feedthrough:true ~always_active:true ?transfer
    (fun ctx -> f ctx.Block.inputs)

let relay ?(name = "relay") ?(initially_on = false) ~on_above ~off_below ~out_on ~out_off
    () =
  if off_below > on_above then invalid_arg "Clib.relay: off_below > on_above";
  let on = ref initially_on in
  Block.make ~name ~in_widths:[| 1 |] ~out_widths:[| 1 |] ~event_outputs:1 ~surfaces:2
    ~always_active:true
    ~transfer:(Block.Static [| I.join (I.point out_on) (I.point out_off) |])
    ~crossings:(fun ctx ->
      let u = ctx.Block.inputs.(0).(0) in
      [| u -. on_above; u -. off_below |])
    ~on_crossing:(fun _ ~surface ~rising ->
      let toggled =
        match surface with
        | 0 when rising && not !on ->
            on := true;
            true
        | 1 when (not rising) && !on ->
            on := false;
            true
        | _ -> false
      in
      if toggled then [ Block.Emit { port = 0; delay = 0. } ] else [])
    ~reset:(fun () -> on := initially_on)
    (fun _ -> [| [| (if !on then out_on else out_off) |] |])

let quantizer ?(name = "quantizer") ~step () =
  if step <= 0. then invalid_arg "Clib.quantizer: non-positive step";
  let half = step /. 2. in
  Block.make ~name ~in_widths:[| 1 |] ~out_widths:[| 1 |] ~feedthrough:true
    ~always_active:true
    ~transfer:
      (Block.Map (fun ins -> [| I.add ins.(0) (I.v (-.half) half) |]))
    (fun ctx -> [| [| step *. Float.round (ctx.Block.inputs.(0).(0) /. step) |] |])

let rate_limiter ?(name = "rate_limiter") ~rising ~falling () =
  if rising <= 0. || falling <= 0. then invalid_arg "Clib.rate_limiter: non-positive rate";
  let held = ref 0. in
  let last_time = ref Float.nan in
  Block.make ~name ~in_widths:[| 1 |] ~out_widths:[| 1 |] ~event_inputs:1
    ~transfer:
      (* the output chases the input and never overshoots it, so the
         reachable set is the hull of the initial state and the input *)
      (Block.Update
         {
           init = [| I.point 0. |];
           step = (fun ~prev:_ ins -> [| ins.(0) |]);
           tracks_input = true;
         })
    ~on_event:(fun ctx ~port:_ ->
      let u = ctx.Block.inputs.(0).(0) in
      (if Float.is_nan !last_time then held := u
       else begin
         let dt = ctx.Block.time -. !last_time in
         let delta = u -. !held in
         let bounded = Float.max (-.falling *. dt) (Float.min (rising *. dt) delta) in
         held := !held +. bounded
       end);
      last_time := ctx.Block.time;
      [])
    ~reset:(fun () ->
      held := 0.;
      last_time := Float.nan)
    (fun _ -> [| [| !held |] |])

let dead_zone ?(name = "dead_zone") ~width () =
  if width < 0. then invalid_arg "Clib.dead_zone: negative width";
  let dz u = if u > width then u -. width else if u < -.width then u +. width else 0. in
  Block.make ~name ~in_widths:[| 1 |] ~out_widths:[| 1 |] ~feedthrough:true
    ~always_active:true
    (* dz is monotone, so the image of an interval is the interval of
       the endpoint images *)
    ~transfer:(Block.Map (fun ins -> [| I.v (dz ins.(0).I.lo) (dz ins.(0).I.hi) |]))
    (fun ctx -> [| [| dz ctx.Block.inputs.(0).(0) |] |])

let lookup_table ?(name = "lookup_table") table =
  let lo, hi = Numerics.Interp.codomain table in
  Block.make ~name ~in_widths:[| 1 |] ~out_widths:[| 1 |] ~feedthrough:true
    ~always_active:true
    ~transfer:(Block.Static [| I.v lo hi |])
    (fun ctx -> [| [| Numerics.Interp.eval table ctx.Block.inputs.(0).(0) |] |])

let biquad ?(name = "biquad") ~b ~a () =
  if Array.length a = 0 || Array.length a > 3 || Array.length b = 0 || Array.length b > 3
  then invalid_arg "Clib.biquad: coefficient arrays must have length 1..3";
  if a.(0) = 0. then invalid_arg "Clib.biquad: a.(0) must be nonzero";
  let coef arr i = if i < Array.length arr then arr.(i) /. a.(0) else 0. in
  let b0 = coef b 0 and b1 = coef b 1 and b2 = coef b 2 in
  let a1 = coef a 1 and a2 = coef a 2 in
  let s1 = ref 0. and s2 = ref 0. in
  let held = ref 0. in
  Block.make ~name ~in_widths:[| 1 |] ~out_widths:[| 1 |] ~event_inputs:1
    ~on_event:(fun ctx ~port:_ ->
      let u = ctx.Block.inputs.(0).(0) in
      let y = (b0 *. u) +. !s1 in
      s1 := (b1 *. u) -. (a1 *. y) +. !s2;
      s2 := (b2 *. u) -. (a2 *. y);
      held := y;
      [])
    ~reset:(fun () ->
      s1 := 0.;
      s2 := 0.;
      held := 0.)
    (fun _ -> [| [| !held |] |])

let noise_sample_hold ?(name = "noisy_sample") ~rng ~sigma width =
  let held = ref (Array.make width 0.) in
  Block.make ~name ~in_widths:[| width |] ~out_widths:[| width |] ~event_inputs:1
    ~on_event:(fun ctx ~port:_ ->
      held :=
        Array.map
          (fun x -> x +. Numerics.Rng.gaussian rng ~mu:0. ~sigma ())
          ctx.Block.inputs.(0);
      [])
    ~reset:(fun () -> held := Array.make width 0.)
    (fun _ -> [| Array.copy !held |])
