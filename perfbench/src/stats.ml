(* Order statistics over latency samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile: the smallest sample with at least [p] % of
   the samples at or below it *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* samples strictly above the [p]-th percentile's rank *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

let sum xs = List.fold_left ( +. ) 0. xs
