(* Nearest rank, 1-based, in exact integer arithmetic on tenths of a
   percent: float products such as 0.999 *. 10_000. land just above the
   integer and would ceil one rank too high. *)
let rank ~n p =
  let tenths = int_of_float (Float.round (p *. 10.0)) in
  Int.max 1 (Int.min n (((tenths * n) + 999) / 1000))

let beyond ~n p = n - rank ~n p

let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let tail_percentile n = List.find_opt (fun p -> beyond ~n p >= 10) ladder

let percentile xs p =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys.(rank ~n:(Array.length ys) p - 1)

let quartiles xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Quant.quartiles: need at least two values";
  let ys = Array.copy xs in
  Array.sort compare ys;
  (* statistics.quantiles(method="exclusive"): position i*(n+1)/4,
     clamped to [1, n-1], interpolated with exact integer weights. *)
  let q i =
    let m = n + 1 in
    let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((ys.(j - 1) *. float_of_int (4 - delta)) +. (ys.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

let spread xs =
  let q1, med, q3 = quartiles xs in
  (q3 -. q1) /. med

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg (Printf.sprintf "Quant.better_of_string: %S" s)

let within_bound ~better ~bound ~base v =
  match better with
  | Lower -> v <= base *. (1.0 +. bound)
  | Higher -> v >= base *. (1.0 -. bound)
