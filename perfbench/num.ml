(* Order statistics over samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100]; nan for no samples. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean = function
  | [] -> nan
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* How many samples lie strictly above the [p]th percentile. *)
let beyond xs p =
  let v = percentile xs p in
  List.length (List.filter (fun x -> x > v) xs)

let ms_of_ns ns = float_of_int ns /. 1e6

let us_of_ns ns = float_of_int ns /. 1e3
