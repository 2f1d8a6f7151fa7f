(* Order statistics for benchmark samples.

   Quartiles follow Python's [statistics.quantiles(xs, n=4)] (the
   "exclusive" method), so a spread computed here matches one computed
   from the same values by any script that reads the results.
   Percentiles are nearest-rank and carry their own reportability rule:
   a percentile is worth printing only when at least ten samples lie
   beyond it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [statistics.quantiles(xs, n=4)]: cut points at i*(m+1)/4 with linear
   interpolation, clamped to the data's inner range.  One sample is its
   own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then a.(0), a.(0), a.(0)
  else
    let m = ld + 1 and n = 4 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    cut 1, cut 2, cut 3

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

(* A percentile as the exact fraction [num/den] (p99 = 99/100,
   p99.9 = 999/1000), so ranks are integer arithmetic. *)
type pct = { num : int; den : int }

let p50 = { num = 1; den = 2 }
let p99 = { num = 99; den = 100 }
let p999 = { num = 999; den = 1000 }

(* 1-based nearest rank: the smallest rank r with r/n >= num/den. *)
let rank p n = ((p.num * n) + p.den - 1) / p.den

(* Samples strictly above the percentile's rank. *)
let beyond p n = n - rank p n

(* At least ten samples beyond: the rule for printing a tail percentile. *)
let reportable p n = beyond p n >= 10

(* Nearest-rank percentile of an already sorted array. *)
let percentile p (a : float array) =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples"
  else a.(max 0 (rank p n - 1))
