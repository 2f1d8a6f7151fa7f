(* Parent-versus-change verdicts for one end-to-end metric on one
   workload, over runs paired by position (run i of the parent against
   run i of the change):

   - regression: the change's median is worse than the parent's by more
     than the metric's bound (a share of the parent's median);
   - unresolved: the parent's own quartile spread is wider than the
     bound, and not every change run beats every parent run;
   - gain: the change wins at least nine tenths of the pairs (ties count
     for neither) and the medians differ by more than the parent's
     interquartile distance;
   - unchanged: none of the above. *)

type t = Regression | Unresolved | Gain | Unchanged

let to_string = function
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"
  | Gain -> "gain"
  | Unchanged -> "unchanged"

type row = {
  parent_q : float * float * float;  (* q1, median, q3 *)
  change_q : float * float * float;
  wins : int;  (* pairs in which the change reads better *)
  pairs : int;
  verdict : t;
}

let judge (m : Spec.metric) ~parent ~change =
  if parent = [] || change = [] then invalid_arg "Verdict.judge: no runs";
  let better a b =
    match m.Spec.better with Spec.Higher -> a > b | Spec.Lower -> a < b
  in
  let pairs = min (List.length parent) (List.length change) in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let wins =
    List.length
      (List.filter (fun (p, c) -> better c p)
         (List.combine (take parent) (take change)))
  in
  let ((p1, pm, p3) as parent_q) = Stats.quartiles parent in
  let change_q = Stats.quartiles change in
  let _, cm, _ = change_q in
  let bound = Option.value ~default:0.0 m.Spec.bound in
  let scale = Float.abs pm in
  let worse_by =
    if scale = 0.0 then 0.0
    else
      match m.Spec.better with
      | Spec.Higher -> (pm -. cm) /. scale
      | Spec.Lower -> (cm -. pm) /. scale
  in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
  in
  let verdict =
    if worse_by > bound then Regression
    else if Stats.spread parent > bound && not all_better then
      Unresolved
    else if
      10 * wins >= 9 * pairs && better cm pm && Float.abs (cm -. pm) > p3 -. p1
    then Gain
    else Unchanged
  in
  { parent_q; change_q; wins; pairs; verdict }
