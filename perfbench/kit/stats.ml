(* Order statistics with the reporting rule the benchmark uses for every
   timing: the median, plus the highest percentile that still has at
   least [min_tail] samples beyond it, always with the sample count. *)

let min_tail = 10

(* The nearest rank of percentile [p] among [n] samples: the count of
   samples at or below it, ceil (p/100 * n), with float noise rounded
   away so that 99.9% of 10000 is rank 9990, not 9991. *)
let rank ~n p =
  let x = p *. float_of_int n /. 100. in
  let r = Float.round x in
  max 1 (int_of_float (if Float.abs (x -. r) < 1e-6 then r else Float.ceil x))

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p]% of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(min (n - 1) (rank ~n p - 1))

(* Whether percentile [p] of [n] samples has at least [min_tail] samples
   strictly beyond it. *)
let supported ~n p = n - rank ~n p >= min_tail

let ladder = [ 99.99; 99.9; 99.; 95.; 90.; 75.; 50. ]

(* The highest percentile of [ladder] that [n] samples support, if any. *)
let highest_supported n = List.find_opt (supported ~n) ladder

type summary = { n : int; p50 : int; p99 : int option; top : (float * int) option }

let summarize samples =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then { n; p50 = 0; p99 = None; top = None }
  else
    {
      n;
      p50 = percentile a 50.;
      p99 = (if supported ~n 99. then Some (percentile a 99.) else None);
      top = Option.map (fun p -> (p, percentile a p)) (highest_supported n);
    }

let median_float l =
  match List.sort compare l with
  | [] -> invalid_arg "Stats.median_float: empty"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
