(* Which operations of a loop to sample.  The gaps between samples are
   random, uniform in [1, 2 * mean], drawn from a seeded xorshift: a
   fixed stride would line the samples up with the program's own
   periodic events (segment boundaries every 1024 cells, rebalances
   every 64 values) and time only those.  The per-operation cost is one
   comparison. *)

type t = { mutable next : int; mutable state : int; mask : int }

let draw t =
  let x = t.state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.state <- x;
  1 + (x land t.mask)

(* [mean] is rounded down to a power of two. *)
let create ~seed ~mean =
  let rec pow2 p = if 2 * p <= mean then pow2 (2 * p) else p in
  let t = { next = 0; state = Audit.mix seed lor 1; mask = (2 * pow2 (max 1 mean)) - 1 } in
  t.next <- draw t - 1;
  t

(* Whether operation [i] (counted from 0, one call per value of [i]) is
   sampled; a [true] moves the sampler on to the next one. *)
let hit t i =
  if i = t.next then begin
    t.next <- i + draw t;
    true
  end
  else false
