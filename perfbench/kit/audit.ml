(* Output audits.  Every value a workload moves is checked on the way
   out; each detected anomaly is one failure.

   - [Fp] is a multiset fingerprint (count, sum, sum of a 63-bit mix):
     producers add what they send, consumers what they receive, and the
     merged fingerprints must be equal.  A lost or duplicated value
     changes the count; a loss masked by a duplicate changes the sums
     (up to a collision of the mix).
   - [Order] checks that each consumer sees every producer's values in
     increasing sequence order — what a linearizable FIFO guarantees
     per producer, whatever the interleaving.
   - [Fifo] checks a single-producer stream value by value.

   All updates are integer arithmetic on preallocated records, so the
   checks run inside timed loops without allocating. *)

(* splitmix64's finalizer with its multipliers cut to OCaml's 63-bit
   ints (still odd, so each step stays a bijection). *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x3f58476d1ce4e5b9 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x14d049bb133111eb in
  x lxor (x lsr 31)

module Fp = struct
  type t = { mutable count : int; mutable sum : int; mutable hsum : int }

  let create () = { count = 0; sum = 0; hsum = 0 }

  let add t v =
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    t.hsum <- t.hsum + mix v

  let merge l =
    let r = create () in
    List.iter
      (fun t ->
        r.count <- r.count + t.count;
        r.sum <- r.sum + t.sum;
        r.hsum <- r.hsum + t.hsum)
      l;
    r

  (* Failures between what was sent and what was received: the count
     difference, or one if only the sums disagree. *)
  let failures ~sent ~received =
    let d = abs (sent.count - received.count) in
    if d > 0 then d else if sent.sum <> received.sum || sent.hsum <> received.hsum then 1 else 0
end

module Order = struct
  type t = { last : int array; mutable violations : int }

  let create ~producers = { last = Array.make producers (-1); violations = 0 }

  let observe t ~producer ~seq =
    if seq <= Array.unsafe_get t.last producer then t.violations <- t.violations + 1
    else Array.unsafe_set t.last producer seq
end

(* A value that is not the successor of the one before it is a
   violation; a lost tail shows in the fingerprint's count instead. *)
module Fifo = struct
  type t = { mutable next : int; mutable violations : int }

  let create ~first = { next = first; violations = 0 }

  let observe t v =
    if v <> t.next then t.violations <- t.violations + 1;
    t.next <- v + 1
end
