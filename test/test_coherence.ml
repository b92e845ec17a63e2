(* The per-operation atomic-access budget, pinned exactly.

   The queue functor is instantiated over [Atomic_prims.Counting], which
   tallies every get/set/CAS/FAA of the calling domain, so the figures
   below are properties of the algorithm text, not of a host: they are
   the deterministic cost model the wall-clock benchmarks cannot give.
   Every [set] is a fenced write ([xchg] on x86) and every CAS takes its
   line exclusively, so these are the counts a hot-path change must not
   raise.

   The breakdown of the steady-state pair (one handle, mid-segment):
   - enqueue: hazard publish (get, set, get), the tail FAA, the tail
     pointer read, the deposit CAS, the hazard clear (set);
   - dequeue_or: hazard publish (get, set, get), the head FAA, the head
     pointer read, the cell load, the claim CAS, the peer-help check
     (request and state gets), the peer advance (ring get), the hazard
     clear (set), the cleanup gate (head pointer and [oldest] gets).
   No head/tail store (the segment did not change), no poison CAS (the
   cell already held a value), no T/H read in the cleanup gate (no
   garbage due). *)

module AP = Primitives.Atomic_prims
module C = AP.Counting (AP.Real)
module Q = Wfq.Wfqueue_algo.Make (C) (Obs.Probe.Disabled) (Inject.Disabled)

let counts =
  Alcotest.testable
    (fun ppf (c : AP.counts) ->
      Format.fprintf ppf "%d get + %d set + %d CAS + %d FAA" c.gets c.sets c.cas c.faa)
    ( = )

let measure f =
  C.reset ();
  f ();
  C.counts ()

let seg_size = 1 lsl 10
let max_garbage = 16

(* One reclamation period of a single handle doing pairs: the queue
   extends into a new segment every [seg_size] pairs, and a cleanup
   retires [max_garbage] segments to the pool once that many are
   behind the head.  After the first period every extension is served
   from the pool, so from then on any window of [period] consecutive
   pairs does exactly the same work. *)
let period = max_garbage * seg_size

(* A queue warmed past its fresh-allocation period, with the next pair
   at cell offset [seg_size / 2] of its segment. *)
let warm_queue () =
  let q = Q.create ~segment_shift:10 ~max_garbage () in
  let h = Q.register q in
  for i = 1 to (2 * period) + (seg_size / 2) do
    Q.enqueue q h i;
    ignore (Q.dequeue_or q h 0 : int)
  done;
  (q, h)

let test_counting_prims () =
  let r = C.make 0 in
  let c =
    measure (fun () ->
        C.set r 1;
        ignore (C.get r : int);
        ignore (C.compare_and_set r 1 2 : bool);
        ignore (C.fetch_and_add r 3 : int);
        ignore (C.get r : int))
  in
  Alcotest.check counts "one of each, two gets" { AP.gets = 2; sets = 1; cas = 1; faa = 1 } c;
  let arr = C.Counters.make ~len:2 ~init:0 in
  let c =
    measure (fun () ->
        ignore (C.Counters.fetch_and_add arr 1 5 : int);
        ignore (C.Counters.get arr 1 : int))
  in
  Alcotest.check counts "counter arrays" { AP.gets = 1; sets = 0; cas = 0; faa = 1 } c;
  (* per domain: another domain's accesses do not show here *)
  C.reset ();
  Domain.join (Domain.spawn (fun () -> for _ = 1 to 10 do ignore (C.get r : int) done));
  Alcotest.check counts "other domain not counted" { AP.gets = 0; sets = 0; cas = 0; faa = 0 }
    (C.counts ())

let pair q h v =
  Q.enqueue q h v;
  ignore (Q.dequeue_or q h 0 : int)

let test_steady_pair () =
  let q, h = warm_queue () in
  let enq = measure (fun () -> Q.enqueue q h 1) in
  let deq = measure (fun () -> ignore (Q.dequeue_or q h 0 : int)) in
  Alcotest.check counts "enqueue" { AP.gets = 3; sets = 2; cas = 1; faa = 1 } enq;
  Alcotest.check counts "dequeue_or" { AP.gets = 9; sets = 2; cas = 1; faa = 1 } deq;
  (* every in-segment pair costs the same *)
  for v = 1 to 64 do
    Alcotest.check counts
      (Printf.sprintf "pair %d" v)
      { AP.gets = 12; sets = 4; cas = 2; faa = 2 }
      (measure (fun () -> pair q h v))
  done

(* The whole period, amortized costs included, on top of [period]
   steady pairs (12 get + 4 set + 2 CAS + 2 FAA each):
   - the reset of [max_garbage] retired segments: a load of each of
     the 3 x [seg_size] cells, and a store only into the cells the
     protocol wrote — every value cell (a value) and every deq cell
     (claimed), never the enq plane of a fast-path-only segment:
     3072 get + 2048 set per segment;
   - [max_garbage] extensions: the enqueuer's walk and pool pop
     (2 get, pool CAS, 2 FAA, the [next] reset), the [next] CAS, one
     tail and one head store, the dequeuer's walk (1 get):
     3 get + 3 set + 2 CAS + 2 FAA each;
   - one cleanup: the gate's T/H reads, the token CAS, the handle's
     own head/tail updates, the ring read, the [q] swap and token
     release, two churn FAAs, the retired-chain walk and
     [max_garbage] pool pushes (get, FAA, CAS each):
     38 get + 2 set + 17 CAS + 18 FAA. *)
let test_steady_period () =
  let q, h = warm_queue () in
  let c = measure (fun () -> for v = 1 to period do pair q h v done) in
  let segs = max_garbage in
  let expected =
    {
      AP.gets = (12 * period) + (segs * 3 * seg_size) + (segs * 3) + 38;
      sets = (4 * period) + (segs * 2 * seg_size) + (segs * 3) + 2;
      cas = (2 * period) + (segs * 2) + 17;
      faa = (2 * period) + (segs * 2) + 18;
    }
  in
  Alcotest.check counts "period totals" expected c;
  Alcotest.(check bool) "at most 7 set per pair, amortized" true (c.sets <= 7 * period)

(* A batch inside one segment stores the tail pointer not at all (its
   segment does not change) and the head pointer likewise: only the
   hazard publish and clear write. *)
let test_batch_in_segment () =
  let q, h = warm_queue () in
  let k = 64 in
  let vs = Array.init k (fun i -> i + 1) in
  let enq = measure (fun () -> Q.enq_batch q h vs) in
  Alcotest.check counts "enq_batch of 64" { AP.gets = 2; sets = 2; cas = k; faa = 1 } enq;
  let out = Array.make k 0 in
  let deq = measure (fun () -> ignore (Q.deq_batch_into q h out ~default:0 : int)) in
  (* gets: hazard publish 2, a load per cell, peer help 3, cleanup
     gate 2 *)
  Alcotest.check counts "deq_batch_into of 64" { AP.gets = k + 7; sets = 2; cas = k; faa = 1 } deq

(* Across one segment boundary the tail pointer is stored once, not
   once per cell: the four sets are the hazard publish and clear, the
   pooled segment's [next] reset, and that one store. *)
let test_batch_across_boundary () =
  let q, h = warm_queue () in
  (* from offset seg_size/2, a batch of seg_size crosses exactly once *)
  let vs = Array.init seg_size (fun i -> i + 1) in
  let enq = measure (fun () -> Q.enq_batch q h vs) in
  Alcotest.check counts "enq_batch across one boundary"
    { AP.gets = 4; sets = 4; cas = seg_size + 2; faa = 3 }
    enq

let () =
  Alcotest.run "coherence"
    [
      ("counting", [ Alcotest.test_case "primitives" `Quick test_counting_prims ]);
      ( "wfqueue",
        [
          Alcotest.test_case "steady pair" `Quick test_steady_pair;
          Alcotest.test_case "steady period" `Quick test_steady_period;
          Alcotest.test_case "batch in one segment" `Quick test_batch_in_segment;
          Alcotest.test_case "batch across a boundary" `Quick test_batch_across_boundary;
        ] );
    ]
