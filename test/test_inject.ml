(* Wait-freedom under injected faults.

   The paper's claim is not "fast when everyone cooperates" but
   "bounded completion even when other threads stall or die at the
   worst moment" (§3.6 discusses thread failures explicitly).  These
   tests drive the queue through exactly those moments: the simsched
   scheduler interleaves fibers deterministically while an
   [Inject.Plan] parks or kills victim fibers at named protocol
   points, so every failure is a (sim seed, plan seed) pair that
   replays identically.

   Fault semantics verified here:
   - Park: a stalled thread delays nobody's completion; values are
     conserved exactly.
   - Die: a killed thread is a crashed thread.  Its in-flight value
     appears AT MOST ONCE (helpers may complete a published request
     of a dead peer; the claim CASes make double-completion
     impossible), and each kill strands at most one value (a dequeuer
     that linearized its ticket and then crashed).  Survivors always
     complete, and the queue stays fully operational afterwards —
     including cleanup, even when the victim died holding the cleanup
     token. *)

module Q = Simsched.Sim.Queue
module Sim = Simsched.Sim
module Storm = Harness.Storm

let check = Alcotest.check

let run_ok ?max_steps ~seed fibers =
  let stats = Sim.run ?max_steps ~seed:(Int64.of_int seed) fibers in
  if stats.Sim.max_steps_hit then
    Alcotest.failf "seed %d: scheduler step limit hit (livelock under faults?)" seed;
  stats

(* Arm [plan] on the fibers [victim] admits.  A park is scheduler
   yields: the parked fiber is descheduled, letting the scheduler run
   everyone else through the victim's stall window. *)
let armed plan victim f =
  Storm.armed
    ~park:(fun n -> for _ = 1 to n do Sim.yield () done)
    ~plan
    (Storm.Only (fun () -> victim (Sim.current_fiber ())))
    f

let expect_clean ?(what = "seed") seed = function
  | [] -> ()
  | v :: _ -> Alcotest.failf "%s %d: %s" what seed (Storm.violation_to_string v)

let parks_at points = List.fold_left (fun acc p -> acc + (Inject.stats p).Inject.parks) 0 points

let drain q h =
  let rec go acc = match Q.dequeue q h with Some v -> go (v :: acc) | None -> acc in
  List.rev (go [])

(* One k-ticket batch dequeue, its values pushed onto [got]. *)
let deq_batch_onto got q h k =
  let out = Array.make k 0 in
  let n = Q.deq_batch_into q h out ~default:0 in
  for j = 0 to n - 1 do
    got := out.(j) :: !got
  done

(* ------------------------------------------------------------------ *)
(* Build matrix: which instantiations carry the injector              *)

let test_build_matrix () =
  check Alcotest.bool "production build has no injector" false Wfq.Wfqueue.injector_enabled;
  check Alcotest.bool "obs build has no injector" false Wfq.Wfqueue_obs.injector_enabled;
  check Alcotest.bool "llsc build has no injector" false Wfq.Wfqueue_llsc.injector_enabled;
  check Alcotest.bool "storm build has the injector" true Wfq.Wfqueue_inject.injector_enabled;
  check Alcotest.bool "sim build has the injector" true Q.injector_enabled;
  (* A Disabled build never consults the controller: run it under an
     installed always-park controller and observe zero hits. *)
  Inject.reset_stats ();
  Inject.with_controller (fun _ -> Inject.Park 1) (fun () ->
      let q = Wfq.Wfqueue.create () in
      for i = 1 to 50 do
        Wfq.Wfqueue.push q i
      done;
      for _ = 1 to 50 do
        ignore (Wfq.Wfqueue.pop q)
      done);
  let t = Inject.total_stats () in
  check Alcotest.int "disabled build recorded no hits" 0 t.Inject.hits

let test_enabled_transparent () =
  (* No controller installed: the Enabled build passes through. *)
  Inject.reset_stats ();
  let q = Wfq.Wfqueue_inject.create () in
  for i = 1 to 100 do
    Wfq.Wfqueue_inject.push q i
  done;
  let got = ref [] in
  let rec go () =
    match Wfq.Wfqueue_inject.pop q with
    | Some v ->
      got := v :: !got;
      go ()
    | None -> ()
  in
  go ();
  check Alcotest.int "fifo intact" 100 (List.length !got);
  let t = Inject.total_stats () in
  check Alcotest.int "no controller, no counting" 0 t.Inject.hits

(* ------------------------------------------------------------------ *)
(* K-of-N park storms, one sweep per injection-point class            *)

let aggressive_queue () =
  (* patience 0: first contention enters the slow path; tiny segments
     + max_garbage 2: cleanup runs constantly.  Every point class is
     reachable. *)
  Q.create ~patience:0 ~segment_shift:1 ~max_garbage:2 ()

let test_park_storm cls () =
  let points = Inject.points_of_class cls in
  let fired = ref 0 in
  for seed = 1 to 150 do
    let plan =
      Inject.Plan.make ~park:6 ~arm_window:1 ~points ~seed:(Int64.of_int (seed * 7919)) ()
    in
    (* 2 victims of 4: only fibers 0 and 1 take faults *)
    armed plan (fun f -> f <= 1) (fun () ->
        let q = aggressive_queue () in
        let h = Array.init 4 (fun _ -> Q.register q) in
        let got = ref [] in
        (* interleaved enqueue/dequeue churn: phase-structured
           workloads never contend (each fiber finishes its enqueues
           before any dequeuer can overtake a ticket), so slow paths,
           helping and cleanup would go unexercised *)
        let actor i () =
          for k = 1 to 4 do
            Q.enqueue q h.(i) ((i * 10) + k);
            match Q.dequeue q h.(i) with Some v -> got := v :: !got | None -> ()
          done
        in
        ignore (run_ok ~seed [| actor 0; actor 1; actor 2; actor 3 |]);
        let expect =
          List.concat_map (fun i -> List.init 4 (fun k -> (i * 10) + k + 1)) [ 0; 1; 2; 3 ]
        in
        expect_clean ~what:(Inject.class_name cls ^ " seed") seed
          (Storm.conserved ~allowance:0 ~definite:expect (!got @ drain q h.(0))));
    fired := !fired + parks_at points
  done;
  (* The sweep must actually have exercised the class — a class whose
     points never fire would make this suite vacuous (e.g. after a
     refactor moves an injection site). *)
  if !fired = 0 then
    Alcotest.failf "no %s park ever fired across the sweep: dead injection points?"
      (Inject.class_name cls)

(* The generic storm churns single ops, so the batch windows need
   their own sweep: 4 fibers exchanging 3-value batches while two of
   them park right after their batch FAA — the window where k cells
   are reserved but none written (enqueue) or claimed (dequeue).
   Parking there stalls nobody and conserves values exactly: the
   per-cell fallback gives every survivor touching a reserved cell a
   wait-free way past it. *)
let test_batch_park_storm () =
  let points = Inject.points_of_class Inject.Batch in
  let fired = ref 0 in
  for seed = 1 to 150 do
    let plan =
      Inject.Plan.make ~park:6 ~arm_window:1 ~points ~seed:(Int64.of_int (seed * 7919)) ()
    in
    armed plan (fun f -> f <= 1) (fun () ->
        let q = aggressive_queue () in
        let h = Array.init 4 (fun _ -> Q.register q) in
        let got = ref [] in
        let actor i () =
          for r = 0 to 1 do
            Q.enq_batch q h.(i) (Array.init 3 (fun j -> (i * 100) + (r * 10) + j));
            deq_batch_onto got q h.(i) 3
          done
        in
        ignore (run_ok ~seed [| actor 0; actor 1; actor 2; actor 3 |]);
        let expect =
          List.concat_map
            (fun i ->
              List.concat_map (fun r -> List.init 3 (fun j -> (i * 100) + (r * 10) + j)) [ 0; 1 ])
            [ 0; 1; 2; 3 ]
        in
        expect_clean ~what:"batch seed" seed
          (Storm.conserved ~allowance:0 ~definite:expect (!got @ drain q h.(0))));
    fired := !fired + parks_at points
  done;
  if !fired = 0 then
    Alcotest.fail "no batch park ever fired across the sweep: dead injection points?"

(* ------------------------------------------------------------------ *)
(* Die storms: crashed threads strand at most one value, never
   duplicate one, and survivors always finish                        *)

let test_kill_storm () =
  let total_kills = ref 0 in
  for seed = 1 to 400 do
    let plan = Inject.Plan.make ~lethal:true ~arm_window:2 ~seed:(Int64.of_int (seed * 31)) () in
    armed plan (fun f -> f = 0) (fun () ->
        let q = aggressive_queue () in
        let h = Array.init 4 (fun _ -> Q.register q) in
        let got = ref [] in
        (* [venq] counts the victim's COMPLETED enqueues: a crash ends
           its participation, so values it never attempted are not
           "lost" — only its single in-flight value is in doubt *)
        let venq = ref 0 in
        let victim () =
          try
            for k = 1 to 4 do
              Q.enqueue q h.(0) k;
              venq := k;
              match Q.dequeue q h.(0) with Some v -> got := v :: !got | None -> ()
            done
          with Inject.Killed _ -> Q.retire q h.(0)
        in
        let survivor i () =
          for k = 1 to 4 do
            Q.enqueue q h.(i) ((i * 10) + k);
            match Q.dequeue q h.(i) with Some v -> got := v :: !got | None -> ()
          done
        in
        ignore (run_ok ~seed [| victim; survivor 1; survivor 2; survivor 3 |]);
        let all = !got @ drain q h.(1) in
        let kills = (Inject.total_stats ()).Inject.kills in
        total_kills := !total_kills + kills;
        (* definitely enqueued: survivors' values + the victim's
           completed enqueues.  The victim's next value (its in-flight
           enqueue, if the kill landed there) may legitimately appear
           — helpers can complete a dead peer's published request —
           but at most once. *)
        let definite =
          List.init !venq (fun k -> k + 1)
          @ List.concat_map (fun i -> List.init 4 (fun k -> (i * 10) + k + 1)) [ 1; 2; 3 ]
        in
        let optional = if !venq < 4 then [ !venq + 1 ] else [] in
        (* each kill strands <= 1 *)
        expect_clean seed (Storm.conserved ~optional ~allowance:kills ~definite all))
  done;
  if !total_kills = 0 then
    Alcotest.fail "no kill ever fired across 400 seeds: lethal plans are dead code?"

(* Dying right after a batch FAA is the widest crash window the queue
   has: k tickets are reserved in one blow and none of the k cells is
   written/claimed yet.  A dead batch enqueuer abandons k cells that
   dequeuers must be able to skip; a dead batch dequeuer burns k head
   tickets whose cells' values are stranded forever.  So the stranding
   bound scales with the batch: missing <= kills * batch — and
   duplication stays impossible (the per-cell claim CASes are
   unchanged). *)
let test_batch_kill_storm () =
  let total_kills = ref 0 in
  let batch = 3 in
  let rounds = 3 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1
        ~points:[ Inject.Enq_batch_after_faa; Inject.Deq_batch_after_faa ]
        ~seed:(Int64.of_int (seed * 17)) ()
    in
    armed plan (fun f -> f = 0) (fun () ->
        let q = aggressive_queue () in
        let h = Array.init 3 (fun _ -> Q.register q) in
        let got = ref [] in
        let committed = ref [] in
        (* values of the batch in flight when the kill lands: reserved
           cells are never written past the injection point, but a
           future refactor moving the point after partial writes would
           make them legitimately appear (at most once) *)
        let in_flight = ref [] in
        let victim () =
          try
            for r = 0 to rounds - 1 do
              let vs = Array.init batch (fun j -> 100 + (r * 10) + j) in
              in_flight := Array.to_list vs;
              Q.enq_batch q h.(0) vs;
              Array.iter (fun v -> committed := v :: !committed) vs;
              in_flight := [];
              deq_batch_onto got q h.(0) batch
            done
          with Inject.Killed _ -> Q.retire q h.(0)
        in
        let survivor i () =
          for r = 0 to rounds - 1 do
            Q.enq_batch q h.(i) (Array.init batch (fun j -> (i * 1000) + (r * 10) + j));
            deq_batch_onto got q h.(i) batch
          done
        in
        ignore (run_ok ~seed [| victim; survivor 1; survivor 2 |]);
        let kills = (Inject.total_stats ()).Inject.kills in
        total_kills := !total_kills + kills;
        let definite =
          !committed
          @ List.concat_map
              (fun i ->
                List.concat_map
                  (fun r -> List.init batch (fun j -> (i * 1000) + (r * 10) + j))
                  (List.init rounds Fun.id))
              [ 1; 2 ]
        in
        (* each kill strands <= batch *)
        expect_clean seed
          (Storm.conserved ~optional:!in_flight ~allowance:(kills * batch) ~definite
             (!got @ drain q h.(1))))
  done;
  if !total_kills = 0 then
    Alcotest.fail "no batch kill ever fired across 300 seeds: lethal batch plans are dead code?"

(* ------------------------------------------------------------------ *)
(* Bounded-mode freelist storms (PR 9): the two [Pool]-class windows.

   [Seg_pool_acquire] only fires under genuine cap pressure (budget
   spent, pool empty, the acquire polling for a recycle), so these
   storms run a {e bounded} queue with producers outrunning consumers
   instead of joining the generic unbounded park-storm sweep.  Two
   invariants, from the injection points' contracts:

   - the segment cap is never exceeded: fresh allocations are
     budget-gated and the budget is never replenished by recycling,
     so [allocated_segments <= cap] at {e every} instant — which
     implies live + pooled <= cap always (each existing segment was
     allocated exactly once);
   - no segment is reachable from two chains: a double release would
     surface as a duplicated value once both "copies" recycle, and as
     a pool whose walked length disagrees with its counter.  A death
     at [Seg_pool_release] may leak capacity (segments reset but
     never pushed) — documented as lost budget, never unsafety. *)

(* 2-of-4 parked in the freelist windows: pure delay, so conservation
   must be exact and the cap invariant untouched. *)
let test_pool_park_storm () =
  let cap = 6 in
  let acquire_parks = ref 0 and release_parks = ref 0 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~park:6 ~arm_window:1
        ~points:[ Inject.Seg_pool_acquire; Inject.Seg_pool_release ]
        ~seed:(Int64.of_int (seed * 433)) ()
    in
    armed plan (fun f -> f <= 1) (fun () ->
        let q = Q.create ~patience:0 ~segment_shift:1 ~max_garbage:2 ~segment_cap:cap () in
        let h = Array.init 4 (fun _ -> Q.register q) in
        let got = ref [] in
        let producers_done = ref 0 in
        let peak = ref 0 in
        (* 12 values through 6 segments' worth of cells keeps the
           budget exhausted: the park-prone producers really reach the
           acquire poll *)
        let producer i () =
          for k = 1 to 6 do
            Q.enqueue q h.(i) ((i * 10) + k);
            peak := max !peak (Q.allocated_segments q)
          done;
          (* a dequeue tail walks the park-prone fibers through
             cleanup's release loop too *)
          for _ = 1 to 3 do
            match Q.dequeue q h.(i) with Some v -> got := v :: !got | None -> ()
          done;
          incr producers_done
        in
        let consumer i () =
          let idle = ref 0 in
          while !producers_done < 2 || !idle < 3 do
            match Q.dequeue q h.(i) with
            | Some v ->
              got := v :: !got;
              idle := 0
            | None -> incr idle
          done
        in
        ignore (run_ok ~seed [| producer 0; producer 1; consumer 2; consumer 3 |]);
        let expect = List.concat_map (fun i -> List.init 6 (fun k -> (i * 10) + k + 1)) [ 0; 1 ] in
        expect_clean seed
          (Storm.conserved ~allowance:0 ~definite:expect (!got @ drain q h.(2))
          @ Storm.cap_within ~what:"segments allocated" ~cap !peak
          @ Storm.cap_within ~what:"live + pooled segments" ~cap
              (Q.live_segments q + Q.pooled_segments q));
        if Q.Internal.pool_length q <> Q.pooled_segments q then
          Alcotest.failf "seed %d: pool length %d disagrees with counter %d" seed
            (Q.Internal.pool_length q) (Q.pooled_segments q));
    acquire_parks := !acquire_parks + parks_at [ Inject.Seg_pool_acquire ];
    release_parks := !release_parks + parks_at [ Inject.Seg_pool_release ]
  done;
  if !acquire_parks = 0 then
    Alcotest.fail "no park at Seg_pool_acquire across 300 seeds: no cap pressure reached?";
  if !release_parks = 0 then
    Alcotest.fail "no park at Seg_pool_release across 300 seeds: cleanup never released?"

(* Deaths in the freelist windows: a kill strands at most the
   victim's one in-flight value, never duplicates, and the cap holds
   even when a crashed cleaner leaks its reset-but-unpushed
   segments. *)
let test_pool_kill_storm () =
  let cap = 8 in
  let acquire_kills = ref 0 in
  let release_kills = ref 0 in
  for seed = 1 to 400 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1
        ~points:[ Inject.Seg_pool_acquire; Inject.Seg_pool_release ]
        ~seed:(Int64.of_int ((seed * 131) + 7))
        ()
    in
    armed plan (fun f -> f = 0) (fun () ->
        let q = Q.create ~patience:0 ~segment_shift:1 ~max_garbage:2 ~segment_cap:cap () in
        let h = Array.init 4 (fun _ -> Q.register q) in
        let got = ref [] in
        let producers_done = ref 0 in
        let peak = ref 0 in
        let venq = ref 0 in
        let enq_count = ref 0 in
        (* the victim enqueues first (arming the admission wait where
           the acquire point now fires) and then dequeues a tail
           (walking it through cleanup's release loop) *)
        let victim () =
          (try
             for k = 1 to 6 do
               Q.enqueue q h.(0) k;
               venq := k;
               incr enq_count
             done;
             for _ = 1 to 3 do
               match Q.dequeue q h.(0) with Some v -> got := v :: !got | None -> ()
             done
           with Inject.Killed _ -> Q.retire q h.(0));
          incr producers_done
        in
        let producer () =
          for k = 1 to 6 do
            Q.enqueue q h.(1) (10 + k);
            incr enq_count;
            peak := max !peak (Q.allocated_segments q)
          done;
          incr producers_done
        in
        let consumer i () =
          (* sleep through the fill so the admission line actually
             backs up: a producer can only block once 8 net enqueues
             are in ([enq_capacity] for this cap), at which point the
             wake condition below has already released the drain *)
          while !enq_count < 8 && !producers_done < 2 do
            Sim.yield ()
          done;
          let idle = ref 0 in
          while !producers_done < 2 || !idle < 3 do
            match Q.dequeue q h.(i) with
            | Some v ->
              got := v :: !got;
              idle := 0
            | None -> incr idle
          done
        in
        ignore (run_ok ~seed [| victim; producer; consumer 2; consumer 3 |]);
        acquire_kills := !acquire_kills + (Inject.stats Inject.Seg_pool_acquire).Inject.kills;
        release_kills := !release_kills + (Inject.stats Inject.Seg_pool_release).Inject.kills;
        let kills = (Inject.total_stats ()).Inject.kills in
        let definite = List.init !venq (fun k -> k + 1) @ List.init 6 (fun k -> 10 + k + 1) in
        let optional = if !venq < 6 then [ !venq + 1 ] else [] in
        expect_clean seed
          (Storm.conserved ~optional ~allowance:kills ~definite (!got @ drain q h.(2))
          @ Storm.cap_within ~what:"segments allocated" ~cap !peak
          @ Storm.cap_within ~what:"live + pooled segments" ~cap
              (Q.live_segments q + Q.pooled_segments q));
        if Q.pooled_segments q > Q.Internal.pool_limit q then
          Alcotest.failf "seed %d: pool counter %d past its limit %d" seed
            (Q.pooled_segments q) (Q.Internal.pool_limit q))
  done;
  if !acquire_kills = 0 then
    Alcotest.fail "no kill at Seg_pool_acquire across 400 seeds: storm is dead code?";
  if !release_kills = 0 then
    Alcotest.fail "no kill at Seg_pool_release across 400 seeds: storm is dead code?"

(* A dead slow-path enqueuer's published request is completed by
   helpers: the value it announced still flows to a dequeuer. *)
let test_helping_completes_dead_enqueuer () =
  let recovered = ref 0 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1 ~points:[ Inject.Enq_slow_published ]
        ~seed:(Int64.of_int seed) ()
    in
    armed plan (fun f -> f = 0) (fun () ->
        let q = Q.create ~patience:0 ~segment_shift:1 ~max_garbage:2 () in
        let h = Array.init 3 (fun _ -> Q.register q) in
        let got = ref [] in
        (* churn on all fibers so the victim's fast-path CAS actually
           loses cells and enters the slow path; the kill lands right
           after its request is published *)
        let churn i base () =
          try
            for k = 1 to 6 do
              Q.enqueue q h.(i) (base + k);
              match Q.dequeue q h.(i) with Some v -> got := v :: !got | None -> ()
            done
          with Inject.Killed _ -> ()
        in
        ignore (run_ok ~seed [| churn 0 100; churn 1 10; churn 2 20 |]);
        (* victim is dead; its handle must not pin anything *)
        Q.retire q h.(0);
        let all = !got @ drain q h.(1) in
        (* survivors die with nobody: all their values flow through; the
           dead enqueuer's values appear at most once each *)
        expect_clean seed
          (Storm.conserved
             ~optional:(List.init 6 (fun k -> 100 + k + 1))
             ~allowance:0
             ~definite:(List.init 6 (fun k -> 10 + k + 1) @ List.init 6 (fun k -> 20 + k + 1))
             all);
        let kills = (Inject.total_stats ()).Inject.kills in
        if kills > 0 && List.exists (fun v -> v > 100) all then incr recovered)
  done;
  (* helping is the mechanism under test: across the sweep, some dead
     enqueuer's published value must have been completed by a peer *)
  if !recovered = 0 then
    Alcotest.fail "no published request of a dead enqueuer was ever helped to completion"

let test_dead_dequeuer_strands_at_most_one () =
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1
        ~points:[ Inject.Deq_fast_after_faa; Inject.Deq_slow_published ]
        ~seed:(Int64.of_int seed) ()
    in
    armed plan (fun f -> f = 0) (fun () ->
        let q = Q.create ~patience:0 ~segment_shift:1 ~max_garbage:2 () in
        let h = Array.init 3 (fun _ -> Q.register q) in
        let got = ref [] in
        let victim () =
          try
            for _ = 1 to 4 do
              match Q.dequeue q h.(0) with Some v -> got := v :: !got | None -> ()
            done
          with Inject.Killed _ -> Q.retire q h.(0)
        in
        let producer () =
          for k = 1 to 8 do
            Q.enqueue q h.(1) k
          done
        in
        let consumer () =
          for _ = 1 to 4 do
            match Q.dequeue q h.(2) with Some v -> got := v :: !got | None -> ()
          done
        in
        ignore (run_ok ~seed [| victim; producer; consumer |]);
        let kills = (Inject.total_stats ()).Inject.kills in
        expect_clean seed
          (Storm.conserved ~allowance:kills ~definite:(List.init 8 (fun k -> k + 1))
             (!got @ drain q h.(1))))
  done

(* Dying while holding the cleanup token must not wedge reclamation:
   the token is restored on the way out (Fun.protect in [cleanup]),
   so later cleanups still run. *)
let test_cleanup_token_death_recovers () =
  let exercised = ref 0 in
  for seed = 1 to 200 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1 ~points:[ Inject.Cleanup_token_held ]
        ~seed:(Int64.of_int seed) ()
    in
    let q = Q.create ~patience:0 ~segment_shift:1 ~max_garbage:2 () in
    let h = Array.init 3 (fun _ -> Q.register q) in
    armed plan (fun f -> f = 0) (fun () ->
        let churn i () =
          try
            for k = 1 to 8 do
              Q.enqueue q h.(i) ((i * 100) + k);
              ignore (Q.dequeue q h.(i))
            done
          with Inject.Killed _ -> Q.retire q h.(0)
        in
        ignore (run_ok ~seed [| churn 0; churn 1; churn 2 |]));
    if (Inject.total_stats ()).Inject.kills > 0 then begin
      incr exercised;
      (* the token was restored: post-mortem churn still reclaims *)
      let before = Q.reclaimed_segments q in
      for k = 1 to 64 do
        Q.enqueue q h.(1) k;
        ignore (Q.dequeue q h.(1))
      done;
      if Q.reclaimed_segments q <= before then
        Alcotest.failf "seed %d: cleanup wedged after token-holder death" seed
    end
  done;
  if !exercised = 0 then Alcotest.fail "no cleanup-token death was ever injected"

(* ------------------------------------------------------------------ *)
(* Topology storms: the specialized variant family under faults.  The
   variants have no helping — their fault story is structural (holes
   skipped, tickets poisoned, switches drained), so the claims are
   the same currency as above: parks stall nobody, each kill strands
   at most one value, nothing duplicates, survivors complete.        *)

(* Park storm at the [Topology] points, one sweep per variant under
   its legal topology.  A producer parked in the hole window or a
   consumer parked on a held ticket delays nobody; values are
   conserved exactly. *)
let test_topology_park_storm () =
  let points = Inject.points_of_class Inject.Topology in
  let plan seed = Inject.Plan.make ~park:6 ~arm_window:1 ~points ~seed:(Int64.of_int seed) () in
  let fired = ref 0 in
  let conserves what seed ~definite got =
    expect_clean ~what:(what ^ " seed") seed (Storm.conserved ~allowance:0 ~definite got);
    fired := !fired + parks_at points
  in
  for seed = 1 to 100 do
    (* SPSC: producer fiber 0 (victim), consumer fiber 1 *)
    (let module Q = Simsched.Sim.Spsc in
     let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
     let hp = Q.register q and hc = Q.register q in
     let got = ref [] in
     armed (plan (seed * 7919)) (fun f -> f = 0) (fun () ->
         ignore
           (run_ok ~seed
              [|
                (fun () ->
                  for i = 1 to 8 do
                    Q.enqueue q hp i
                  done);
                (fun () ->
                  for _ = 1 to 8 do
                    match Q.dequeue q hc with Some v -> got := v :: !got | None -> ()
                  done);
              |]));
     let rec drain acc = match Q.dequeue q hc with Some v -> drain (v :: acc) | None -> acc in
     conserves "spsc" seed ~definite:(List.init 8 (fun i -> i + 1)) (!got @ drain []));
    (* MPSC: producers 0 (victim) and 1, consumer 2 *)
    (let module Q = Simsched.Sim.Mpsc in
     let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
     let h = Array.init 3 (fun _ -> Q.register q) in
     let got = ref [] in
     armed (plan (seed * 31)) (fun f -> f = 0) (fun () ->
         let producer t () =
           for i = 1 to 4 do
             Q.enqueue q h.(t) ((t * 100) + i)
           done
         in
         let consumer () =
           for _ = 1 to 8 do
             match Q.dequeue q h.(2) with Some v -> got := v :: !got | None -> ()
           done
         in
         ignore (run_ok ~seed [| producer 0; producer 1; consumer |]));
     let rec drain acc =
       match Q.dequeue q h.(2) with Some v -> drain (v :: acc) | None -> acc
     in
     conserves "mpsc" seed
       ~definite:(List.init 4 (fun i -> i + 1) @ List.init 4 (fun i -> 100 + i + 1))
       (!got @ drain []));
    (* SPMC: producer 0, consumers 1 (victim) and 2 *)
    (let module Q = Simsched.Sim.Spmc in
     let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
     let h = Array.init 3 (fun _ -> Q.register q) in
     let got = ref [] in
     armed (plan (seed * 17)) (fun f -> f = 1) (fun () ->
         let consumer t () =
           for _ = 1 to 4 do
             match Q.dequeue q h.(t) with Some v -> got := v :: !got | None -> ()
           done
         in
         ignore
           (run_ok ~seed
              [|
                (fun () ->
                  for i = 1 to 8 do
                    Q.enqueue q h.(0) i
                  done);
                consumer 1;
                consumer 2;
              |]));
     let rec drain acc =
       match Q.dequeue q h.(1) with Some v -> drain (v :: acc) | None -> acc
     in
     conserves "spmc" seed ~definite:(List.init 8 (fun i -> i + 1)) (!got @ drain []));
    (* Adaptive: two producers force a switch mid-stream; a park in
       the drain window must not wedge the commit *)
    (let module Q = Simsched.Sim.Adaptive_queue in
     let q = Q.create ~patience:2 ~segment_shift:1 ~max_garbage:2 () in
     let h = Array.init 3 (fun _ -> Q.register q) in
     let got = ref [] in
     armed (plan (seed * 13)) (fun f -> f <= 1) (fun () ->
         let producer t () =
           for i = 1 to 4 do
             Q.enqueue q h.(t) ((t * 100) + i)
           done
         in
         let consumer () =
           for _ = 1 to 8 do
             match Q.dequeue q h.(2) with Some v -> got := v :: !got | None -> ()
           done
         in
         ignore (run_ok ~seed [| producer 0; producer 1; consumer |]));
     let rec drain acc =
       match Q.dequeue q h.(2) with Some v -> drain (v :: acc) | None -> acc
     in
     conserves "adaptive" seed
       ~definite:(List.init 4 (fun i -> i + 1) @ List.init 4 (fun i -> 100 + i + 1))
       (!got @ drain []))
  done;
  if !fired = 0 then
    Alcotest.fail "no topology park ever fired across the sweep: dead injection points?"

(* A producer killed in the MPSC hole window (ticket FAA'd, cell
   never written) leaves a PERMANENT hole.  The consumer must skip it
   forever without stalling: every other value still flows, nothing
   duplicates, and at most the one in-flight value per kill is lost. *)
let test_topo_dead_producer_leaves_hole () =
  let total_kills = ref 0 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1 ~points:[ Inject.Topo_enq_pending ]
        ~seed:(Int64.of_int (seed * 23)) ()
    in
    let module Q = Simsched.Sim.Mpsc in
    let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
    let h = Array.init 3 (fun _ -> Q.register q) in
    let got = ref [] in
    let venq = ref 0 in
    armed plan (fun f -> f = 0) (fun () ->
        let victim () =
          try
            for k = 1 to 4 do
              Q.enqueue q h.(0) (100 + k);
              venq := k
            done
          with Inject.Killed _ -> Q.retire q h.(0)
        in
        let producer () =
          for k = 1 to 4 do
            Q.enqueue q h.(1) (10 + k)
          done
        in
        let consumer () =
          for _ = 1 to 8 do
            match Q.dequeue q h.(2) with Some v -> got := v :: !got | None -> ()
          done
        in
        ignore (run_ok ~seed [| victim; producer; consumer |]));
    let rec drain acc = match Q.dequeue q h.(2) with Some v -> drain (v :: acc) | None -> acc in
    let kills = (Inject.total_stats ()).Inject.kills in
    total_kills := !total_kills + kills;
    let definite = List.init !venq (fun k -> 100 + k + 1) @ List.init 4 (fun k -> 10 + k + 1) in
    let optional = if !venq < 4 then [ 100 + !venq + 1 ] else [] in
    expect_clean seed (Storm.conserved ~optional ~allowance:kills ~definite (!got @ drain []));
    (* the permanent hole must not wedge later traffic *)
    Q.enqueue q h.(1) 999;
    (match Q.dequeue q h.(2) with
    | Some 999 -> ()
    | _ -> Alcotest.failf "seed %d: queue wedged behind a dead producer's hole" seed)
  done;
  if !total_kills = 0 then
    Alcotest.fail "no hole-window kill ever fired: lethal topology plans are dead code?"

(* A consumer killed holding an SPMC head ticket never resolves its
   cell: the value the producer deposits there is stranded — but at
   most that one, and the ticket's segment pin only costs memory,
   never progress. *)
let test_topo_dead_ticket_strands_at_most_one () =
  let total_kills = ref 0 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1 ~points:[ Inject.Topo_deq_pending ]
        ~seed:(Int64.of_int (seed * 29)) ()
    in
    let module Q = Simsched.Sim.Spmc in
    let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
    let h = Array.init 3 (fun _ -> Q.register q) in
    let got = ref [] in
    armed plan (fun f -> f = 0) (fun () ->
        let victim () =
          try
            for _ = 1 to 4 do
              match Q.dequeue q h.(0) with Some v -> got := v :: !got | None -> ()
            done
          with Inject.Killed _ -> Q.retire q h.(0)
        in
        let producer () =
          for k = 1 to 8 do
            Q.enqueue q h.(1) k
          done
        in
        let consumer () =
          for _ = 1 to 4 do
            match Q.dequeue q h.(2) with Some v -> got := v :: !got | None -> ()
          done
        in
        ignore (run_ok ~seed [| victim; producer; consumer |]));
    let rec drain acc = match Q.dequeue q h.(2) with Some v -> drain (v :: acc) | None -> acc in
    let kills = (Inject.total_stats ()).Inject.kills in
    total_kills := !total_kills + kills;
    (* each kill strands <= 1 *)
    expect_clean seed
      (Storm.conserved ~allowance:kills ~definite:(List.init 8 (fun k -> k + 1)) (!got @ drain []))
  done;
  if !total_kills = 0 then
    Alcotest.fail "no ticket-window kill ever fired: lethal topology plans are dead code?"

(* Death in the adaptive switch drain: the kill is absorbed until the
   switch commits ("die late"), so a crashed switcher can never leave
   the queue wedged mid-mode.  Survivors finish, conservation holds
   up to one in-flight value per kill, and the queue stays fully
   operational on the new backend. *)
let test_topo_switch_death_recovers () =
  let total_kills = ref 0 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1 ~points:[ Inject.Topo_switch_draining ]
        ~seed:(Int64.of_int (seed * 37)) ()
    in
    let module Q = Simsched.Sim.Adaptive_queue in
    let q = Q.create ~patience:2 ~segment_shift:1 ~max_garbage:2 () in
    let h = Array.init 3 (fun _ -> Q.register q) in
    let got = ref [] in
    let venq = [| 0; 0 |] in
    armed plan (fun f -> f <= 1) (fun () ->
        (* both producers are victims: whichever one performs the
           spsc->mpsc switch can die in the drain window *)
        let producer t () =
          try
            for i = 1 to 4 do
              Q.enqueue q h.(t) ((t * 100) + i);
              venq.(t) <- i
            done
          with Inject.Killed _ -> Q.retire q h.(t)
        in
        let consumer () =
          for _ = 1 to 8 do
            match Q.dequeue q h.(2) with Some v -> got := v :: !got | None -> ()
          done
        in
        ignore (run_ok ~seed [| producer 0; producer 1; consumer |]));
    let rec drain acc = match Q.dequeue q h.(2) with Some v -> drain (v :: acc) | None -> acc in
    let kills = (Inject.total_stats ()).Inject.kills in
    total_kills := !total_kills + kills;
    (* completed enqueues are definite; the in-flight value of a kill
       in the drain window is "die late": absorbed until the switch
       commits, so the enqueue itself lands and the value may appear
       once even though the producer never saw it succeed *)
    let definite =
      List.init venq.(0) (fun i -> i + 1) @ List.init venq.(1) (fun i -> 100 + i + 1)
    in
    let optional =
      (if venq.(0) < 4 then [ venq.(0) + 1 ] else [])
      @ if venq.(1) < 4 then [ 100 + venq.(1) + 1 ] else []
    in
    expect_clean seed (Storm.conserved ~optional ~allowance:kills ~definite (!got @ drain []));
    (* the switch committed (or was never needed): the queue works *)
    Q.enqueue q h.(2) 999;
    (match Q.dequeue q h.(2) with
    | Some 999 -> ()
    | _ -> Alcotest.failf "seed %d: queue wedged after switch-window death" seed)
  done;
  if !total_kills = 0 then
    Alcotest.fail "no switch-drain kill ever fired: lethal topology plans are dead code?"

(* The storm build of the adaptive family on real domains: hardware
   scheduling instead of the sim, park and kill plans armed on 2 of 4
   all-pairs domains.  The all-pairs storm degrades the queue to the
   general backend; values must still be conserved there. *)
let test_topo_real_storm_smoke () =
  let module W = Topology.Adaptive_inject in
  let run_storm ~lethal ~seed =
    let plan =
      Inject.Plan.make ~park:50 ~lethal
        ~points:(Inject.points_of_class Inject.Topology)
        ~seed:(Int64.of_int seed) ()
    in
    let q = W.create ~segment_shift:2 ~max_garbage:2 () in
    let ops = 2_000 in
    let domains =
      Storm.run ~park:(Storm.sleep_park 1e-7) ~plan ~victims:2 4 (fun d l ->
          let h = W.register q in
          Fun.protect ~finally:(fun () -> W.retire q h) @@ fun () ->
          for i = 0 to ops - 1 do
            W.enqueue q h ((d * ops) + i);
            l.enqueued <- i + 1;
            match W.dequeue q h with Some v -> l.got <- v :: l.got | None -> ()
          done)
    in
    let h = W.register q in
    let rec drain acc = match W.dequeue q h with Some v -> drain (v :: acc) | None -> acc in
    let drained = drain [] in
    W.retire q h;
    let kills = (Inject.total_stats ()).Inject.kills in
    expect_clean ~what:"plan seed" seed
      (Storm.audit ~ops ~in_flight:1 ~allowance:kills ~drained domains)
  in
  run_storm ~lethal:false ~seed:21;
  run_storm ~lethal:true ~seed:22

(* ------------------------------------------------------------------ *)
(* Determinism: one (sim seed, plan seed) pair is one storm           *)

let storm_trace ~sim_seed ~plan_seed =
  let plan = Inject.Plan.make ~park:6 ~arm_window:2 ~seed:(Int64.of_int plan_seed) () in
  let trace = ref [] in
  armed plan (fun f -> f <= 1) (fun () ->
      let q = aggressive_queue () in
      let h = Array.init 4 (fun _ -> Q.register q) in
      let actor i () =
        for k = 1 to 4 do
          Q.enqueue q h.(i) ((i * 10) + k)
        done;
        for _ = 1 to 4 do
          match Q.dequeue q h.(i) with
          | Some v -> trace := v :: !trace
          | None -> trace := -1 :: !trace
        done
      in
      ignore (run_ok ~seed:sim_seed [| actor 0; actor 1; actor 2; actor 3 |]);
      trace := !trace @ drain q h.(0));
  let per_point =
    List.map
      (fun p ->
        let s = Inject.stats p in
        (Inject.point_name p, s.Inject.hits, s.Inject.parks, s.Inject.kills))
      Inject.all_points
  in
  (List.rev !trace, per_point)

let test_same_seed_same_storm () =
  for sim_seed = 1 to 40 do
    let t1 = storm_trace ~sim_seed ~plan_seed:(sim_seed * 13) in
    let t2 = storm_trace ~sim_seed ~plan_seed:(sim_seed * 13) in
    if t1 <> t2 then Alcotest.failf "sim seed %d: same seeds, different storm" sim_seed
  done

(* ------------------------------------------------------------------ *)
(* Real domains: the storm build under hardware scheduling            *)

let test_real_storm_smoke () =
  let module W = Wfq.Wfqueue_inject in
  let run_storm ~lethal ~seed =
    let plan = Inject.Plan.make ~park:50 ~lethal ~seed:(Int64.of_int seed) () in
    let q = W.create ~patience:1 ~segment_shift:2 ~max_garbage:2 () in
    let ops = 2_000 in
    let domains =
      Storm.run ~park:(Storm.sleep_park 1e-7) ~plan ~victims:2 4 (fun d l ->
          let h = W.register q in
          Fun.protect ~finally:(fun () -> W.retire q h) @@ fun () ->
          for i = 0 to ops - 1 do
            W.enqueue q h ((d * ops) + i);
            l.enqueued <- i + 1;
            match W.dequeue q h with Some v -> l.got <- v :: l.got | None -> ()
          done)
    in
    let rec drain acc = match W.pop q with Some v -> drain (v :: acc) | None -> acc in
    let drained = drain [] in
    let kills = (Inject.total_stats ()).Inject.kills in
    expect_clean ~what:"plan seed" seed
      (Storm.audit ~ops ~in_flight:1 ~allowance:kills ~drained domains)
  in
  run_storm ~lethal:false ~seed:11;
  run_storm ~lethal:true ~seed:12

let () =
  Alcotest.run "inject"
    [
      ( "build-matrix",
        [
          Alcotest.test_case "injector wiring per build" `Quick test_build_matrix;
          Alcotest.test_case "enabled build transparent without controller" `Quick
            test_enabled_transparent;
        ] );
      ( "park-storms",
        List.map
          (fun cls ->
            Alcotest.test_case
              (Printf.sprintf "2-of-4 parked at %s points" (Inject.class_name cls))
              `Quick (test_park_storm cls))
          [ Inject.Enqueue; Inject.Dequeue; Inject.Helping; Inject.Cleanup; Inject.Hazard ]
        @ [
            Alcotest.test_case "2-of-4 parked at batch points" `Quick test_batch_park_storm;
            Alcotest.test_case "2-of-4 parked in bounded freelist windows" `Quick
              test_pool_park_storm;
          ] );
      ( "kill-storms",
        [
          Alcotest.test_case "crashes strand <=1 value, never duplicate" `Quick test_kill_storm;
          Alcotest.test_case "batch crashes strand <= batch values" `Quick test_batch_kill_storm;
          Alcotest.test_case "freelist crashes keep the segment cap" `Quick test_pool_kill_storm;
          Alcotest.test_case "helpers complete a dead enqueuer's request" `Quick
            test_helping_completes_dead_enqueuer;
          Alcotest.test_case "dead dequeuer strands at most one value" `Quick
            test_dead_dequeuer_strands_at_most_one;
          Alcotest.test_case "cleanup survives token-holder death" `Quick
            test_cleanup_token_death_recovers;
        ] );
      ( "topology-storms",
        [
          Alcotest.test_case "parks at topology points conserve values" `Quick
            test_topology_park_storm;
          Alcotest.test_case "dead MPSC producer leaves a skippable hole" `Quick
            test_topo_dead_producer_leaves_hole;
          Alcotest.test_case "dead SPMC ticket strands at most one value" `Quick
            test_topo_dead_ticket_strands_at_most_one;
          Alcotest.test_case "death during adaptive switch drain recovers" `Quick
            test_topo_switch_death_recovers;
          Alcotest.test_case "4-domain adaptive storm smoke" `Quick test_topo_real_storm_smoke;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same seeds, same storm" `Quick test_same_seed_same_storm ] );
      ("real-domains", [ Alcotest.test_case "4-domain storm smoke" `Quick test_real_storm_smoke ]);
    ]
