(* Sharded MPMC router; see shard.mli for the contract and DESIGN.md
   §8 for the d-bounded ordering argument. *)

module type QUEUE = Topology.Variant_intf.S

module Router (A : Primitives.Atomic_prims.S) (Q : QUEUE) = struct
  (* Rebinding, not a fresh exception: the router's backpressure
     signal is the same value as the bounded queue's, so one handler
     covers "router capacity full" and "shard segment cap full"
     uniformly across every (A, Q) instantiation. *)
  exception Would_block = Wfq.Wfqueue_algo.Would_block

  type 'a t = {
    shards : 'a Q.t array;
    n : int;
    capacity : int; (* per shard; max_int means unbounded *)
    rebalance_every : int;
    (* The two routing counters are the router's only shared-write
       state; both are FAA tickets, so routing inherits the paper's
       no-CAS-retry discipline.  Contended so they never share a line
       with each other or the shard array. *)
    assign : int A.t; (* producer-affinity tickets *)
    deq_cursor : int A.t; (* consumer rotation-start tickets *)
    steals : int A.t;
    rebalances : int A.t;
    blocked : int A.t;
  }

  type 'a handle = {
    hs : 'a Q.handle array; (* one per shard: dequeues scan them all *)
    mutable enq_shard : int;
    mutable enq_since_rebalance : int;
  }

  let create ?(shards = 2) ?capacity ?(rebalance_every = 64) ?patience ?segment_shift
      ?max_garbage ?reclamation ?segment_cap () =
    if shards < 1 then invalid_arg "Shard.Router.create: shards < 1";
    if rebalance_every < 1 then invalid_arg "Shard.Router.create: rebalance_every < 1";
    let capacity =
      match capacity with
      | None -> max_int
      | Some c when c < 1 -> invalid_arg "Shard.Router.create: capacity < 1"
      | Some c -> c
    in
    {
      shards =
        Array.init shards (fun _ ->
            Q.create ?patience ?segment_shift ?max_garbage ?reclamation ?segment_cap ());
      n = shards;
      capacity;
      rebalance_every;
      assign = A.make_contended 0;
      deq_cursor = A.make_contended 0;
      steals = A.make_contended 0;
      rebalances = A.make_contended 0;
      blocked = A.make_contended 0;
    }

  let register t =
    {
      hs = Array.map Q.register t.shards;
      enq_shard = A.fetch_and_add t.assign 1 mod t.n;
      enq_since_rebalance = 0;
    }

  let retire t h = Array.iteri (fun i hh -> Q.retire t.shards.(i) hh) h.hs

  (* ---------------------------------------------------------------- *)
  (* Enqueue routing                                                  *)

  let move_home t h s =
    if s <> h.enq_shard then begin
      h.enq_shard <- s;
      ignore (A.fetch_and_add t.rebalances 1)
    end

  (* Periodic affinity refresh: after [rebalance_every] values the
     handle draws a fresh assignment ticket, so producers migrate and
     initial skew washes out without any coordination beyond one FAA. *)
  let after_enqueue t h k =
    h.enq_since_rebalance <- h.enq_since_rebalance + k;
    if h.enq_since_rebalance >= t.rebalance_every then begin
      h.enq_since_rebalance <- 0;
      move_home t h (A.fetch_and_add t.assign 1 mod t.n)
    end

  let has_room t s k = Q.approx_length t.shards.(s) + k <= t.capacity

  (* Shard indices travel as bare ints ([-1] = all full right now):
     an option per routed value would be the router's only hot-path
     allocation, and the alloc gate holds it to the same zero as the
     shards underneath. *)

  (* One routed attempt: rotate from the home shard, placing the value
     on the first shard that passes both the router's value-count
     check ([has_room], the [~capacity] bound) and the shard's own
     admission ([Q.try_enqueue] — where a bounded underlying queue
     says no).  The two bounds compose into one backpressure policy:
     either rejection just moves the rotation on, and only a full
     rotation reports [-1].  The unbounded/unbounded composition takes
     this same path at the old direct-enqueue cost — [j = 0] is the
     home shard, [capacity = max_int] short-circuits [has_room], an
     unbounded [Q.try_enqueue] admits unconditionally, and [move_home]
     self-guards on [s = enq_shard]. *)
  let rec route_enq t h v j =
    if j = t.n then -1
    else
      let s = (h.enq_shard + j) mod t.n in
      if (t.capacity = max_int || has_room t s 1) && Q.try_enqueue t.shards.(s) h.hs.(s) v
      then s
      else route_enq t h v (j + 1)

  let try_enqueue_shard t h v =
    let s = route_enq t h v 0 in
    if s >= 0 then begin
      move_home t h s;
      after_enqueue t h 1
    end
    else ignore (A.fetch_and_add t.blocked 1);
    s

  let try_enqueue t h v = try_enqueue_shard t h v >= 0

  let rec enqueue' t h v =
    let s = try_enqueue_shard t h v in
    if s >= 0 then s
    else begin
      A.cpu_relax ();
      enqueue' t h v
    end

  let enqueue t h v = ignore (enqueue' t h v)
  let enqueue_exn t h v = if not (try_enqueue t h v) then raise Would_block

  (* Same rotation as [route_enq]; the batch is placed whole (one
     shard, one tail FAA) or not at all on each candidate. *)
  let rec route_batch t h vs k j =
    if j = t.n then -1
    else
      let s = (h.enq_shard + j) mod t.n in
      if (t.capacity = max_int || has_room t s k)
         && Q.try_enq_batch t.shards.(s) h.hs.(s) vs
      then s
      else route_batch t h vs k (j + 1)

  let try_enq_batch_shard t h vs =
    let k = Array.length vs in
    if k = 0 then h.enq_shard
    else begin
      let s = route_batch t h vs k 0 in
      if s >= 0 then begin
        move_home t h s;
        after_enqueue t h k
      end
      else ignore (A.fetch_and_add t.blocked 1);
      s
    end

  let try_enq_batch t h vs = try_enq_batch_shard t h vs >= 0

  let rec enq_batch' t h vs =
    let s = try_enq_batch_shard t h vs in
    if s >= 0 then s
    else begin
      A.cpu_relax ();
      enq_batch' t h vs
    end

  let enq_batch t h vs = ignore (enq_batch' t h vs)
  let enq_batch_exn t h vs = if not (try_enq_batch t h vs) then raise Would_block

  (* ---------------------------------------------------------------- *)
  (* Dequeue routing                                                  *)

  (* Consumers rotate through the shards starting at a global FAA
     ticket.  A router-level EMPTY is only reported after every shard
     answered EMPTY through a real dequeue inside this call — the
     relaxed contract's EMPTY clause (each shard individually observed
     empty during the interval), with no reliance on the racy
     [approx_length]. *)
  let rec deq_scan t h start j =
    if j = t.n then None
    else
      let s = (start + j) mod t.n in
      match Q.dequeue t.shards.(s) h.hs.(s) with
      | Some _ as v ->
        if j > 0 then ignore (A.fetch_and_add t.steals 1);
        v
      | None -> deq_scan t h start (j + 1)

  let dequeue t h =
    let start = A.fetch_and_add t.deq_cursor 1 mod t.n in
    deq_scan t h start 0

  (* The allocation-free dequeue: the same rotation scan through the
     per-shard [dequeue_or], with the hit test by physical inequality.
     Callers must pick a [default] physically distinct from any stored
     value (immediates — ints, constant constructors — compare by
     identity, so e.g. [min_int] is safe for int payloads); see
     [Wfqueue.dequeue_or] for the contract this inherits. *)
  let rec deq_or_scan t h default start j =
    if j = t.n then default
    else
      let s = (start + j) mod t.n in
      let v = Q.dequeue_or t.shards.(s) h.hs.(s) default in
      if v != default then begin
        if j > 0 then ignore (A.fetch_and_add t.steals 1);
        v
      end
      else deq_or_scan t h default start (j + 1)

  let dequeue_or t h default =
    let start = A.fetch_and_add t.deq_cursor 1 mod t.n in
    deq_or_scan t h default start 0

  (* Batch dequeue: a shard that looks non-empty gets a full-width
     [deq_batch_into]; one that looks empty gets a single [dequeue_or]
     probe, so an imprecise length estimate cannot fabricate an EMPTY
     but also cannot burn k tickets on a drained shard.  Values land
     bare in the caller's buffer, so the router adds zero allocations
     to the per-shard zero.  Same physically-distinct [default]
     contract as [dequeue_or]. *)
  let rec deq_into_scan t h (out : 'a array) default k start j =
    if j = t.n then begin
      Array.fill out 0 k default;
      0
    end
    else
      let s = (start + j) mod t.n in
      if Q.approx_length t.shards.(s) > 0 then begin
        let n = Q.deq_batch_into t.shards.(s) h.hs.(s) out ~default in
        if n > 0 then begin
          if j > 0 then ignore (A.fetch_and_add t.steals 1);
          n
        end
        else deq_into_scan t h out default k start (j + 1)
      end
      else begin
        let v = Q.dequeue_or t.shards.(s) h.hs.(s) default in
        if v != default then begin
          if j > 0 then ignore (A.fetch_and_add t.steals 1);
          out.(0) <- v;
          Array.fill out 1 (k - 1) default;
          1
        end
        else deq_into_scan t h out default k start (j + 1)
      end

  let deq_batch_into t h (out : 'a array) ~default =
    let k = Array.length out in
    if k = 0 then 0
    else begin
      let start = A.fetch_and_add t.deq_cursor 1 mod t.n in
      deq_into_scan t h out default k start 0
    end

  (* ---------------------------------------------------------------- *)
  (* Introspection                                                    *)

  let shards t = t.n
  let home_shard h = h.enq_shard
  let shard_length t s = Q.approx_length t.shards.(s)
  let approx_length t = Array.fold_left (fun acc q -> acc + Q.approx_length q) 0 t.shards
  let steals t = A.get t.steals
  let rebalances t = A.get t.rebalances
  let blocked t = A.get t.blocked

  let d_bound t ~dequeuers ~batch ~depth =
    if t.n = 1 then 0 else (t.n - 1) * (depth + (dequeuers * max 1 batch))

  let shard_snapshots t = Array.map Q.snapshot t.shards
  let snapshot t = Obs.Snapshot.fold (Array.to_list (shard_snapshots t))
  let reset_stats t = Array.iter Q.reset_stats t.shards

  let pp_snapshot_table ppf t =
    Format.fprintf ppf "@[<v>";
    Array.iteri
      (fun i snap ->
        let ops = snap.Obs.Snapshot.ops in
        Format.fprintf ppf
          "shard %d: enq %d fast / %d slow; deq %d fast / %d slow (%d empty); segs live %d reclaimed %d@."
          i ops.Obs.Counters.fast_enqueues ops.slow_enqueues ops.fast_dequeues
          ops.slow_dequeues ops.empty_dequeues snap.segments.live snap.segments.reclaimed)
      (shard_snapshots t);
    Format.fprintf ppf "router:  %d steals, %d rebalances, %d blocked@]" (steals t)
      (rebalances t) (blocked t)
end

module Wf = Router (Primitives.Atomic_prims.Real) (Wfq.Wfqueue)
module Storm = Router (Primitives.Atomic_prims.Real) (Wfq.Wfqueue_inject)

(* Topology-adaptive shards: each shard starts on the cheapest
   specialized variant and degrades to the general queue as the
   router's handles reveal roles on it (Topology.Adaptive satisfies
   QUEUE, so the Router text is reused verbatim — which is also the
   compile-out proof: the production Router never links the storm
   variants). *)
module Adaptive = Router (Primitives.Atomic_prims.Real) (Topology.Adaptive)
