(* The SPMC variant: consumers contend on one FAA'd head ticket
   (exactly the paper's dequeue discipline) while the single producer
   deposits in private position order with no FAA.  The producer
   publishes a resolved frontier ([tail_pub], single-writer) that
   lets a ticket below it take its value with a plain load — the CAS
   appears only on the racy boundary.

   Ticket-vs-deposit race: a consumer whose ticket [i] is at or past
   the published frontier cannot wait for the producer (wait-freedom),
   so it poisons the cell ([bottom -> top] CAS) and reports EMPTY —
   legal, because at that moment every completed enqueue sits below
   [tail_pub <= i].  The producer, finding its next cell poisoned,
   concedes it and retries at the successor.  That skip loop is the
   one unbounded-looking path: each iteration is charged to exactly
   one completed EMPTY dequeue by a concurrent consumer, so the
   producer's work is bounded by consumers' completed operations —
   the same "bounded by others' progress" currency as the paper's
   helping, honest amortized wait-freedom rather than a per-op
   constant.  Consumers are wait-free outright: FAA, bounded walk,
   one load or one CAS.

   Reclamation: each ticket resolves its cell exactly once (value
   taken, or poisoned-and-conceded); a per-segment resolved count plus
   the producer frontier tells when a segment is dead, and the
   consumer crossing the boundary unlinks it with a [first] CAS.  An
   unresolved ticket pins its segment — [Segs] pinning rule. *)

module Make (A : Primitives.Atomic_prims.S) (P : Obs.Probe.S) (I : Inject.S) = struct
  module Seg = Segs.Make (A)
  module Pl = Plumbing.Make (A)
  module C = Obs.Counters

  type pside = {
    mutable pos : int;
    mutable seg : Seg.seg;  (* deposit walk cache (hint) *)
    mutable seg_b : int;  (* base [seg] was trusted at; min_int = never *)
  }

  type 'a handle = {
    hid : int;
    stats : C.t;
    mutable cache : Seg.seg;  (* consumer walk cache (hint) *)
    mutable cache_b : int;  (* base [cache] was trusted at; min_int = never *)
    mutable is_p : bool;
    mutable retired : bool;
  }

  type 'a t = {
    segs : Seg.t;
    head : int A.t;  (* contended: every consumer FAAs it *)
    tail_pub : int A.t;  (* resolved frontier; single-writer (producer) *)
    p : pside;  (* producer-private; padded *)
    producer : Pl.Role.t;
    registry : 'a handle Pl.Registry.t;
    retired_ops : C.t;
  }

  let probe_enabled = P.enabled
  let injector_enabled = I.enabled

  let create ?patience:_ ?(segment_shift = 10) ?(max_garbage = 16) ?(reclamation = true) () =
    let segs =
      Seg.make ~size:(1 lsl segment_shift) ~pool_limit:(max 1 max_garbage)
        ~pool_enabled:reclamation
    in
    let s0 = A.get segs.Seg.first in
    {
      segs;
      head = A.make_contended 0;
      tail_pub = A.make_contended 0;
      p = Primitives.Padding.copy_as_padded { pos = 0; seg = s0; seg_b = min_int };
      producer = Pl.Role.make ();
      registry = Pl.Registry.make ();
      retired_ops = C.create ();
    }

  let register t =
    let h =
      {
        hid = Pl.Registry.fresh_hid t.registry;
        stats = C.create_padded ();
        cache = A.get t.segs.Seg.first;
        cache_b = min_int;
        is_p = false;
        retired = false;
      }
    in
    Pl.Registry.add t.registry h;
    h

  let retire t h =
    if not h.retired then begin
      h.retired <- true;
      Pl.Registry.remove t.registry h;
      C.add ~into:t.retired_ops h.stats;
      if h.is_p then Pl.Role.release t.producer ~hid:h.hid;
      h.is_p <- false
    end

  let become_producer t h =
    Pl.Role.claim t.producer ~hid:h.hid ~queue:"Topology.Spmc" ~role:"producer";
    h.is_p <- true

  (* Unlink wholly-dead leading segments.  Any thread may call; the
     [first] CAS arbitrates, and the loop re-examines from the new
     head so a straggler segment (resolved late, after the boundary
     crossing that would have collected it) is picked up by the next
     boundary's sweep. *)
  let rec maybe_recycle t =
    let f = A.get t.segs.Seg.first in
    if
      A.get f.Seg.resolved = t.segs.Seg.size
      && A.get t.tail_pub >= A.get f.Seg.base + t.segs.Seg.size
    then
      match A.get f.Seg.next with
      | Seg.Link n ->
          if A.compare_and_set t.segs.Seg.first f n then begin
            Seg.recycle t.segs f;
            maybe_recycle t
          end
      | Seg.End _ | Seg.Recycled -> ()

  let resolve t s =
    let r = A.fetch_and_add s.Seg.resolved 1 in
    if r + 1 = t.segs.Seg.size then maybe_recycle t

  (* The producer's deposit: a top-level recursion over poisoned
     cells (see the header for the amortized bound). *)
  let rec deposit t h v =
    let i = t.p.pos in
    let s = Seg.find t.segs t.p.seg ~hint_base:t.p.seg_b i in
    t.p.seg <- s;
    t.p.seg_b <- Seg.cover t.segs i;
    (* cell located, value not yet visible: the hole window *)
    if I.enabled then I.hit Inject.Topo_enq_pending;
    if A.compare_and_set (Seg.cell s t.segs i) Cellword.bottom_w (Obj.repr v) then begin
      t.p.pos <- i + 1;
      A.set t.tail_pub (i + 1);
      h.stats.C.fast_enqueues <- h.stats.C.fast_enqueues + 1
    end
    else begin
      (* a ticket-holder poisoned [i] and reported EMPTY: concede the
         cell (it is that ticket's to resolve) and move on *)
      if P.enabled then begin
        h.stats.C.cells_skipped <- h.stats.C.cells_skipped + 1;
        h.stats.C.enq_cas_failures <- h.stats.C.enq_cas_failures + 1
      end;
      h.stats.C.slow_enqueues <- h.stats.C.slow_enqueues + 1;
      t.p.pos <- i + 1;
      A.set t.tail_pub (i + 1);
      deposit t h v
    end

  let enqueue t h v =
    if not h.is_p then become_producer t h;
    deposit t h v

  let enq_batch t h vs =
    if not h.is_p then become_producer t h;
    if P.enabled then begin
      h.stats.C.enq_batches <- h.stats.C.enq_batches + 1;
      h.stats.C.enq_batch_cells <- h.stats.C.enq_batch_cells + Array.length vs
    end;
    Array.iter (fun v -> deposit t h v) vs

  (* One head ticket, resolved exactly once. *)
  let dequeue_word t h =
    let i = A.fetch_and_add t.head 1 in
    (* ticket held, cell neither taken nor poisoned *)
    if I.enabled then I.hit Inject.Topo_deq_pending;
    let s = Seg.find t.segs h.cache ~hint_base:h.cache_b i in
    h.cache <- s;
    h.cache_b <- Seg.cover t.segs i;
    let c = Seg.cell s t.segs i in
    let w =
      if i < A.get t.tail_pub then begin
        (* the resolved frontier passed [i]: the cell holds a value (a
           poison below the frontier could only have been ours) *)
        let w = A.get c in
        A.set c Cellword.top_w;
        h.stats.C.fast_dequeues <- h.stats.C.fast_dequeues + 1;
        w
      end
      else if A.compare_and_set c Cellword.bottom_w Cellword.top_w then begin
        (* EMPTY, linearized at the poison: every completed enqueue
           sits below [tail_pub <= i] *)
        h.stats.C.fast_dequeues <- h.stats.C.fast_dequeues + 1;
        h.stats.C.empty_dequeues <- h.stats.C.empty_dequeues + 1;
        Cellword.bottom_w
      end
      else begin
        (* the producer deposited between the frontier check and the
           poison attempt: the value is ours *)
        if P.enabled then h.stats.C.deq_cas_failures <- h.stats.C.deq_cas_failures + 1;
        let w = A.get c in
        A.set c Cellword.top_w;
        h.stats.C.fast_dequeues <- h.stats.C.fast_dequeues + 1;
        w
      end
    in
    resolve t s;
    w

  let dequeue t h =
    let w = dequeue_word t h in
    if w == Cellword.bottom_w then None else Some (Obj.obj w)

  let dequeue_or t h default =
    let w = dequeue_word t h in
    if w == Cellword.bottom_w then default else Obj.obj w

  let rec deq_batch_into_loop t h (out : 'a array) k n =
    if n = k then n
    else
      let w = dequeue_word t h in
      if w == Cellword.bottom_w then n
      else begin
        out.(n) <- Obj.obj w;
        deq_batch_into_loop t h out k (n + 1)
      end

  let deq_batch_into t h (out : 'a array) ~default =
    let k = Array.length out in
    if P.enabled then begin
      h.stats.C.deq_batches <- h.stats.C.deq_batches + 1;
      h.stats.C.deq_batch_cells <- h.stats.C.deq_batch_cells + k
    end;
    let n = deq_batch_into_loop t h out k 0 in
    Array.fill out n (k - n) default;
    n

  (* Burned (EMPTY) tickets advance [head] past the frontier, so this
     undercounts under racing empty dequeues; it is a gauge, and the
     clamp keeps it sane. *)
  let approx_length t = max 0 (A.get t.tail_pub - A.get t.head)

  let snapshot t : Obs.Snapshot.t =
    let ops = C.create () in
    C.add ~into:ops t.retired_ops;
    let live = Pl.Registry.live_list t.registry in
    List.iter (fun h -> C.add ~into:ops h.stats) live;
    {
      Obs.Snapshot.ops;
      segments = Seg.gauges t.segs;
      handles = { ring = List.length live; live = List.length live; free_slots = 0 };
      patience = 0;
      probe_enabled = P.enabled;
    }

  let reset_stats t =
    C.reset t.retired_ops;
    List.iter (fun h -> C.reset h.stats) (Pl.Registry.live_list t.registry)
end
