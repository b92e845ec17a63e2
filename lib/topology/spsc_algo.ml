(* The SPSC variant: one producer, one consumer, no FAA, no CAS on
   the hot path.  FastForward-style cell synchronization (Giacomoni et
   al., PPoPP'08) on the paper's segment chain: the cell *is* the
   synchronization — it holds [bottom_w] until the producer's deposit,
   so the consumer decides EMPTY from one atomic load and neither side
   ever reads the other's index.

   Each side's position and current segment are private plain fields
   in a padded record; the only cross-core traffic is the value cell
   plus one single-writer published index per side, which feeds
   [approx_length] only — no hot-path read touches it.  Steady-state
   cost: enqueue = one cell store + one index store; dequeue = one
   cell load + one index store.

   Wait-freedom is immediate: no operation has a retry loop.  The
   producer's segment append has no competitor (the [End]-stamp CAS in
   [Segs.find] cannot lose when only one thread appends), and the
   consumer advances only over links the producer already installed.

   Role safety: the single-producer/single-consumer contract is
   checked, not assumed — first use claims the seat via [Plumbing.Role]
   and a second claimant raises [Invalid_argument].  Retire releases
   the seat, so sequential handoff is legal; the claim/release CAS
   edges also publish the private plain fields to the successor. *)

module Make (A : Primitives.Atomic_prims.S) (P : Obs.Probe.S) (I : Inject.S) = struct
  module Seg = Segs.Make (A)
  module Pl = Plumbing.Make (A)
  module C = Obs.Counters

  type side = { mutable pos : int; mutable seg : Seg.seg }

  type 'a handle = {
    hid : int;
    stats : C.t;
    mutable is_p : bool;
    mutable is_c : bool;
    mutable retired : bool;
  }

  type 'a t = {
    segs : Seg.t;
    p : side;  (* producer-private; padded *)
    c : side;  (* consumer-private; padded *)
    tail_pub : int A.t;  (* single-writer (producer); approx_length only *)
    head_pub : int A.t;  (* single-writer (consumer); approx_length only *)
    producer : Pl.Role.t;
    consumer : Pl.Role.t;
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
      p = Primitives.Padding.copy_as_padded { pos = 0; seg = s0 };
      c = Primitives.Padding.copy_as_padded { pos = 0; seg = s0 };
      tail_pub = A.make_contended 0;
      head_pub = A.make_contended 0;
      producer = Pl.Role.make ();
      consumer = Pl.Role.make ();
      registry = Pl.Registry.make ();
      retired_ops = C.create ();
    }

  let register t =
    let h =
      {
        hid = Pl.Registry.fresh_hid t.registry;
        stats = C.create_padded ();
        is_p = false;
        is_c = false;
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
      if h.is_c then Pl.Role.release t.consumer ~hid:h.hid;
      h.is_p <- false;
      h.is_c <- false
    end

  let become_producer t h =
    Pl.Role.claim t.producer ~hid:h.hid ~queue:"Topology.Spsc" ~role:"producer";
    h.is_p <- true

  let become_consumer t h =
    Pl.Role.claim t.consumer ~hid:h.hid ~queue:"Topology.Spsc" ~role:"consumer";
    h.is_c <- true

  (* The producer crossed its segment: materialize the successor.  As
     the sole appender the link CAS cannot lose; [acquire] still races
     consumer-side [pool_push]es, which the pool's CAS absorbs. *)
  let grow t s b =
    let ns = Seg.acquire t.segs ~base:(b + t.segs.Seg.size) in
    (match A.get s.Seg.next with
    | Seg.End _ as e -> ignore (A.compare_and_set s.Seg.next e (Seg.Link ns))
    | _ -> assert false);
    ignore (A.fetch_and_add t.segs.Seg.live 1);
    t.p.seg <- ns;
    ns

  let enqueue t h v =
    if not h.is_p then become_producer t h;
    let pos = t.p.pos in
    let s = t.p.seg in
    let b = A.get s.Seg.base in
    let s = if pos < b + t.segs.Seg.size then s else grow t s b in
    (* cell located, value not yet visible: the hole window *)
    if I.enabled then I.hit Inject.Topo_enq_pending;
    A.set (Seg.cell s t.segs pos) (Obj.repr v);
    t.p.pos <- pos + 1;
    A.set t.tail_pub (pos + 1);
    h.stats.C.fast_enqueues <- h.stats.C.fast_enqueues + 1

  (* Returns the value word, or [bottom_w] for EMPTY.  A top-level
     recursion (segment hop), not a loop: the consumer advances only
     over producer-installed links, at most one hop per [size]
     dequeues. *)
  let rec dequeue_word t h =
    let pos = t.c.pos in
    let s = t.c.seg in
    let b = A.get s.Seg.base in
    if pos < b + t.segs.Seg.size then begin
      let w = A.get (Seg.cell s t.segs pos) in
      if w == Cellword.bottom_w then begin
        h.stats.C.fast_dequeues <- h.stats.C.fast_dequeues + 1;
        h.stats.C.empty_dequeues <- h.stats.C.empty_dequeues + 1;
        w
      end
      else begin
        t.c.pos <- pos + 1;
        A.set t.head_pub (pos + 1);
        h.stats.C.fast_dequeues <- h.stats.C.fast_dequeues + 1;
        w
      end
    end
    else
      (* consumed the whole segment; the producer links its successor
         *before* depositing into it, so [End] here means truly empty *)
      match A.get s.Seg.next with
      | Seg.End _ ->
          h.stats.C.fast_dequeues <- h.stats.C.fast_dequeues + 1;
          h.stats.C.empty_dequeues <- h.stats.C.empty_dequeues + 1;
          Cellword.bottom_w
      | Seg.Link n ->
          t.c.seg <- n;
          A.set t.segs.Seg.first n;
          Seg.recycle t.segs s;
          dequeue_word t h
      | Seg.Recycled ->
          (* impossible: only this consumer recycles, and never the
             segment it stands on *)
          assert false

  let dequeue t h =
    if not h.is_c then become_consumer t h;
    let w = dequeue_word t h in
    if w == Cellword.bottom_w then None else Some (Obj.obj w)

  let dequeue_or t h default =
    if not h.is_c then become_consumer t h;
    let w = dequeue_word t h in
    if w == Cellword.bottom_w then default else Obj.obj w

  let enq_batch t h vs =
    if P.enabled then begin
      h.stats.C.enq_batches <- h.stats.C.enq_batches + 1;
      h.stats.C.enq_batch_cells <- h.stats.C.enq_batch_cells + Array.length vs
    end;
    Array.iter (fun v -> enqueue t h v) vs

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
    if not h.is_c then become_consumer t h;
    let k = Array.length out in
    if P.enabled then begin
      h.stats.C.deq_batches <- h.stats.C.deq_batches + 1;
      h.stats.C.deq_batch_cells <- h.stats.C.deq_batch_cells + k
    end;
    let n = deq_batch_into_loop t h out k 0 in
    Array.fill out n (k - n) default;
    n

  let approx_length t = max 0 (A.get t.tail_pub - A.get t.head_pub)

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
