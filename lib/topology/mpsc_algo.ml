(* The MPSC variant, Jiffy-style (Adas & Friedman, arXiv:2010.14189):
   producers contend on one FAA'd tail ticket and deposit with a plain
   store — no CAS anywhere on the enqueue path, because the single
   consumer never claims a cell by poisoning it; it just walks.  The
   consumer owns everything else as private plain state.

   The hole problem: a producer that FAAs and then stalls (the
   [Topo_enq_pending] window) leaves a bottom cell *behind* faster
   producers' deposits.  The consumer must neither wait on the hole
   (that would forfeit wait-freedom) nor lose FIFO when the hole fills
   late.  Scheme: the consumer scans forward once per cell, recording
   still-bottom cells on a private [holes] list (ascending), and
   serves each dequeue from the lowest filled hole, else the scan
   frontier.  A still-bottom hole belongs to an enqueue that has not
   linearized yet (its value is unpublished), so dequeues passing it
   are legal; once it fills, it is the oldest unconsumed index and
   must be served before anything younger.

   Picking "the lowest filled" is where the care is: reads are
   sequential, so a hole read as bottom can fill *behind* the read
   while a younger candidate is found filled — taking the candidate
   then reorders the queue.  The discipline ([verify_oldest]): find
   any filled candidate, then re-read every hole strictly below it;
   a filled one becomes the candidate and the sweep restarts below
   *it*.  The candidate index strictly decreases, so the loop is
   bounded by the holes list — and each demotion is caused by a
   concurrent enqueue's completed deposit, the usual "bounded by
   others' progress" currency.  Cells transition bottom -> value
   monotonically (only the consumer tops them), so on the final
   sweep every read of bottom also held at the sweep's *first* read:
   that instant is the linearization point — the candidate was
   filled (its read happened earlier) and everything older was still
   unpublished.  The same monotone argument linearizes EMPTY at the
   dequeue's earliest read, so the all-bottom paths need no second
   pass.  [holes] is empty in the uncontended steady state, so the
   hot path allocates nothing; a cons per observed in-flight
   producer is the price of tolerating stalls and it is charged only
   under contention.

   Wait-freedom: enqueue is FAA + bounded [Segs.find] walk + store.
   Dequeue's hole sweeps are bounded by the number of producers that
   were mid-enqueue at scan time; the forward scan is bounded by the
   tail snapshot taken at the start.  No retry loops.

   Reclamation: the consumer advances [first] past segments wholly
   below the consumed prefix (min hole index, else the scan frontier)
   and recycles them — it is the sole advancer, so no CAS.  A stalled
   producer's un-filled hole pins its segment and everything after,
   bounding reclamation by the oldest in-flight enqueue, which is the
   honest best possible.  Middle segments full of consumed cells
   behind a hole are not unlinked early (a deliberate simplification;
   the holes list already keeps scans off them). *)

module Make (A : Primitives.Atomic_prims.S) (P : Obs.Probe.S) (I : Inject.S) = struct
  module Seg = Segs.Make (A)
  module Pl = Plumbing.Make (A)
  module C = Obs.Counters

  type cside = {
    mutable resume : int;  (* first never-examined index *)
    mutable r_seg : Seg.seg;  (* segment the scan resumes in *)
    mutable holes : (int * Seg.seg) list;  (* examined, still-bottom; ascending *)
    mutable cand_i : int;  (* scratch: candidate passing, avoids option boxes *)
    mutable cand_s : Seg.seg;  (* scratch: candidate's segment *)
  }

  type 'a handle = {
    hid : int;
    stats : C.t;
    mutable cache : Seg.seg;  (* producer walk cache (hint) *)
    mutable cache_b : int;  (* base [cache] was trusted at; min_int = never *)
    mutable is_c : bool;
    mutable retired : bool;
  }

  type 'a t = {
    segs : Seg.t;
    tail : int A.t;  (* contended: every producer FAAs it *)
    head_pub : int A.t;  (* values taken; single-writer (consumer) *)
    c : cside;  (* consumer-private; padded *)
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
      tail = A.make_contended 0;
      head_pub = A.make_contended 0;
      c =
        Primitives.Padding.copy_as_padded
          { resume = 0; r_seg = s0; holes = []; cand_i = 0; cand_s = s0 };
      consumer = Pl.Role.make ();
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
      if h.is_c then Pl.Role.release t.consumer ~hid:h.hid;
      h.is_c <- false
    end

  let become_consumer t h =
    Pl.Role.claim t.consumer ~hid:h.hid ~queue:"Topology.Mpsc" ~role:"consumer";
    h.is_c <- true

  let enqueue t h v =
    let i = A.fetch_and_add t.tail 1 in
    (* ticket owned, value unpublished: the Jiffy hole window *)
    if I.enabled then I.hit Inject.Topo_enq_pending;
    let s = Seg.find t.segs h.cache ~hint_base:h.cache_b i in
    h.cache <- s;
    h.cache_b <- Seg.cover t.segs i;
    A.set (Seg.cell s t.segs i) (Obj.repr v);
    h.stats.C.fast_enqueues <- h.stats.C.fast_enqueues + 1

  let enq_batch t h vs =
    let k = Array.length vs in
    if k > 0 then begin
      (* one FAA reserves [k] consecutive tickets; until each deposit
         lands, each reserved cell is an ordinary hole *)
      let i0 = A.fetch_and_add t.tail k in
      if I.enabled then I.hit Inject.Topo_enq_pending;
      if P.enabled then begin
        h.stats.C.enq_batches <- h.stats.C.enq_batches + 1;
        h.stats.C.enq_batch_cells <- h.stats.C.enq_batch_cells + k
      end;
      for j = 0 to k - 1 do
        let i = i0 + j in
        let s = Seg.find t.segs h.cache ~hint_base:h.cache_b i in
        h.cache <- s;
        h.cache_b <- Seg.cover t.segs i;
        A.set (Seg.cell s t.segs i) (Obj.repr vs.(j))
      done;
      h.stats.C.fast_enqueues <- h.stats.C.fast_enqueues + k
    end

  (* The consumed prefix: every index below it was taken or is a
     recorded hole; the lowest hole (if any) caps it. *)
  let prefix_bound t = match t.c.holes with (i, _) :: _ -> i | [] -> t.c.resume

  (* Advance [first] past wholly-consumed segments and recycle them.
     Sole advancer: the consumer.  Stops at the chain end ([End]) so
     there is always a live segment to stand on. *)
  let rec advance_first t =
    let bound = prefix_bound t in
    let f = A.get t.segs.Seg.first in
    if bound >= A.get f.Seg.base + t.segs.Seg.size then
      match A.get f.Seg.next with
      | Seg.Link n ->
          A.set t.segs.Seg.first n;
          if t.c.r_seg == f then t.c.r_seg <- n;
          Seg.recycle t.segs f;
          advance_first t
      | Seg.End _ | Seg.Recycled -> ()

  let take t h s i w =
    A.set (Seg.cell s t.segs i) Cellword.top_w;
    A.set t.head_pub (A.get t.head_pub + 1);
    h.stats.C.fast_dequeues <- h.stats.C.fast_dequeues + 1;
    advance_first t;
    w

  (* Lowest hole currently filled, if any: candidate left in
     [cand_i]/[cand_s], its word returned ([bottom_w] = none found).
     Allocation-free; does not mutate the list. *)
  let rec hole_candidate t = function
    | [] -> Cellword.bottom_w
    | (i, s) :: rest ->
        let w = A.get (Seg.cell s t.segs i) in
        if w == Cellword.bottom_w then hole_candidate t rest
        else begin
          t.c.cand_i <- i;
          t.c.cand_s <- s;
          w
        end

  (* The FIFO verification of the header: re-read every hole strictly
     below the candidate in [cand_i]/[cand_s]; a filled one demotes
     the candidate and restarts the sweep below it.  On return the
     final sweep's first read is the linearization instant. *)
  let rec verify_oldest t w holes =
    match holes with
    | (j, sj) :: rest when j < t.c.cand_i ->
        let wj = A.get (Seg.cell sj t.segs j) in
        if wj == Cellword.bottom_w then verify_oldest t w rest
        else begin
          t.c.cand_i <- j;
          t.c.cand_s <- sj;
          (* demoted: restart the sweep below the new candidate *)
          verify_oldest t wj t.c.holes
        end
    | _ -> w

  let rec remove_hole i = function
    | [] -> []
    | (j, _) :: rest when j = i -> rest
    | hole :: rest -> hole :: remove_hole i rest

  (* Forward scan from the frontier toward the tail snapshot.  A
     still-bottom cell becomes a hole (skipped, recorded); a filled
     cell becomes the candidate (NOT taken here — it must survive
     [verify_oldest] first, so [resume] is not advanced past it yet).
     [End] mid-scan means indices up to [tail0] belong to producers
     that have not even linked their segment yet — all holes by
     definition, and [Segs.find]'s walk will materialize the chain
     when they do. *)
  let rec scan t h tail0 i s =
    if i >= tail0 then begin
      t.c.resume <- i;
      t.c.r_seg <- s;
      Cellword.bottom_w
    end
    else
      let b = A.get s.Seg.base in
      if i >= b + t.segs.Seg.size then
        match A.get s.Seg.next with
        | Seg.Link n -> scan t h tail0 i n
        | Seg.End _ ->
            t.c.resume <- i;
            t.c.r_seg <- s;
            Cellword.bottom_w
        | Seg.Recycled ->
            (* impossible: only the consumer recycles, never at or
               beyond its own frontier *)
            assert false
      else
        let w = A.get (Seg.cell s t.segs i) in
        if w == Cellword.bottom_w then begin
          t.c.holes <- t.c.holes @ [ (i, s) ];
          if P.enabled then h.stats.C.cells_skipped <- h.stats.C.cells_skipped + 1;
          scan t h tail0 (i + 1) s
        end
        else begin
          t.c.cand_i <- i;
          t.c.cand_s <- s;
          w
        end

  let dequeue_word t h =
    if not h.is_c then become_consumer t h;
    let w = hole_candidate t t.c.holes in
    if w != Cellword.bottom_w then begin
      (* fast path: serve from the holes list, no scan *)
      let w = verify_oldest t w t.c.holes in
      t.c.holes <- remove_hole t.c.cand_i t.c.holes;
      take t h t.c.cand_s t.c.cand_i w
    end
    else begin
      let tail0 = A.get t.tail in
      let w = scan t h tail0 t.c.resume t.c.r_seg in
      if w == Cellword.bottom_w then begin
        (* legal EMPTY: at this dequeue's earliest read, every index
           below the tail snapshot was consumed or still bottom (an
           un-linearized in-flight enqueue) *)
        h.stats.C.fast_dequeues <- h.stats.C.fast_dequeues + 1;
        h.stats.C.empty_dequeues <- h.stats.C.empty_dequeues + 1;
        w
      end
      else begin
        let fi = t.c.cand_i and fs = t.c.cand_s in
        let w = verify_oldest t w t.c.holes in
        if t.c.cand_i = fi then begin
          (* the frontier cell survived: consume it and move past *)
          t.c.resume <- fi + 1;
          t.c.r_seg <- fs
        end
        else begin
          (* an older hole filled behind the scan: serve it and leave
             the frontier cell for the next scan to rediscover *)
          t.c.holes <- remove_hole t.c.cand_i t.c.holes;
          t.c.resume <- fi;
          t.c.r_seg <- fs
        end;
        take t h t.c.cand_s t.c.cand_i w
      end
    end

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

  let approx_length t = max 0 (A.get t.tail - A.get t.head_pub)

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
