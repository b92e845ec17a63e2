(* The topology-adaptive queue: starts on the cheapest variant (SPSC)
   and degrades — SPSC -> MPSC/SPMC -> general — as handles reveal
   roles.  Roles are inferred at first use (first enqueue claims
   "producer", first dequeue "consumer") and the seen-role counters
   are monotone: a queue never upgrades back, so the steady state pays
   one branch-predictable dispatch on a backend that never changes.

   The switch is drain-then-switch behind a grace period, and that is
   forced, not chosen: a chained-backend scheme (new ops go to the new
   backend while stragglers finish on the old) is not linearizable —
   a straggler's late deposit into the old backend can be dequeued
   after a younger value from the new one, inverting FIFO against
   real-time order.  So the switcher (the operation that made the
   current backend illegal, e.g. a second producer's first enqueue)
   (1) takes the switch token, (2) publishes [Switching] so no
   operation re-enters, (3) waits until every registered handle is
   observed outside a backend operation once (each op raises its
   [active] flag before reading the state, so after [Switching] is
   published one observation per handle suffices), (4) drains the old
   backend into a fresh one of the target shape — it is the sole
   accessor, so EMPTY is exact and FIFO is preserved — and (5)
   publishes the new backend under a bumped epoch.  Handles re-register
   on the new backend lazily, on their next operation.

   The grace period makes the *switch* blocking (it waits for in-
   flight operations to leave); every per-operation path stays
   wait-free, and switches happen at most twice per queue lifetime
   (the lattice has height 2).

   Fault windows: [Topo_switch_draining] fires with the token held and
   the old backend quiesced.  A kill *there* restores the old backend
   untouched.  A kill raised by a backend inject point *during* the
   drain is absorbed until the drain completes and the new backend is
   committed, then re-raised ("die late"): dying mid-drain must not
   publish a half-drained backend.  Absorbed-kill replays are safe
   because every backend enqueue kill window is pre-deposit (the value
   is provably absent, so re-enqueueing cannot duplicate) — the drain
   runs single-threaded on a fresh backend, so no other windows are
   reachable. *)

module Make
    (A : Primitives.Atomic_prims.S)
    (P : Obs.Probe.S)
    (I : Inject.S)
    (G : Variant_intf.S) =
struct
  module Sp = Spsc_algo.Make (A) (P) (I)
  module Mp = Mpsc_algo.Make (A) (P) (I)
  module Sm = Spmc_algo.Make (A) (P) (I)
  module Pl = Plumbing.Make (A)

  type 'a backend =
    | Bspsc of 'a Sp.t
    | Bmpsc of 'a Mp.t
    | Bspmc of 'a Sm.t
    | Bgen of 'a G.t

  type 'a sub =
    | Sub_none
    | Sub_spsc of 'a Sp.handle
    | Sub_mpsc of 'a Mp.handle
    | Sub_spmc of 'a Sm.handle
    | Sub_gen of 'a G.handle

  type 'a active = { b : 'a backend; epoch : int }
  type 'a state = Active of 'a active | Switching

  type 'a handle = {
    hid : int;
    active : int A.t;  (* 1 while inside a backend operation; padded *)
    mutable epoch : int;
    mutable sub : 'a sub;
    mutable is_p : bool;  (* this handle is counted in producers_seen *)
    mutable is_c : bool;
    mutable retired : bool;
  }

  type opts = {
    o_patience : int option;
    o_segment_shift : int option;
    o_max_garbage : int option;
    o_reclamation : bool option;
    o_segment_cap : int option;
  }

  type 'a t = {
    state : 'a state A.t;
    switch_lock : int A.t;
    producers_seen : int A.t;  (* monotone: handles that ever enqueued *)
    consumers_seen : int A.t;
    switches : int A.t;
    registry : 'a handle Pl.Registry.t;
    opts : opts;
  }

  let probe_enabled = P.enabled
  let injector_enabled = I.enabled

  (* [o_segment_cap] reaches only the general backend: the specialized
     variants recycle through [Segs]' bounded pool already and have no
     bounded-memory admission of their own, so the cap takes effect
     when (and only when) the queue degrades to general.  Documented
     in DESIGN.md §11. *)
  let make_backend opts mode : 'a backend =
    let { o_patience; o_segment_shift; o_max_garbage; o_reclamation; o_segment_cap } =
      opts
    in
    match mode with
    | `Spsc ->
        Bspsc
          (Sp.create ?patience:o_patience ?segment_shift:o_segment_shift
             ?max_garbage:o_max_garbage ?reclamation:o_reclamation ())
    | `Mpsc ->
        Bmpsc
          (Mp.create ?patience:o_patience ?segment_shift:o_segment_shift
             ?max_garbage:o_max_garbage ?reclamation:o_reclamation ())
    | `Spmc ->
        Bspmc
          (Sm.create ?patience:o_patience ?segment_shift:o_segment_shift
             ?max_garbage:o_max_garbage ?reclamation:o_reclamation ())
    | `General ->
        Bgen
          (G.create ?patience:o_patience ?segment_shift:o_segment_shift
             ?max_garbage:o_max_garbage ?reclamation:o_reclamation
             ?segment_cap:o_segment_cap ())

  let create ?patience ?segment_shift ?max_garbage ?reclamation ?segment_cap () =
    let opts =
      {
        o_patience = patience;
        o_segment_shift = segment_shift;
        o_max_garbage = max_garbage;
        o_reclamation = reclamation;
        o_segment_cap = segment_cap;
      }
    in
    {
      state = A.make_contended (Active { b = make_backend opts `Spsc; epoch = 0 });
      switch_lock = A.make_contended 0;
      producers_seen = A.make_contended 0;
      consumers_seen = A.make_contended 0;
      switches = A.make 0;
      registry = Pl.Registry.make ();
      opts;
    }

  let register t =
    let h =
      {
        hid = Pl.Registry.fresh_hid t.registry;
        active = A.make_contended 0;
        epoch = -1;
        sub = Sub_none;
        is_p = false;
        is_c = false;
        retired = false;
      }
    in
    Pl.Registry.add t.registry h;
    h

  (* Which topologies the seen-role counts still allow. *)
  let legal t b =
    let p = A.get t.producers_seen and c = A.get t.consumers_seen in
    match b with
    | Bgen _ -> true
    | Bmpsc _ -> c <= 1
    | Bspmc _ -> p <= 1
    | Bspsc _ -> p <= 1 && c <= 1

  let target_mode t =
    let p = A.get t.producers_seen and c = A.get t.consumers_seen in
    if p <= 1 && c <= 1 then `Spsc
    else if c <= 1 then `Mpsc
    else if p <= 1 then `Spmc
    else `General

  let mode t =
    match A.get t.state with
    | Switching -> "switching"
    | Active { b = Bspsc _; _ } -> "spsc"
    | Active { b = Bmpsc _; _ } -> "mpsc"
    | Active { b = Bspmc _; _ } -> "spmc"
    | Active { b = Bgen _; _ } -> "general"

  let switches t = A.get t.switches

  let b_register : 'a backend -> 'a sub = function
    | Bspsc q -> Sub_spsc (Sp.register q)
    | Bmpsc q -> Sub_mpsc (Mp.register q)
    | Bspmc q -> Sub_spmc (Sm.register q)
    | Bgen q -> Sub_gen (G.register q)

  let b_retire (b : 'a backend) (sub : 'a sub) =
    match b, sub with
    | Bspsc q, Sub_spsc sh -> Sp.retire q sh
    | Bmpsc q, Sub_mpsc sh -> Mp.retire q sh
    | Bspmc q, Sub_spmc sh -> Sm.retire q sh
    | Bgen q, Sub_gen sh -> G.retire q sh
    | _ -> ()

  (* Every registered handle observed outside a backend op once.  Ops
     raise [active] before reading the state and no op re-enters after
     [Switching] is published, so one pass suffices.  The switcher's
     own flag is down (role noting runs before [enter]), and a storm
     victim killed mid-op lowers its flag in the exception path. *)
  let quiesce t =
    List.iter
      (fun h ->
        while A.get h.active = 1 do
          A.cpu_relax ()
        done)
      (Pl.Registry.live_list t.registry)

  (* Drain [ob] into [nb], absorbing backend kill windows until the
     new backend is committed (see header).  Every absorbed enqueue
     kill is pre-deposit, so the replay cannot duplicate; a dequeue
     kill burns a ticket, which the storm accounting already budgets
     per kill. *)
  let drain killed ob oh nb nh =
    let deq () =
      match ob, oh with
      | Bspsc q, Sub_spsc h -> (
          match Sp.dequeue q h with Some v -> Some v | None -> None)
      | Bmpsc q, Sub_mpsc h -> Mp.dequeue q h
      | Bspmc q, Sub_spmc h -> Sm.dequeue q h
      | Bgen q, Sub_gen h -> G.dequeue q h
      | _ -> assert false
    in
    let enq v =
      match nb, nh with
      | Bspsc q, Sub_spsc h -> Sp.enqueue q h v
      | Bmpsc q, Sub_mpsc h -> Mp.enqueue q h v
      | Bspmc q, Sub_spmc h -> Sm.enqueue q h v
      | Bgen q, Sub_gen h -> G.enqueue q h v
      | _ -> assert false
    in
    let rec move () =
      match (try `V (deq ()) with Inject.Killed _ as e -> killed := Some e; `Again) with
      | `Again -> move ()
      | `V None -> ()
      | `V (Some v) ->
          let rec put () =
            try enq v with Inject.Killed _ as e ->
              killed := Some e;
              put ()
          in
          put ();
          move ()
    in
    move ()

  let do_switch t (a : 'a active) =
    if A.compare_and_set t.switch_lock 0 1 then begin
      let committed = ref false in
      let killed = ref None in
      let finish () =
        if not !committed then A.set t.state (Active a);
        A.set t.switch_lock 0
      in
      (match A.get t.state with
      | Active cur when cur.epoch = a.epoch && not (legal t cur.b) -> (
          A.set t.state Switching;
          try
            quiesce t;
            if I.enabled then I.hit Inject.Topo_switch_draining;
            (* release the old backend's role claims (its sub-handles
               die with it — handles re-register on the new epoch), so
               the drain's fresh handle can claim the consumer seat *)
            List.iter
              (fun h -> if h.epoch = a.epoch then b_retire a.b h.sub)
              (Pl.Registry.live_list t.registry);
            let nb = make_backend t.opts (target_mode t) in
            let oh = b_register a.b in
            let nh = b_register nb in
            drain killed a.b oh nb nh;
            (* the drain handle's role claims must not outlive the
               drain, or the first real producer/consumer would find
               its seat taken *)
            b_retire nb nh;
            b_retire a.b oh;
            A.set t.state (Active { b = nb; epoch = a.epoch + 1 });
            committed := true;
            ignore (A.fetch_and_add t.switches 1);
            A.set t.switch_lock 0
          with e ->
            finish ();
            raise e)
      | _ ->
          (* someone else already moved the epoch on; nothing to do *)
          A.set t.switch_lock 0);
      match !killed with Some e -> raise e | None -> ()
    end

  (* Called on role growth: if the current backend no longer fits the
     seen roles, switch (or wait out a switch already in flight). *)
  let rec ensure_legal t =
    match A.get t.state with
    | Switching ->
        A.cpu_relax ();
        ensure_legal t
    | Active a ->
        if not (legal t a.b) then begin
          do_switch t a;
          ensure_legal t
        end

  let note_producer t h =
    if not h.is_p then begin
      h.is_p <- true;
      let n = A.fetch_and_add t.producers_seen 1 in
      if n > 0 then ensure_legal t
    end

  let note_consumer t h =
    if not h.is_c then begin
      h.is_c <- true;
      let n = A.fetch_and_add t.consumers_seen 1 in
      if n > 0 then ensure_legal t
    end

  (* Raise the active flag, then re-read the state: a backend read
     under a raised flag stays valid until the flag drops (the
     switcher cannot pass [quiesce]).  Re-registers the sub-handle on
     an epoch change. *)
  let rec enter t h =
    A.set h.active 1;
    match A.get t.state with
    | Switching ->
        A.set h.active 0;
        A.cpu_relax ();
        enter t h
    | Active a ->
        if h.epoch <> a.epoch then begin
          h.sub <- b_register a.b;
          h.epoch <- a.epoch
        end;
        a.b

  let[@inline] exit_op h = A.set h.active 0

  let enqueue t h v =
    note_producer t h;
    let b = enter t h in
    (try
       match b, h.sub with
       | Bspsc q, Sub_spsc sh -> Sp.enqueue q sh v
       | Bmpsc q, Sub_mpsc sh -> Mp.enqueue q sh v
       | Bspmc q, Sub_spmc sh -> Sm.enqueue q sh v
       | Bgen q, Sub_gen sh -> G.enqueue q sh v
       | _ -> assert false
     with e ->
       exit_op h;
       raise e);
    exit_op h

  (* Bounded admission lives in the general backend only (see
     [make_backend]); a specialized backend admits unconditionally, so
     [try_enqueue] there is [enqueue] returning [true]. *)
  let try_enqueue t h v =
    note_producer t h;
    let b = enter t h in
    let r =
      try
        match b, h.sub with
        | Bspsc q, Sub_spsc sh ->
            Sp.enqueue q sh v;
            true
        | Bmpsc q, Sub_mpsc sh ->
            Mp.enqueue q sh v;
            true
        | Bspmc q, Sub_spmc sh ->
            Sm.enqueue q sh v;
            true
        | Bgen q, Sub_gen sh -> G.try_enqueue q sh v
        | _ -> assert false
      with e ->
        exit_op h;
        raise e
    in
    exit_op h;
    r

  let dequeue t h =
    note_consumer t h;
    let b = enter t h in
    let r =
      try
        match b, h.sub with
        | Bspsc q, Sub_spsc sh -> Sp.dequeue q sh
        | Bmpsc q, Sub_mpsc sh -> Mp.dequeue q sh
        | Bspmc q, Sub_spmc sh -> Sm.dequeue q sh
        | Bgen q, Sub_gen sh -> G.dequeue q sh
        | _ -> assert false
      with e ->
        exit_op h;
        raise e
    in
    exit_op h;
    r

  let dequeue_or t h default =
    note_consumer t h;
    let b = enter t h in
    let r =
      try
        match b, h.sub with
        | Bspsc q, Sub_spsc sh -> Sp.dequeue_or q sh default
        | Bmpsc q, Sub_mpsc sh -> Mp.dequeue_or q sh default
        | Bspmc q, Sub_spmc sh -> Sm.dequeue_or q sh default
        | Bgen q, Sub_gen sh -> G.dequeue_or q sh default
        | _ -> assert false
      with e ->
        exit_op h;
        raise e
    in
    exit_op h;
    r

  let enq_batch t h vs =
    note_producer t h;
    let b = enter t h in
    (try
       match b, h.sub with
       | Bspsc q, Sub_spsc sh -> Sp.enq_batch q sh vs
       | Bmpsc q, Sub_mpsc sh -> Mp.enq_batch q sh vs
       | Bspmc q, Sub_spmc sh -> Sm.enq_batch q sh vs
       | Bgen q, Sub_gen sh -> G.enq_batch q sh vs
       | _ -> assert false
     with e ->
       exit_op h;
       raise e);
    exit_op h

  let try_enq_batch t h vs =
    note_producer t h;
    let b = enter t h in
    let r =
      try
        match b, h.sub with
        | Bspsc q, Sub_spsc sh ->
            Sp.enq_batch q sh vs;
            true
        | Bmpsc q, Sub_mpsc sh ->
            Mp.enq_batch q sh vs;
            true
        | Bspmc q, Sub_spmc sh ->
            Sm.enq_batch q sh vs;
            true
        | Bgen q, Sub_gen sh -> G.try_enq_batch q sh vs
        | _ -> assert false
      with e ->
        exit_op h;
        raise e
    in
    exit_op h;
    r

  let deq_batch_into t h out ~default =
    note_consumer t h;
    let b = enter t h in
    let r =
      try
        match b, h.sub with
        | Bspsc q, Sub_spsc sh -> Sp.deq_batch_into q sh out ~default
        | Bmpsc q, Sub_mpsc sh -> Mp.deq_batch_into q sh out ~default
        | Bspmc q, Sub_spmc sh -> Sm.deq_batch_into q sh out ~default
        | Bgen q, Sub_gen sh -> G.deq_batch_into q sh out ~default
        | _ -> assert false
      with e ->
        exit_op h;
        raise e
    in
    exit_op h;
    r

  let retire t h =
    if not h.retired then begin
      h.retired <- true;
      Pl.Registry.remove t.registry h;
      (* the sub-handle dies with its backend on a stale epoch *)
      (match A.get t.state with
      | Active a when a.epoch = h.epoch -> (
          match a.b, h.sub with
          | Bspsc q, Sub_spsc sh -> Sp.retire q sh
          | Bmpsc q, Sub_mpsc sh -> Mp.retire q sh
          | Bspmc q, Sub_spmc sh -> Sm.retire q sh
          | Bgen q, Sub_gen sh -> G.retire q sh
          | _ -> ())
      | _ -> ());
      h.sub <- Sub_none
      (* producers_seen/consumers_seen stay: the lattice is monotone,
         so a retire-then-register cycle lands on a wider variant
         rather than racing an upgrade *)
    end

  let rec approx_length t =
    match A.get t.state with
    | Switching ->
        A.cpu_relax ();
        approx_length t
    | Active a -> (
        match a.b with
        | Bspsc q -> Sp.approx_length q
        | Bmpsc q -> Mp.approx_length q
        | Bspmc q -> Sm.approx_length q
        | Bgen q -> G.approx_length q)

  (* Current backend's view (drained history is folded into it by the
     drain's own operations). *)
  let rec snapshot t =
    match A.get t.state with
    | Switching ->
        A.cpu_relax ();
        snapshot t
    | Active a -> (
        match a.b with
        | Bspsc q -> Sp.snapshot q
        | Bmpsc q -> Mp.snapshot q
        | Bspmc q -> Sm.snapshot q
        | Bgen q -> G.snapshot q)

  let rec reset_stats t =
    match A.get t.state with
    | Switching ->
        A.cpu_relax ();
        reset_stats t
    | Active a -> (
        match a.b with
        | Bspsc q -> Sp.reset_stats q
        | Bmpsc q -> Mp.reset_stats q
        | Bspmc q -> Sm.reset_stats q
        | Bgen q -> G.reset_stats q)
end
