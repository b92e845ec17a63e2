(* [fanout]: the scheduler's fork-join path.  [Sched.Scheduler.create ()]
   runs at its default worker count (nproc - 1).  A closed-loop client
   keeps [in_flight] root requests outstanding.  Each root spawns a
   seed-chosen number of children (1 to [max_children], mean 4) and
   awaits them all, returning the sum of their results.  Roots cross
   the injector (a wait-free queue); children use the worker's deque,
   promises and effect fibers, so the queue does little of the work and
   the scheduler most of it.  A unit is one completed task (root or
   child); latency is a root's submit-to-result time, stamped at submit
   by the client and at the end of the root body by the task itself.
   Every root's sum is checked against the client's own computation; an
   exception or a promise still unresolved at the end is a failure. *)

open Common
module Kit = Perfbench_kit
module S = Sched.Scheduler

(* The task mix follows the fan-out rows the repository already has
   ([Harness.Sched_bench] and [repro sched] spawn 4 subtasks per
   root): children per root are uniform on 1..7, mean 4. *)
let max_children = 7

(* Roots in flight: two per worker, one running and one queued, so a
   worker that finishes a root finds the next one while the client
   collects the result and refills.  One per worker leaves the worker
   idle during that refill; more per worker only queue roots behind
   each other (README.md has the measurements). *)
let roots_per_worker = 2
let workers = max 1 (Kit.Host.nproc () - 1)
let in_flight = roots_per_worker * workers
(* mean gap between traced roots *)
let trace_mean = 1024
let check_every = 16

let children ~seed r = 1 + (Kit.Audit.mix (seed + r) land max_int mod max_children)
let child_value ~seed r j = Kit.Audit.mix ((seed * 7919) + (r * max_children) + j) land 0xFFFF

let expected ~seed r =
  let s = ref 0 in
  for j = 0 to children ~seed r - 1 do
    s := !s + child_value ~seed r j
  done;
  !s

type slot = {
  mutable root : int;  (** request id *)
  mutable prom : int S.Promise.t;
  mutable submit : int;
  mutable began : int;  (** written by the root body *)
  mutable ended : int;  (** written by the root body *)
}

let root_body sched ~seed ~spans ~traced sl r () =
  let t = now () in
  sl.began <- t;
  let k = children ~seed r in
  let root_id, await_id =
    match spans with
    | Some sp when traced ->
      let root_id = Kit.Spans.open_ sp ~name:sched_root ~parent:Kit.Spans.none ~req:r ~start:t in
      (root_id, Kit.Spans.open_ sp ~name:sched_await ~parent:root_id ~req:r ~start:t)
    | _ -> (Kit.Spans.none, Kit.Spans.none)
  in
  let kids =
    Array.init k (fun j ->
        let child () =
          match spans with
          | Some sp when traced ->
            let a = now () in
            let v = child_value ~seed r j in
            Kit.Spans.record sp ~name:sched_child ~parent:await_id ~req:r ~start:a ~stop:(now ());
            v
          | _ -> child_value ~seed r j
        in
        match spans with
        | Some sp when traced ->
          let a = now () in
          let p = S.async sched child in
          Kit.Spans.record sp ~name:sched_spawn ~parent:root_id ~req:r ~start:a ~stop:(now ());
          p
        | _ -> S.async sched child)
  in
  (match spans with Some sp when traced -> Kit.Spans.set_start sp await_id (now ()) | _ -> ());
  let sum = Array.fold_left (fun acc p -> acc + S.Promise.await p) 0 kids in
  let e = now () in
  (match spans with
  | Some sp when traced ->
    Kit.Spans.close sp await_id ~stop:e;
    Kit.Spans.close sp root_id ~stop:e
  | _ -> ());
  sl.ended <- e;
  sum

type client = {
  lat : Kit.Samples.t;
  qdelay : Kit.Samples.t;
  sampler : Kit.Sampler.t;  (** which roots a traced phase traces *)
  mutable next_root : int;
  mutable tasks : int;
  mutable failed : int;
  mutable backlog_max : int;
}

let submit sched ~seed ~spans cl sl =
  let r = cl.next_root in
  cl.next_root <- r + 1;
  sl.root <- r;
  let t = now () in
  sl.submit <- t;
  let traced = spans <> None && Kit.Sampler.hit cl.sampler r in
  sl.prom <- S.async sched (root_body sched ~seed ~spans ~traced sl r);
  match spans with
  | Some sp when traced ->
    Kit.Spans.record sp ~name:sched_async ~parent:Kit.Spans.none ~req:r ~start:t ~stop:(now ())
  | _ -> ()

(* One poll of a slot: on resolution, audit the root, sample its
   latency, and (if [refill]) submit the next root into the slot. *)
let collect sched ~seed ~spans cl sl ~refill =
  match S.Promise.poll sl.prom with
  | None -> false
  | Some res ->
    let r = sl.root in
    (match res with
    | Ok v when v = expected ~seed r -> ()
    | Ok _ | Error _ -> cl.failed <- cl.failed + 1);
    cl.tasks <- cl.tasks + 1 + children ~seed r;
    Kit.Samples.add cl.lat (sl.ended - sl.submit);
    Kit.Samples.add cl.qdelay (sl.began - sl.submit);
    if refill then submit sched ~seed ~spans cl sl;
    true

(* Set-up is [S.create]: the injector, the deques and the spawned
   worker domains.  Handles are registered by their domains at first
   use (a worker's as it starts, the client's at its first submit), so
   set-up does not wait for them, nor for a first task's round trip. *)
let setup_once ~seed:_ =
  let t = now () in
  let sched = S.create () in
  let dt = now () - t in
  S.shutdown sched;
  float_of_int dt /. 1e9

(* How long the client waits, after the timed run, for the roots still
   in flight before declaring them unresolved. *)
let settle_ns = 30_000_000_000

let client ~seed ~seconds ~spans =
  let sched = S.create () in
  let g = gc_start () in
  let cl =
    {
      lat = lat_buf 0;
      qdelay = Kit.Samples.create (1 lsl 16);
      sampler = Kit.Sampler.create ~seed ~mean:trace_mean;
      next_root = 0;
      tasks = 0;
      failed = 0;
      backlog_max = 0;
    }
  in
  let t0 = now () in
  let stop = deadline ~t0 ~seconds in
  let slots =
    Array.init in_flight (fun _ ->
        { root = 0; prom = S.Promise.create (); submit = 0; began = 0; ended = 0 })
  in
  Array.iter (submit sched ~seed ~spans cl) slots;
  let t = ref t0 and passes = ref 0 in
  while !t < stop do
    let progressed = ref false in
    Array.iter
      (fun sl -> if collect sched ~seed ~spans cl sl ~refill:true then progressed := true)
      slots;
    if not !progressed then Domain.cpu_relax ();
    incr passes;
    if !passes land (check_every - 1) = 0 then begin
      (match spans with
      | Some _ -> cl.backlog_max <- max cl.backlog_max (S.pending sched)
      | None -> ());
      t := now ()
    end
  done;
  let timed = cl.tasks in
  (* settle: collect the roots still in flight without refilling *)
  let open_slots = ref (Array.to_list slots) in
  let give_up = now () + settle_ns in
  while !open_slots <> [] && now () < give_up do
    open_slots := List.filter (fun sl -> not (collect sched ~seed ~spans cl sl ~refill:false)) !open_slots;
    Domain.cpu_relax ()
  done;
  let unresolved = List.length !open_slots in
  let unresolved_tasks = List.fold_left (fun a sl -> a + 1 + children ~seed sl.root) 0 !open_slots in
  let inj = S.injector_snapshot sched "default" in
  S.shutdown sched;
  let words, mi, ma = gc_delta g in
  let layer =
    match spans with
    | None -> []
    | Some sp ->
      let selfs = Kit.Spans.self_times (Kit.Spans.spans sp) in
      let qd = summarize [ cl.qdelay ] in
      self_time_figs selfs ~prefix:"sched.async" sched_async
      @ self_time_figs selfs ~prefix:"sched.spawn" sched_spawn
      @ self_time_figs selfs ~prefix:"sched.await" sched_await
      @ [
          { name = "sched.queue_delay_p50_ns"; value = float_of_int qd.p50; unit = "ns"; samples = qd.n };
          {
            name = "sched.queue_delay_p99_ns";
            value = float_of_int (p99_exn "sched.queue_delay_p99_ns" qd);
            unit = "ns";
            samples = qd.n;
          };
          ratio "sched.injector_hit_ratio" (Kit.Counts.dequeue_hit_ratio inj.ops);
          count "sched.backlog_max" (float_of_int cl.backlog_max);
        ]
  in
  {
    units = timed;
    elapsed_ns = !t - t0;
    attempted = cl.tasks + unresolved_tasks;
    failed = cl.failed + unresolved;
    minor_words = words;
    minor_gcs = mi;
    major_gcs = ma;
    layer;
  }

(* The client runs in a domain of its own, joined at the end of the
   phase.  Submitting caches an injector handle in the submitting
   domain's slot and registers an exit hook, both of which keep that
   scheduler's queue reachable for as long as the domain lives; a
   client on the main domain would keep every trial's scheduler alive
   and peak memory would grow with the number of trials.  The main
   domain only waits in [Domain.join], so at most nproc domains run;
   its backup thread still wakes for every minor collection, which is
   why run.py gives this workload a larger minor heap (README.md). *)
let phase ~seed ~seconds ~spans = Domain.join (Domain.spawn (fun () -> client ~seed ~seconds ~spans))
