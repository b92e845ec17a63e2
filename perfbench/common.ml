(* Pieces every workload shares: the peer-domain handshake that
   separates set-up from the timed run, the latency buffers, and the
   record a timed phase returns. *)

module Kit = Perfbench_kit

let now = Kit.Clock.now_ns
let deadline ~t0 ~seconds = t0 + int_of_float (seconds *. 1e9)

(* {1 Latency samples}

   One buffer per domain that samples latency, made once per process and
   cleared before each trial, so repeated trials neither re-allocate
   them nor grow peak memory. *)

let lat_bufs = lazy (Array.init 2 (fun _ -> Kit.Samples.create (1 lsl 18)))
let lat_buf i = (Lazy.force lat_bufs).(i)
let clear_latency () = Array.iter Kit.Samples.clear (Lazy.force lat_bufs)

let summarize bufs = Kit.Stats.summarize (Array.concat (List.map Kit.Samples.to_array bufs))
let latency () = summarize (Array.to_list (Lazy.force lat_bufs))

(* The p99 of a summary; a run with too few samples to support it
   stops rather than report another percentile under its name. *)
let p99_exn what (s : Kit.Stats.summary) =
  match s.p99 with
  | Some v -> v
  | None ->
    Printf.printf "  %s: %d samples cannot support p99 (it needs %d beyond it)\n" what s.n Kit.Stats.min_tail;
    exit 1

(* {1 Peers}

   A peer domain runs [init] (creating its handles) as part of set-up,
   reports ready, then waits for the start time of the timed run — or
   for [quit], when only set-up is being measured.  Both waits block
   instead of spinning: a spinning waiter that shares a core with the
   domain it waits for would hold it off for a whole time slice. *)

(* A write-once int cell that readers block on. *)
type cell = { m : Mutex.t; c : Condition.t; mutable v : int }

let cell () = { m = Mutex.create (); c = Condition.create (); v = 0 }

let put cl v =
  Mutex.lock cl.m;
  cl.v <- v;
  Condition.broadcast cl.c;
  Mutex.unlock cl.m

let take cl =
  Mutex.lock cl.m;
  while cl.v = 0 do
    Condition.wait cl.c cl.m
  done;
  let v = cl.v in
  Mutex.unlock cl.m;
  v

type 'r peer = { dom : 'r option Domain.t; ready : cell; start : cell }

let spawn_peer (init : unit -> int -> 'r) =
  let ready = cell () and start = cell () in
  let dom =
    Domain.spawn (fun () ->
        let body = init () in
        put ready 1;
        let s = take start in
        if s < 0 then None else Some (body s))
  in
  { dom; ready; start }

let await_ready p = ignore (take p.ready : int)
let go p ~t0 = put p.start t0

let join p =
  match Domain.join p.dom with Some r -> r | None -> invalid_arg "Common.join: peer quit"

let quit p =
  put p.start (-1);
  ignore (Domain.join p.dom : _ option)

(* {1 Phase results} *)

type phase = {
  units : int;  (** units completed in the timed run *)
  elapsed_ns : int;  (** from the start to the last domain's stop *)
  attempted : int;  (** units attempted, drain included *)
  failed : int;  (** audit failures *)
  minor_words : float;  (** over every domain, timed run and drain *)
  minor_gcs : int;
  major_gcs : int;
  layer : fig list;  (** per-layer figures of a traced phase *)
}

(* A per-layer figure; [samples] is the sample count behind a timing,
   0 for a count or ratio. *)
and fig = { name : string; value : float; unit : string; samples : int }

(* Units per second over the phases, in millions: the total over the
   total, so time the host takes from the program counts as it happens. *)
let throughput_mops ps =
  let u = List.fold_left (fun a p -> a + p.units) 0 ps
  and t = List.fold_left (fun a p -> a + p.elapsed_ns) 0 ps in
  float_of_int u *. 1e3 /. float_of_int (max 1 t)

type gc0 = { w0 : float; mi0 : int; ma0 : int }

(* Global GC counters: a joined domain's minor words are folded into
   [Gc.quick_stat], so reading after every peer is joined counts them. *)
let gc_start () =
  let s = Gc.quick_stat () in
  { w0 = s.minor_words; mi0 = s.minor_collections; ma0 = s.major_collections }

let gc_delta g =
  let s = Gc.quick_stat () in
  (s.minor_words -. g.w0, s.minor_collections - g.mi0, s.major_collections - g.ma0)

(* {1 Span names} *)

let wfq_enqueue = 0
let wfq_dequeue = 1
let shard_enqueue = 2
let shard_dequeue = 3
let sched_async = 4
let sched_root = 5
let sched_spawn = 6
let sched_await = 7
let sched_child = 8

let span_names =
  [| "wfq.enqueue"; "wfq.dequeue"; "shard.enqueue"; "shard.dequeue"; "sched.async"; "sched.root";
     "sched.spawn"; "sched.await"; "sched.child" |]

let count name value = { name; value; unit = "count"; samples = 0 }
let ratio name value = { name; value; unit = "ratio"; samples = 0 }

(* [n] events over [units] completed units, per million units. *)
let per_mop name n ~units = { name; value = float_of_int n *. 1e6 /. float_of_int (max 1 units); unit = "1/Mop"; samples = 0 }

let frac num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Median self time, and optionally p99, of the spans named [id]. *)
let self_time_figs ?p99 selfs ~prefix id =
  let xs =
    List.filter_map (fun ((s : Kit.Spans.span), d) -> if s.sname = id then Some d else None) selfs
  in
  let sm = Kit.Stats.summarize (Array.of_list xs) in
  let fig name v = { name; value = float_of_int v; unit = "ns"; samples = sm.n } in
  fig (prefix ^ "_ns") sm.p50
  :: (match p99 with
     | None -> []
     | Some name -> [ fig name (p99_exn name sm) ])

(* The wait-free queue's own counters for a traced phase. *)
let wfq_figs q ~units ~deq_calls ~deq_hits ~depth_max =
  let module Q = Wfq.Wfqueue in
  let st = Q.stats q in
  [
    ratio "wfq.slow_path_rate" (Wfq.Op_stats.slow_rate st);
    ratio "wfq.dequeue_hit_ratio" (frac deq_hits deq_calls);
    per_mop "wfq.segments_allocated" (Q.allocated_segments q) ~units;
    per_mop "wfq.segments_recycled" (Q.recycled_segments q) ~units;
    per_mop "wfq.segments_reclaimed" (Q.reclaimed_segments q) ~units;
    per_mop "wfq.cleanup_runs" (Q.cleanup_runs q) ~units;
    per_mop "wfq.segments_wasted" (Q.wasted_segments q) ~units;
    count "wfq.depth_max" (float_of_int depth_max);
  ]
