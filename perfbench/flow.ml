(* One producer domain and one consumer domain moving a stream of
   values through a queue: the shape of [stream] and [sharded].

   The generator holds the producer to a credit window of [window]
   values ahead of the consumer.  The producer is the faster side, so
   the queue sits near [window] deep: the consumer reads cells written
   [window] cells earlier, the working set spans many segments (more
   than a core's L2), and every segment goes through cleanup and
   recycling.  Without the window the backlog, and memory, grow without
   bound.  A unit is one delivered value; latency is the producer's
   enqueue call time, the publish bound a producer sees.

   Values are [base + i] for the i-th value sent, so the consumer can
   audit the stream: exactly-once delivery always (fingerprint and
   count), strict FIFO order when the queue promises it. *)

open Common
module Kit = Perfbench_kit

let sentinel = -1
let window = 1 lsl 16

(* mean gaps between sampled enqueues (latency; spans too when traced)
   and between sampled dequeues (spans) *)
let sample_mean ~traced = if traced then 2048 else 256
let deq_span_mean = 2048
let check_every = 64

module type QUEUE = sig
  type t
  type h

  val create : unit -> t
  val register : t -> h
  val retire : t -> h -> unit
  val enqueue : t -> h -> int -> unit
  val dequeue_or : t -> h -> int -> int
  val approx_length : t -> int

  val ordered : bool
  (** strict FIFO is part of the contract *)

  val enq_span : int
  val deq_span : int
  val prefix : string

  val figs : t -> units:int -> deq_calls:int -> deq_hits:int -> depth_max:int -> fig list
  (** the layer's own counters after a traced phase *)
end

module Make (Q : QUEUE) = struct
  type producer = { mutable sent : int; plat : Kit.Samples.t; psample : Kit.Sampler.t }

  type consumer = {
    got : Kit.Audit.Fp.t;
    fifo : Kit.Audit.Fifo.t;
    csample : Kit.Sampler.t;
    mutable calls : int;
    mutable depth_max : int;
  }

  let produce q h p ~base ~consumed ~spans ~t0 ~seconds =
    let deadline = deadline ~t0 ~seconds in
    let limit = ref window in
    let rec loop i =
      if i land (check_every - 1) = 0 && now () >= deadline then i
      else if i >= !limit then begin
        limit := Atomic.get consumed + window;
        if i < !limit then loop i
        else begin
          Domain.cpu_relax ();
          if now () >= deadline then i else loop i
        end
      end
      else begin
        let v = base + i in
        if Kit.Sampler.hit p.psample i then begin
          let a = now () in
          Q.enqueue q h v;
          let b = now () in
          Kit.Samples.add p.plat (b - a);
          match spans with
          | Some sp -> Kit.Spans.record sp ~name:Q.enq_span ~parent:Kit.Spans.none ~req:v ~start:a ~stop:b
          | None -> ()
        end
        else Q.enqueue q h v;
        loop (i + 1)
      end
    in
    p.sent <- loop 0

  let take c v =
    Kit.Audit.Fp.add c.got v;
    if Q.ordered then Kit.Audit.Fifo.observe c.fifo v

  (* Consumes until [seconds] after [t0]; returns the values delivered
     and the stop time. *)
  let consume q h c ~consumed ~spans ~t0 ~seconds =
    let stop = deadline ~t0 ~seconds in
    let delivered = ref 0 in
    let t = ref t0 in
    while !t < stop do
      for _ = 1 to check_every do
        let k = c.calls in
        c.calls <- k + 1;
        let r =
          match spans with
          | Some sp when Kit.Sampler.hit c.csample k ->
            let a = now () in
            let r = Q.dequeue_or q h sentinel in
            Kit.Spans.record sp ~name:Q.deq_span ~parent:Kit.Spans.none ~req:r ~start:a ~stop:(now ());
            c.depth_max <- max c.depth_max (Q.approx_length q);
            r
          | _ -> Q.dequeue_or q h sentinel
        in
        if r == sentinel then Domain.cpu_relax ()
        else begin
          take c r;
          incr delivered;
          if !delivered land 255 = 0 then Atomic.set consumed !delivered
        end
      done;
      t := now ()
    done;
    (!delivered, !t)

  type stack = {
    q : Q.t;
    h : Q.h;
    base : int;
    consumed : int Atomic.t;
    p : producer;
    c : consumer;
    peer : Q.h peer;
  }

  let sides ~seed ~lat ~traced =
    let base = Kit.Audit.mix seed land 0xFFFF_FFFF in
    ( base,
      {
        sent = 0;
        plat = (if lat then lat_buf 0 else Kit.Samples.create 2);
        psample = Kit.Sampler.create ~seed ~mean:(sample_mean ~traced);
      },
      {
        got = Kit.Audit.Fp.create ();
        fifo = Kit.Audit.Fifo.create ~first:base;
        csample = Kit.Sampler.create ~seed:(seed + 1) ~mean:deq_span_mean;
        calls = 0;
        depth_max = 0;
      } )

  (* Set-up, timed by [setup_once]: the queue, the producer domain and
     both handles.  The benchmark's own buffers are made before. *)
  let build (base, p, c) ~seconds ~spans =
    let q = Q.create () in
    let consumed = Atomic.make 0 in
    let peer =
      spawn_peer (fun () ->
          let h = Q.register q in
          fun t0 ->
            produce q h p ~base ~consumed ~spans ~t0 ~seconds;
            h)
    in
    let h = Q.register q in
    await_ready peer;
    { q; h; base; consumed; p; c; peer }

  let setup_once ~seed =
    let sides = sides ~seed ~lat:false ~traced:false in
    let t = now () in
    let st = build sides ~seconds:0. ~spans:None in
    let dt = now () - t in
    quit st.peer;
    float_of_int dt /. 1e9

  let phase ~seed ~seconds ~spans =
    let st = build (sides ~seed ~lat:true ~traced:(spans <> None)) ~seconds ~spans in
    let g = gc_start () in
    let t0 = now () in
    go st.peer ~t0;
    let delivered, stop = consume st.q st.h st.c ~consumed:st.consumed ~spans ~t0 ~seconds in
    let hp = join st.peer in
    (* the producer has stopped: drain what it left and audit it too *)
    let rec drain n =
      let r = Q.dequeue_or st.q st.h sentinel in
      if r == sentinel then n
      else begin
        take st.c r;
        drain (n + 1)
      end
    in
    let drained = drain 0 in
    Q.retire st.q hp;
    Q.retire st.q st.h;
    let words, mi, ma = gc_delta g in
    let sent = Kit.Audit.Fp.create () in
    for i = 0 to st.p.sent - 1 do
      Kit.Audit.Fp.add sent (st.base + i)
    done;
    let failed =
      Kit.Audit.Fp.failures ~sent ~received:st.c.got
      + if Q.ordered then st.c.fifo.violations else 0
    in
    let layer =
      match spans with
      | None -> []
      | Some sp ->
        let selfs = Kit.Spans.self_times (Kit.Spans.spans sp) in
        self_time_figs selfs ~prefix:(Q.prefix ^ ".enqueue") ~p99:(Q.prefix ^ ".enqueue_p99_ns") Q.enq_span
        @ self_time_figs selfs ~prefix:(Q.prefix ^ ".dequeue") ~p99:(Q.prefix ^ ".dequeue_p99_ns") Q.deq_span
        @ Q.figs st.q ~units:(delivered + drained) ~deq_calls:st.c.calls ~deq_hits:delivered
            ~depth_max:st.c.depth_max
    in
    {
      units = delivered;
      elapsed_ns = stop - t0;
      attempted = st.p.sent;
      failed;
      minor_words = words;
      minor_gcs = mi;
      major_gcs = ma;
      layer;
    }
end

module Stream = Make (struct
  module W = Wfq.Wfqueue

  type t = int W.t
  type h = int W.handle

  let create () = W.create ()
  let register = W.register
  let retire = W.retire
  let enqueue = W.enqueue
  let dequeue_or = W.dequeue_or
  let approx_length = W.approx_length
  let ordered = true
  let enq_span = wfq_enqueue
  let deq_span = wfq_dequeue
  let prefix = "wfq"
  let figs = wfq_figs
end)

module Sharded = Make (struct
  module R = Shard.Adaptive

  type t = int R.t
  type h = int R.handle

  let shards = 2
  let create () = R.create ~shards ()
  let register = R.register
  let retire = R.retire
  let enqueue = R.enqueue
  let dequeue_or = R.dequeue_or
  let approx_length = R.approx_length
  let ordered = false
  let enq_span = shard_enqueue
  let deq_span = shard_dequeue
  let prefix = "shard"

  let figs q ~units ~deq_calls ~deq_hits ~depth_max:_ =
    let s = (R.snapshot q).segments in
    [
      ratio "shard.dequeue_hit_ratio" (frac deq_hits deq_calls);
      per_mop "shard.steals" (R.steals q) ~units;
      per_mop "shard.rebalances" (R.rebalances q) ~units;
      per_mop "topology.segments_allocated" s.allocated ~units;
      per_mop "topology.segments_recycled" s.recycled ~units;
    ]
end)
