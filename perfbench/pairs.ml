(* [pairs]: the paper's enqueue-dequeue pairs benchmark.  Two domains
   each run [enqueue] then [dequeue_or] on one default queue (WF-10)
   with no think time.  The queue stays at most two deep, so nearly all
   the time goes to the FAA/CAS fast path on the contended head and
   tail lines.  A unit is one queue operation; latency is one sampled
   enqueue+dequeue pair.

   Values encode (sequence, domain), so every consumer can check that
   each producer's values reach it in increasing order.  An EMPTY
   answer is a failure too: a domain dequeues only after its own
   enqueue, so a linearizable queue is never empty there. *)

open Common
module Kit = Perfbench_kit
module Q = Wfq.Wfqueue

let domains = 2
let sentinel = -1

(* mean gap between sampled pairs; a traced phase records a span pair
   for every sample, so it samples more sparsely *)
let sample_mean ~traced = if traced then 1024 else 256
let check_every = 64

type side = {
  id : int;
  base : int;
  sent : Kit.Audit.Fp.t;
  got : Kit.Audit.Fp.t;
  order : Kit.Audit.Order.t;
  lat : Kit.Samples.t;
  sampler : Kit.Sampler.t;
  mutable pairs : int;
  mutable empties : int;
  mutable drained : int;
  mutable depth_max : int;
}

let side ~seed ~lat ~traced id =
  let lat = if lat then lat_buf id else Kit.Samples.create 2 in
  {
    id;
    base = Kit.Audit.mix (seed + id) land 0xFFFF_FFFF;
    sent = Kit.Audit.Fp.create ();
    got = Kit.Audit.Fp.create ();
    order = Kit.Audit.Order.create ~producers:domains;
    lat;
    sampler = Kit.Sampler.create ~seed:((seed * 31) + id) ~mean:(sample_mean ~traced);
    pairs = 0;
    empties = 0;
    drained = 0;
    depth_max = 0;
  }

let consume s r =
  if r == sentinel then s.empties <- s.empties + 1
  else begin
    Kit.Audit.Fp.add s.got r;
    Kit.Audit.Order.observe s.order ~producer:(r land 1) ~seq:(r lsr 1)
  end

(* Runs pairs until [seconds] after [t0]; returns the stop time. *)
let run_side q h s ~spans ~t0 ~seconds =
  let stop = deadline ~t0 ~seconds in
  let t = ref t0 in
  while !t < stop do
    for _ = 1 to check_every do
      let i = s.pairs in
      let v = ((s.base + i) lsl 1) lor s.id in
      s.pairs <- i + 1;
      Kit.Audit.Fp.add s.sent v;
      if Kit.Sampler.hit s.sampler i then begin
        let a = now () in
        Q.enqueue q h v;
        let b = now () in
        let r = Q.dequeue_or q h sentinel in
        let c = now () in
        Kit.Samples.add s.lat (c - a);
        (match spans with
        | Some sp ->
          Kit.Spans.record sp ~name:wfq_enqueue ~parent:Kit.Spans.none ~req:v ~start:a ~stop:b;
          Kit.Spans.record sp ~name:wfq_dequeue ~parent:Kit.Spans.none ~req:v ~start:b ~stop:c;
          s.depth_max <- max s.depth_max (Q.approx_length q)
        | None -> ());
        consume s r
      end
      else begin
        Q.enqueue q h v;
        consume s (Q.dequeue_or q h sentinel)
      end
    done;
    t := now ()
  done;
  !t

type stack = { q : int Q.t; h : int Q.handle; sides : side array; peer : (int Q.handle * int) peer }

(* Set-up, timed by [setup_once]: the queue, the peer domain and both
   handles.  The benchmark's own buffers ([sides]) are made before. *)
let build ~sides ~seconds ~spans =
  let q = Q.create () in
  let peer =
    spawn_peer (fun () ->
        let h = Q.register q in
        fun t0 -> (h, run_side q h sides.(1) ~spans ~t0 ~seconds))
  in
  let h = Q.register q in
  await_ready peer;
  { q; h; sides; peer }

let setup_once ~seed =
  let sides = Array.init domains (side ~seed ~lat:false ~traced:false) in
  let t = now () in
  let st = build ~sides ~seconds:0. ~spans:None in
  let dt = now () - t in
  quit st.peer;
  float_of_int dt /. 1e9

let phase ~seed ~seconds ~spans =
  let st = build ~sides:(Array.init domains (side ~seed ~lat:true ~traced:(spans <> None))) ~seconds ~spans in
  let g = gc_start () in
  let t0 = now () in
  go st.peer ~t0;
  let stop0 = run_side st.q st.h st.sides.(0) ~spans ~t0 ~seconds in
  let h1, stop1 = join st.peer in
  (* drain: nothing should be left, but whatever is gets audited *)
  let s0 = st.sides.(0) in
  let rec drain () =
    let r = Q.dequeue_or st.q st.h sentinel in
    if r != sentinel then begin
      s0.drained <- s0.drained + 1;
      consume s0 r;
      drain ()
    end
  in
  drain ();
  Q.retire st.q h1;
  Q.retire st.q st.h;
  let words, mi, ma = gc_delta g in
  let sides = Array.to_list st.sides in
  let sum f = List.fold_left (fun a s -> a + f s) 0 sides in
  let sent = Kit.Audit.Fp.merge (List.map (fun s -> s.sent) sides)
  and got = Kit.Audit.Fp.merge (List.map (fun s -> s.got) sides) in
  let failed =
    Kit.Audit.Fp.failures ~sent ~received:got
    + sum (fun s -> s.order.violations)
    + sum (fun s -> s.empties)
  in
  let units = 2 * sum (fun s -> s.pairs) in
  let layer =
    match spans with
    | None -> []
    | Some sp ->
      let selfs = Kit.Spans.self_times (Kit.Spans.spans sp) in
      self_time_figs selfs ~prefix:"wfq.enqueue" ~p99:"wfq.enqueue_p99_ns" wfq_enqueue
      @ self_time_figs selfs ~prefix:"wfq.dequeue" ~p99:"wfq.dequeue_p99_ns" wfq_dequeue
      @ wfq_figs st.q ~units
          ~deq_calls:(sum (fun s -> s.pairs))
          ~deq_hits:(sum (fun s -> s.pairs - s.empties))
          ~depth_max:(List.fold_left (fun a s -> max a s.depth_max) 0 sides)
  in
  {
    units;
    elapsed_ns = max stop0 stop1 - t0;
    attempted = units + s0.drained;
    failed;
    minor_words = words;
    minor_gcs = mi;
    major_gcs = ma;
    layer;
  }
