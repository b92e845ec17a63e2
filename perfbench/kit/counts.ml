(* Ratios over a wait-free queue's per-handle counters ([Obs.Counters],
   which [Wfq.Wfqueue.stats] and [Sched.Scheduler.injector_snapshot]
   return).  The queue counts every EMPTY dequeue as a fast or a slow
   dequeue as well, so [total_dequeues] is the number of dequeue
   attempts and the useful ones are the attempts less the empties. *)

let dequeue_hit_ratio (c : Obs.Counters.t) =
  let attempts = Obs.Counters.total_dequeues c in
  if attempts = 0 then 0. else float_of_int (max 0 (attempts - c.empty_dequeues)) /. float_of_int attempts
