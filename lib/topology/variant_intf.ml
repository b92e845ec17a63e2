(** The queue signature of the stack, declared once.

    {!OPS} is the per-handle surface every queue in the stack
    provides: each [Wfqueue_algo.Make] instantiation ([Wfq.Wfqueue],
    [Wfqueue_obs], [Wfqueue_inject], [Wfqueue_llsc], the simulated
    queue), the specialized SPSC/MPSC/SPMC variants, the adaptive
    wrapper and the [Shard.Router] itself.  The bench factories and the
    cross-variant tests drive queues through it.

    {!S} adds the uniform constructor and the admission-checked
    enqueues.  It is what the router composes ([Shard.QUEUE] is this
    signature) and what the adaptive queue takes as "the general queue
    to degrade to"; the WF instantiations and the adaptive wrapper
    provide it.  The specialized variants do not: they have no
    bounded mode, and the adaptive wrapper admits on their behalf.

    [dequeue_or] and [deq_batch_into] are the allocation-free entry
    points (physically-distinct [default] contract; see
    [Wfqueue.dequeue_or]). *)

module type OPS = sig
  type 'a t
  type 'a handle

  val register : 'a t -> 'a handle
  val retire : 'a t -> 'a handle -> unit
  val enqueue : 'a t -> 'a handle -> 'a -> unit
  val dequeue : 'a t -> 'a handle -> 'a option
  val dequeue_or : 'a t -> 'a handle -> 'a -> 'a
  val enq_batch : 'a t -> 'a handle -> 'a array -> unit

  val deq_batch_into : 'a t -> 'a handle -> 'a array -> default:'a -> int
  (** The one batch dequeue: up to [Array.length out] values land bare
      in [out.(0) .. out.(n-1)] in FIFO order ({e compacted}: no EMPTY
      holes), [out.(n) ..] is filled with [default], and the call
      returns [n].  A zero-length [out] returns [0] and consumes no
      ticket.  How many tickets a short answer costs is the
      implementation's: the WF queue reserves the whole width with one
      FAA, the specialized variants stop at the first EMPTY, and the
      router probes a shard that looks empty with one [dequeue_or].
      For a single queue the count is the authority, so [default]
      needs no distinguishability property; through the router's
      probe it must be physically distinct from every stored value,
      as for [dequeue_or]. *)

  val approx_length : 'a t -> int
  val snapshot : 'a t -> Obs.Snapshot.t
  val reset_stats : 'a t -> unit
end

module type S = sig
  include OPS

  val create :
    ?patience:int ->
    ?segment_shift:int ->
    ?max_garbage:int ->
    ?reclamation:bool ->
    ?segment_cap:int ->
    unit ->
    'a t
  (** [segment_cap] selects the queue's own bounded-memory mode where
      supported (see [Wfqueue.create]); implementations without one
      may ignore it or refuse it, but must accept the argument. *)

  val try_enqueue : 'a t -> 'a handle -> 'a -> bool
  (** Admission-checked enqueue: [false] means the queue refused the
      value right now (bounded-memory admission); an unbounded queue
      always admits.  A [false] must have no protocol footprint. *)

  val try_enq_batch : 'a t -> 'a handle -> 'a array -> bool
  (** All-or-nothing admission for a whole batch. *)

  val probe_enabled : bool
  val injector_enabled : bool
end
