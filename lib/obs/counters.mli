(** Per-handle operation-path and protocol-event counters.

    Table 2 of the paper breaks operations down by execution path
    (fast-path vs slow-path enqueues/dequeues, and dequeues returning
    EMPTY); wCQ (Nikolaev & Ravindran, PPoPP 2022) argues that
    slow-path frequency and helping cost are exactly where wait-free
    queues silently regress.  This record carries both tiers:

    - the {b path} tier ([fast_*], [slow_*], [empty_dequeues]) is
      recorded unconditionally by every queue build — one plain-int
      increment per completed operation, the PR-2 hot path;
    - the {b event} tier ([*_cas_failures], [cells_skipped],
      [help_*]) is recorded only by builds instantiated with
      {!Probe.Enabled}; a {!Probe.Disabled} build never touches these
      fields.

    Each handle owns one [t]; only the owning thread writes it, so the
    fields are plain mutable ints with no synchronization cost on the
    operation paths.  Allocate with {!create_padded} wherever handles
    are laid out next to each other, so two handles' counters never
    share a cache line.  Aggregation across handles happens after the
    threads quiesce (or racily, for monitoring — the fields are
    word-sized, so a torn read is impossible; a slightly stale one is
    fine). *)

type t = {
  mutable fast_enqueues : int;
  mutable slow_enqueues : int;
  mutable fast_dequeues : int;
  mutable slow_dequeues : int;
  mutable empty_dequeues : int;
  mutable enq_cas_failures : int;
      (** Fast-path enqueue attempts whose deposit CAS lost the cell
          (each failed attempt, not each operation). *)
  mutable deq_cas_failures : int;
      (** Fast-path dequeue attempts that consumed a cell without
          claiming a value (the cell was ⊤ or the claim CAS lost). *)
  mutable cells_skipped : int;
      (** Cells consumed by a slow-path enqueue's acquire loop and
          abandoned without completing the transfer there. *)
  mutable help_enqueues : int;
      (** Peer enqueue requests this handle claimed for a cell
          (help-enqueue completions, Listing 3's helping arm). *)
  mutable help_dequeues : int;
      (** Peer dequeue requests this handle did pending helping work
          for (help_deq entered with work to do, Listing 4). *)
  mutable enq_batches : int;
      (** [enq_batch] calls that reserved at least one cell (one FAA
          each, regardless of batch size). *)
  mutable deq_batches : int;  (** Likewise for [deq_batch_into]. *)
  mutable enq_batch_cells : int;
      (** Cells reserved across all [enq_batch] calls;
          [enq_batch_cells / enq_batches] is the realized amortization
          factor (cells per tail FAA). *)
  mutable deq_batch_cells : int;
  mutable enq_batch_fallbacks : int;
      (** Batch cells whose fast-path deposit failed and fell back to
          the per-cell slow path (partial-batch fallbacks). *)
  mutable deq_batch_fallbacks : int;
}

val create : unit -> t
val create_padded : unit -> t
(** [create] re-allocated onto its own cache line(s)
    ({!Primitives.Padding.copy_as_padded}); use wherever the counter
    block lives next to other hot state. *)

val reset : t -> unit
val add : into:t -> t -> unit

val absorb : into:t -> t -> unit
(** [add] followed by [reset] of the source: moves the counts.  Used
    when a departed domain's handle slot is recycled, so its
    operations stay visible in queue-level aggregates exactly once. *)

val total_enqueues : t -> int
val total_dequeues : t -> int
val total_ops : t -> int

val slow_enqueue_pct : t -> float
(** Percentage of enqueues completed on the slow path, as in Table 2.
    0 when no enqueues ran. *)

val slow_dequeue_pct : t -> float
val empty_dequeue_pct : t -> float

val slow_enqueue_rate : t -> float
(** Fraction in [0,1] (0 when no enqueues ran) — the §6 claim is that
    this stays below 1e-6 at patience 10. *)

val slow_dequeue_rate : t -> float

val slow_rate : t -> float
(** Slow-path operations over all operations, both directions. *)

val per_million : float -> float
(** Scale a rate to operations-per-million for display. *)

val pp : Format.formatter -> t -> unit
(** Path tier one-liner (the historic [Op_stats.pp] format). *)

val avg_enq_batch : t -> float
(** Mean cells reserved per enqueue-side tail FAA (0 when no batches
    ran) — the amortization factor the batch path exists to buy. *)

val avg_deq_batch : t -> float

val pp_events : Format.formatter -> t -> unit
(** Event tier one-liner (all zeros on a [Probe.Disabled] build). *)
