(** The atomic primitives the queue algorithm is written against.

    The algorithm ({!Wfqueue_algo.Make}) is a functor over this
    signature so that the same algorithm text runs both on real
    hardware atomics ({!Real}, used by {!Wfqueue}) and on the
    simulated, schedule-controlled atomics of the model-checking
    harness ([Simsched.Sim_atomic]), where every primitive is a
    preemption point that a test scheduler chooses to interleave.

    Contended locations get two layout-aware constructions so the
    algorithm text can be explicit about which words are hot:

    - {!S.make_contended} allocates a standalone atomic padded to its
      own cache line(s) ({!Padding}); on the simulated atomics padding
      is a no-op, so the model-checked text is the shipped text.
    - {!S.Counters} is an array of independent integer counters laid
      out so that no two counters share a cache line — the layout the
      false-sharing microbenchmark quantifies. *)

module type COUNTERS = sig
  type t
  (** A fixed-length array of independent atomic integer counters,
      laid out so that no two counters share a cache line. *)

  val make : len:int -> init:int -> t
  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val fetch_and_add : t -> int -> int -> int
  val compare_and_set : t -> int -> int -> int -> bool
end

module type S = sig
  type 'a t

  val make : 'a -> 'a t

  val make_contended : 'a -> 'a t
  (** Like [make], but the cell is padded to its own cache line(s) so
      that writes to it cannot invalidate unrelated hot words (and
      vice versa).  Semantically identical to [make]; use for the
      queue-level indices and other contended words. *)

  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  val compare_and_set : 'a t -> 'a -> 'a -> bool
  (** Physical-equality compare-and-set, as [Stdlib.Atomic]. *)

  val fetch_and_add : int t -> int -> int
  val cpu_relax : unit -> unit

  module Counters : COUNTERS
end

(* Padded counters on hardware atomics, shared by {!Real} and
   {!Emulated_faa}: a cache-line-strided [int Atomic.t array].  Two
   layout mechanisms compose: the live slot for counter [i] is
   [i * stride], so the array's own pointer slots sit one padding unit
   apart; and each live box is [Padding.make_padded_atomic], so the
   boxes themselves span a full padding unit wherever the GC moves
   them.  The dummy boxes in between are allocated in the same minor-
   heap sweep and keep the live boxes physically separated even
   before promotion. *)
module Hardware_counters = struct
  type t = int Atomic.t array

  let stride = Padding.cache_line_words

  let make ~len ~init =
    if len < 0 then invalid_arg "Atomic_prims.Counters.make: negative length";
    Array.init (len * stride) (fun i ->
        if i mod stride = 0 then Padding.make_padded_atomic init else Atomic.make init)

  let length t = Array.length t / stride
  let get t i = Atomic.get t.(i * stride)
  let set t i v = Atomic.set t.(i * stride) v
  let fetch_and_add t i n = Atomic.fetch_and_add t.(i * stride) n
  let compare_and_set t i old nw = Atomic.compare_and_set t.(i * stride) old nw
end

(** Hardware atomics: [Stdlib.Atomic] (sequentially consistent). *)
module Real : S with type 'a t = 'a Atomic.t = struct
  type 'a t = 'a Atomic.t

  let make = Atomic.make
  let make_contended v = Padding.make_padded_atomic v
  let get = Atomic.get
  let set = Atomic.set
  let compare_and_set = Atomic.compare_and_set
  let fetch_and_add = Atomic.fetch_and_add
  let cpu_relax = Domain.cpu_relax

  module Counters = Hardware_counters
end

(** The paper's IBM Power7 configuration: the architecture has no
    native fetch-and-add, so FAA is emulated with an LL/SC (here CAS)
    retry loop — which "sacrifices the wait freedom of our queue ...
    [but] still performs well in practice" (§3.1, §5.2).  Everything
    else is hardware-atomic.  Instantiating {!Wfqueue_algo.Make} over
    this gives the queue the paper benchmarked on Power7. *)
module Emulated_faa : S with type 'a t = 'a Atomic.t = struct
  type 'a t = 'a Atomic.t

  let make = Atomic.make
  let make_contended v = Padding.make_padded_atomic v
  let get = Atomic.get
  let set = Atomic.set
  let compare_and_set = Atomic.compare_and_set

  (* The CAS retry loop backs off exponentially after the first
     failure: bare spinning makes every retry a fresh cache-line
     acquisition, so under contention the loop can livelock-crawl
     while the line ping-pongs (the Power7 analogue should degrade
     gracefully, as LL/SC with backoff does).  The backoff state is
     domain-local and reused across calls — allocating a fresh
     [Backoff.t] per contended FAA put an allocation on exactly the
     path that runs hottest under contention, and reset its
     exponential history every call.  [Backoff.reset] on entry keeps
     calls independent while the cell itself is recycled. *)
  let domain_backoff = Domain.DLS.new_key (fun () -> Backoff.create ())

  let fetch_and_add r n =
    let old = Atomic.get r in
    if Atomic.compare_and_set r old (old + n) then old
    else begin
      let b = Domain.DLS.get domain_backoff in
      Backoff.reset b;
      let rec retry () =
        Backoff.backoff b;
        let old = Atomic.get r in
        if Atomic.compare_and_set r old (old + n) then old else retry ()
      in
      retry ()
    end

  let cpu_relax = Domain.cpu_relax

  module Counters = struct
    include Hardware_counters

    (* Counter FAA goes through the same CAS-emulation as the scalar
       [fetch_and_add], so the Power7 analogue is consistent —
       including the reused domain-local backoff. *)
    let fetch_and_add t i n =
      let old = get t i in
      if compare_and_set t i old (old + n) then old
      else begin
        let b = Domain.DLS.get domain_backoff in
        Backoff.reset b;
        let rec retry () =
          Backoff.backoff b;
          let old = get t i in
          if compare_and_set t i old (old + n) then old else retry ()
        in
        retry ()
      end
  end
end

(** Tallies of atomic accesses by kind, as {!Counting} reports them. *)
type counts = { gets : int; sets : int; cas : int; faa : int }

module type COUNTING = sig
  include S

  val counts : unit -> counts
  (** The calling domain's tallies since its last {!reset} (or since
      it first touched an atomic of this instance). *)

  val reset : unit -> unit
  (** Zero the calling domain's tallies. *)
end

(** [A] with every get/set/CAS/FAA tallied per domain, counter arrays
    included; [make], [make_contended] and [cpu_relax] are not counted.
    The algorithm functors instantiated over it run their shipped text,
    so a test can pin the exact number of atomic accesses an operation
    performs — the deterministic cost model that wall-clock benchmarks
    cannot give.  The tallies live in a domain-local record (each
    domain counts its own accesses, like [Gc.minor_words]); the lookup
    makes every access slower, so this instance is for counting, never
    for timing. *)
module Counting (A : S) : COUNTING with type 'a t = 'a A.t = struct
  type tally = { mutable g : int; mutable s : int; mutable c : int; mutable f : int }

  let key = Domain.DLS.new_key (fun () -> { g = 0; s = 0; c = 0; f = 0 })
  let tally () = Domain.DLS.get key

  type 'a t = 'a A.t

  let make = A.make
  let make_contended = A.make_contended

  let get r =
    let t = tally () in
    t.g <- t.g + 1;
    A.get r

  let set r v =
    let t = tally () in
    t.s <- t.s + 1;
    A.set r v

  let compare_and_set r old nw =
    let t = tally () in
    t.c <- t.c + 1;
    A.compare_and_set r old nw

  let fetch_and_add r n =
    let t = tally () in
    t.f <- t.f + 1;
    A.fetch_and_add r n

  let cpu_relax = A.cpu_relax

  module Counters = struct
    include A.Counters

    let get c i =
      let t = tally () in
      t.g <- t.g + 1;
      A.Counters.get c i

    let set c i v =
      let t = tally () in
      t.s <- t.s + 1;
      A.Counters.set c i v

    let fetch_and_add c i n =
      let t = tally () in
      t.f <- t.f + 1;
      A.Counters.fetch_and_add c i n

    let compare_and_set c i old nw =
      let t = tally () in
      t.c <- t.c + 1;
      A.Counters.compare_and_set c i old nw
  end

  let counts () =
    let t = tally () in
    { gets = t.g; sets = t.s; cas = t.c; faa = t.f }

  let reset () =
    let t = tally () in
    t.g <- 0;
    t.s <- 0;
    t.c <- 0;
    t.f <- 0
end
