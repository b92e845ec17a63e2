(** The fault-storm engine: one definition of "values conserved under
    faults" for every storm driver and storm test.

    A storm arms a seeded {!Inject.Plan} on a set of victims, runs a
    workload across domains (or simsched fibers) while the victims
    park or die at the plan's protocol points, then audits what came
    out.  The paper's wait-freedom claim is the audit: survivors
    finish, and no value is lost or duplicated beyond what the
    crashed victims can account for.  This module owns the four jobs
    every storm shares:

    - {b arming} ({!armed}): reset the fault counters, set how a park
      waits, install a gated controller, and undo both on every exit
      path;
    - {b running} ({!run}): spawn and join the storm domains, recording
      each one's outcome and progress {!ledger};
    - {b auditing}: combinators that return {!violation} lists and
      never exit or raise, so a CLI prints them and a test fails on
      them;
    - {b reporting} ({!report}): the outcome table, the fault counters
      and the verdict line, returning the exit status.

    Value convention of {!run}-based storms: domain [d]'s [i]-th
    enqueue (0-based) carries the value [d * ops + i]. *)

(** {1 Arming} *)

(** Who takes faults. *)
type gate =
  | Victims of int  (** storm domains [0, k) of {!run} *)
  | All_but_driver  (** every domain except the one that armed the plan *)
  | Only of (unit -> bool)
      (** the caller's predicate, evaluated at each injection hit
          (e.g. a simsched fiber id) *)

val sleep_park : float -> int -> unit
(** [sleep_park unit n] sleeps [n * unit] seconds: a wall-clock park. *)

val armed : ?park:(int -> unit) -> ?plan:Inject.Plan.t -> gate -> (unit -> 'a) -> 'a
(** [armed ?park ?plan gate f] resets the fault counters, sets the
    park function (default [sleep_park 1e-6]: one unit is 1us), and,
    when [plan] is given, installs a controller that consults it for
    hits the gate admits.  Runs [f]; on every exit path the controller
    is removed and the park restored to the default busy wait. *)

(** {1 Running} *)

type outcome = Completed | Killed of Inject.point | Crashed of exn

type ledger = {
  mutable enqueued : int;  (** completed enqueues: values [d*ops, d*ops + enqueued) *)
  mutable got : int list;  (** values this domain dequeued *)
}

type domain = { index : int; victim : bool; outcome : outcome; ledger : ledger }

val run :
  ?park:(int -> unit) ->
  ?plan:Inject.Plan.t ->
  victims:int ->
  int ->
  (int -> ledger -> unit) ->
  domain array
(** [run ?park ?plan ~victims n body] arms [plan] on storm domains
    [0, victims), spawns [n] domains running [body d ledger], joins
    them and disarms.  A body that returns is [Completed]; one that
    raises [Inject.Killed p] is [Killed p]; any other exception is
    [Crashed]. *)

(** {1 Auditing} *)

type violation =
  | Duplicate of int  (** a value delivered more than once *)
  | Alien of int  (** a value no producer (possibly) enqueued *)
  | Missing of { missing : int; allowance : int }
      (** more definite values lost than the faults can strand *)
  | Cap_exceeded of { what : string; value : int; cap : int }
  | Stranded of int  (** promise [i] still pending after shutdown *)
  | Wrong_sum of { index : int; got : int; want : int }
  | Errored of int  (** promise [i] resolved with an error no fault explains *)
  | Domain_failed of { index : int; exn : string }
      (** a domain ended by an exception that is not an injected kill *)

val violation_to_string : violation -> string

val conserved :
  ?optional:int list -> allowance:int -> definite:int list -> int list -> violation list
(** [conserved ?optional ~allowance ~definite seen] audits the values
    [seen] (everything dequeued or drained) against the values
    [definite]ly enqueued and the [optional] ones a crashed producer
    may or may not have landed: no value twice, no value outside
    [definite] ∪ [optional], and at most [allowance] definite values
    missing. *)

val cap_within : what:string -> cap:int -> int -> violation list
(** [cap_within ~what ~cap n] rejects [n > cap]. *)

val promises :
  want:(int -> int) -> errors_ok:bool -> (int, exn) result option array -> violation list
(** Audit settled promises: none pending, every [Ok] equal to
    [want i], and no [Error] unless [errors_ok]. *)

val audit :
  ops:int -> in_flight:int -> allowance:int -> drained:int list -> domain array -> violation list
(** The audit of a {!run}: no domain failed, and the values are
    {!conserved} — definite = each domain's completed enqueues,
    optional = the next [in_flight] values of a killed domain, seen =
    every ledger's [got] plus [drained]. *)

(** {1 Reporting} *)

val report :
  ?ppf:Format.formatter ->
  ?role:(int -> string) ->
  ?domains:domain array ->
  ?detail:(Format.formatter -> unit) ->
  seed:int ->
  faults:bool ->
  ok:string ->
  violation list ->
  int
(** Print the outcome table of [domains] (one row per domain: [role],
    victim mark, outcome, enqueued/dequeued counts), then [detail],
    then the fault counters when [faults], then the verdict: ["OK: "
    ^ ok] and 0, or the violations (the first 20 in full) followed by
    ["FAIL: ... replay with --seed <seed>"] and 1.  Flushes [stdout] first, so earlier
    [Printf] output stays in order. *)
