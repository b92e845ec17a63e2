(* Monotonic nanoseconds as an immediate int: the external returns an
   unboxed int64, so reading the clock in a hot loop allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
