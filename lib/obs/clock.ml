(* Time source for the observability layer: nanoseconds from the
   monotonic clock (CLOCK_MONOTONIC through bechamel's non-allocating
   stub), which never steps backwards.  Only differences are meaningful;
   the origin is unspecified.  Deterministic trace mode drops wall
   fields entirely, so clock readings never affect byte-identity. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())
