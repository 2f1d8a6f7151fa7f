(** The JSON scalar writers every exporter shares. *)

(** The body of a JSON string literal, without its quotes: double quote,
    backslash, newline and tab escaped by name, other control characters
    as [\u00XX], every other byte verbatim. *)
val escape : string -> string

(** A JSON number: an integral value below 1e15 with one decimal ([3.0]),
    anything else with 17 significant digits, so it round-trips; NaN and
    the infinities, which JSON cannot spell, as [null]. *)
val float : float -> string
