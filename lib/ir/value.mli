(** Dynamic scalar values, shared by every evaluator in the project so
    differential tests compare exactly. *)

type t =
  | Int of int
  | Float of float

val to_int : t -> int
val to_float : t -> float

(** Zero of the given type ([Int 0] or [Float 0.0]). *)
val zero : Src_type.t -> t

(** Re-normalize to the representable range/precision of the type. *)
val normalize : Src_type.t -> t -> t

(** C-style conversion: float->int truncates toward zero, int->float rounds
    to the target precision.  [from] is informational. *)
val convert : from:Src_type.t -> into:Src_type.t -> t -> t

(** Apply a binary operator at the given type.  Comparisons yield
    [Int 0]/[Int 1]; integer division truncates toward zero.
    @raise Division_by_zero on integer division by zero. *)
val binop : Src_type.t -> Op.binop -> t -> t -> t

val unop : Src_type.t -> Op.unop -> t -> t

(** The mask [binop] applies to a shift amount at the given integer type:
    bit width minus one. *)
val shift_mask : Src_type.t -> int

(** C truthiness. *)
val is_true : t -> bool

(** Structural equality; NaNs compare equal to each other. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
