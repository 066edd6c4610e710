(** 32-bit GPU register values.

    Every vector-register lane holds a 32-bit word. We represent the word as
    a native [int] kept in canonical unsigned form (between [0] and
    [2{^32} - 1]); integer arithmetic wraps modulo 2{^32} and floating-point
    operations round-trip through IEEE-754 single precision via
    [Int32.bits_of_float], so register contents are bit-exact with real GPU
    registers. *)

type t = int
(** A 32-bit word in canonical unsigned form. *)

val truncate : int -> t
(** [truncate x] keeps the low 32 bits of [x]. All operations below return
    already-truncated values. *)

val zero : t

val to_signed : t -> int
(** Interpret as a signed 32-bit integer (sign extended into the native
    [int]). *)

val of_signed : int -> t
(** Inverse of {!to_signed}: wrap a native integer into canonical form. *)

val of_float : float -> t
(** IEEE-754 single-precision bit pattern of [f] (after rounding [f] to
    single precision). *)

val to_float : t -> float
(** Reinterpret the bit pattern as an IEEE-754 single-precision float. *)

(** {1 Integer arithmetic (wrapping, unsigned canonical results)} *)

val add : t -> t -> t

val sub : t -> t -> t

val mul : t -> t -> t
(** Low 32 bits of the product. *)

val mulhi_s : t -> t -> t
(** High 32 bits of the signed 64-bit product. *)

val div_s : t -> t -> t
(** Signed division; division by zero yields [0xFFFFFFFF] (GPU-style,
    non-trapping). *)

val div_u : t -> t -> t

val rem_s : t -> t -> t
(** Signed remainder; remainder by zero yields the dividend. *)

val rem_u : t -> t -> t

val neg : t -> t

val min_s : t -> t -> t

val max_s : t -> t -> t

val min_u : t -> t -> t

val max_u : t -> t -> t

val abs_s : t -> t

(** {1 Bitwise} *)

val logand : t -> t -> t

val logor : t -> t -> t

val logxor : t -> t -> t

val lognot : t -> t

val shl : t -> t -> t
(** Shift left by [b mod 32] (GPU semantics clamp at 32; we clamp: shifts of
    32 or more yield 0). *)

val shr_u : t -> t -> t
(** Logical shift right; shifts of 32 or more yield 0. *)

val shr_s : t -> t -> t
(** Arithmetic shift right; shifts of 32 or more yield the sign fill. *)

(** {1 Floating point (single precision)} *)

val fadd : t -> t -> t

val fsub : t -> t -> t

val fmul : t -> t -> t

val fdiv : t -> t -> t

val ffma : t -> t -> t -> t
(** [ffma a b c] computes [a *. b +. c] in single precision. *)

val fmin : t -> t -> t

val fmax : t -> t -> t

val fneg : t -> t

val fabs : t -> t

val fsqrt : t -> t

val frcp : t -> t
(** Reciprocal approximation ([1.0 /. x] rounded to single precision). *)

val fexp2 : t -> t

val flog2 : t -> t

val fsin : t -> t

val fcos : t -> t

val cvt_i2f : t -> t
(** Signed integer to single-precision float. *)

val cvt_u2f : t -> t

val cvt_f2i : t -> t
(** Single-precision float to signed integer (round toward zero, saturating
    at the int32 range, NaN maps to 0). *)

(** {1 Comparisons} *)

val cmp_s : t -> t -> int
(** Signed three-way comparison. *)

val cmp_u : t -> t -> int

val cmp_f : t -> t -> int option
(** IEEE comparison; [None] when unordered (either operand NaN). *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal rendering, e.g. [0x0000002a]. *)
