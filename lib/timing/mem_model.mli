(** Memory-system timing: global-memory coalescing, a per-SM L1 cache, a
    shared DRAM channel and shared-memory bank-conflict accounting. *)

val shift_of : int -> int
(** [shift_of m] is log2 [m] for a power of two [m], else -1. *)

val mod_by : shift:int -> int -> int -> int
(** [mod_by ~shift:(shift_of m) m x] is [x mod m], by a mask when it
    can be. *)

type scratch
(** Caller-owned working storage for {!coalesce} and
    {!shared_conflicts}, so a memory access allocates nothing. One per
    SM; reusable across accesses. *)

val scratch : unit -> scratch

val scratch_get : scratch -> int -> int
(** [scratch_get s i] is the [i]-th result the last call left in [s]. *)

val addresses : scratch -> int -> int array
(** [addresses s n] is the scratch's access-vector buffer, grown to hold
    at least [n] addresses: the issue stage decodes a memory op's trace
    entry into it and passes it to {!coalesce} or {!shared_conflicts}.
    Results of those calls live in other buffers, so it stays intact. *)

val coalesce : scratch -> line_bytes:int -> int array -> len:int -> int
(** Number of unique cache-line base addresses touched by a warp's
    accesses (the first [len] entries of the array) — the number of
    memory transactions after coalescing. The lines are left in the
    scratch, in first-touch order, at positions [0 .. n-1]. *)

val shared_conflicts : scratch -> banks:int -> int array -> len:int -> int
(** Extra serialization cycles from shared-memory bank conflicts among
    the first [len] accesses: with word-interleaved banks, the maximum
    number of distinct words mapped to one bank, minus one. Lanes reading
    the same word broadcast for free. Overwrites the scratch. *)

(** Set-associative, write-through, no-write-allocate L1 with LRU
    replacement. *)
module L1 : sig
  type t

  val create : bytes:int -> assoc:int -> line:int -> t

  val access : t -> int -> bool
  (** [access t line_addr] — true on hit; allocates on miss. *)

  val probe : t -> int -> bool
  (** Hit test without state change. *)

  val flush : t -> unit
end

(** A single DRAM channel shared by all SMs: fixed service rate and fixed
    latency on top of queueing. *)
module Dram : sig
  type t

  val create : txn_cycles:int -> latency:int -> t

  val request : t -> now:int -> ntxns:int -> int
  (** Completion cycle for a burst of transactions issued at [now]. *)

  val busy_until : t -> int
end
