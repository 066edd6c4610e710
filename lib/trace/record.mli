(** Dynamic execution traces for the timing model.

    The timing simulator is trace-driven (like Accel-Sim): the functional
    emulator resolves control flow and memory addresses per warp, and the
    timing model replays each warp's instruction stream. One op is one
    dynamic warp-level instruction, read back by its index in the warp's
    trace.

    {2 Layout}

    A warp's trace is two flat int arrays, so a paper-scale trace is a
    few hundred blocks instead of millions of boxed records:

    - the op stream, three ints per op: the static instruction index and
      the occurrence number packed into one int, the SIMT active mask,
      and the offset of the op's access vector in the side array;
    - the address side array, one coded vector per memory op. Every
      non-memory op (and every memory op with no access) shares the
      empty vector at offset 0.

    {2 Coding rule}

    The paper's observation holds for addresses as much as for values:
    most warps' access vectors are affine in the lane position.
    A vector [a] of length [len] with [a.(k) = a.(0) + k * (a.(1) -
    a.(0))] for every [k] (every vector of length 0, 1 or 2, and every
    uniform one) is stored as [(len, base, stride)]: three ints whatever
    the warp size. Any other vector is stored raw, [len] words after its
    length. The rule is decided per vector when the trace is built, and
    decoding gives back the exact array the emulator produced. The
    length is stored, not derived from the active mask: a lane may touch
    several addresses or none.

    {2 Why addresses are not pre-coalesced}

    The side array keeps word addresses, not the cache lines they fall
    in. Line size ([Config.l1_line]) and shared-memory bank count
    ([Config.smem_banks]) are machine knobs, and bank conflicts need the
    words themselves; baking lines in would make the trace depend on the
    machine that replays it, and the cache key on a knob. The issue
    stage decodes a vector into its scratch buffer and coalesces there. *)

type warp = private { n : int; ops : int array; side : int array }
(** One warp's compact trace: [n] ops in the op stream [ops] (op [i] at
    [ops.(3i)] = [idx lor (occ lsl idx_bits)], [ops.(3i+1)] = active
    mask, [ops.(3i+2)] = offset of its vector in [side]). Read it through
    the accessors below; the fields are visible only so that the timing
    core's per-cycle paths can restate {!length}, {!idx} and {!active}
    inline (modules are compiled without cross-module inlining in dune's
    default profile). Only {!Builder} makes one. *)

type t = {
  launch : Darsie_isa.Kernel.launch;
  warp_size : int;
  tbs : warp array array;  (** [tb].[warp] *)
  emu_stats : Darsie_emu.Interp.stats;
}

val generate :
  ?warp_size:int -> Darsie_emu.Memory.t -> Darsie_isa.Kernel.launch -> t
(** Functionally execute the launch (mutating [mem]) and collect per-warp
    traces. *)

val total_ops : t -> int

val num_tbs : t -> int

val warps_per_tb : t -> int

(** {2 Reading a warp's trace}

    Op [i] of a warp is valid for [0 <= i < length w]. *)

val idx_bits : int
(** Width of the [idx] field of a packed op word. *)

val length : warp -> int

val idx : warp -> int -> int
(** Static instruction index in the kernel. *)

val occ : warp -> int -> int
(** Occurrence number of this instruction within the warp. *)

val active : warp -> int -> int
(** SIMT active mask at issue. *)

val access_count : warp -> int -> int
(** Number of byte addresses the op touched (0 for non-memory ops). *)

val decode_accesses : warp -> int -> int array -> int
(** [decode_accesses w i buf] writes op [i]'s byte addresses, in lane
    order, to [buf.(0 .. n-1)] and returns [n = access_count w i].
    [buf] must hold at least [n] ints; nothing is allocated. *)

val affine : warp -> int -> bool
(** Whether op [i]'s access vector is stored affine-coded (true for the
    empty vector). *)

val empty_warp : warp
(** A warp with no ops. *)

(** Appends ops to one warp's trace. {!generate} builds every warp with
    it; hand-made traces in tests and tools use it too. *)
module Builder : sig
  type t

  val create : unit -> t

  val add : t -> idx:int -> occ:int -> active:int -> int array -> int -> unit
  (** [add b ~idx ~occ ~active buf len] appends one op with the access
      vector [buf.(0 .. len-1)] ([len = 0] for non-memory ops), coded by
      the rule above. [buf] is only read during the call, so it can be a
      reused scratch buffer; nothing is allocated beyond the builder's
      own amortised growth. Raises [Invalid_argument] when [idx] is
      outside [0, 2^20) or [occ] is negative or too large to pack beside
      it; nothing is ever truncated. *)

  val finish : t -> warp
  (** The trace built so far, in exact-size arrays. The builder is left
      empty, with its capacity kept for the next warp. *)
end
