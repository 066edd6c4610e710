open Darsie_isa
open Darsie_emu

(* Op [i] of a warp is [ops.(3i)] = idx lor (occ lsl idx_bits),
   [ops.(3i+1)] = the active mask and [ops.(3i+2)] = the offset of its
   access vector in [side]. A vector's header word is [len lsl 1 lor
   raw]: an affine vector is [header; base; stride], a raw one [header;
   a_0 .. a_(len-1)]. [side.(0)] = 0 is the shared empty vector every
   non-memory op points at. *)
type warp = { n : int; ops : int array; side : int array }

type t = {
  launch : Kernel.launch;
  warp_size : int;
  tbs : warp array array;
  emu_stats : Interp.stats;
}

let idx_bits = 20

let idx_mask = (1 lsl idx_bits) - 1

let max_occ = max_int lsr idx_bits

let length w = w.n

let idx w i = w.ops.(3 * i) land idx_mask

let occ w i = w.ops.(3 * i) lsr idx_bits

let active w i = w.ops.((3 * i) + 1)

let access_count w i = w.side.(w.ops.((3 * i) + 2)) lsr 1

let affine w i = w.side.(w.ops.((3 * i) + 2)) land 1 = 0

let decode_accesses w i buf =
  let o = w.ops.((3 * i) + 2) in
  let h = w.side.(o) in
  let len = h lsr 1 in
  if h land 1 = 1 then Array.blit w.side (o + 1) buf 0 len
  else if len > 0 then begin
    let base = w.side.(o + 1) and stride = w.side.(o + 2) in
    for k = 0 to len - 1 do
      buf.(k) <- base + (k * stride)
    done
  end;
  len

let empty_warp = { n = 0; ops = [||]; side = [| 0 |] }

module Builder = struct
  type t = {
    mutable ops : int array;
    mutable n_ops : int;
    mutable side : int array;
    mutable n_side : int;
  }

  let create () = { ops = [||]; n_ops = 0; side = [| 0 |]; n_side = 1 }

  (* [a] with room for at least [need] ints: itself, or a copy at least
     twice as long. *)
  let grow a need =
    if need <= Array.length a then a
    else begin
      let bigger = Array.make (max need (max 16 (2 * Array.length a))) 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    end

  (* Whether every lane of [buf.(0 .. len-1)] lies on [buf.(0) + k *
     stride]. *)
  let fits buf len stride =
    let k = ref 2 in
    while !k < len && buf.(!k) = buf.(0) + (!k * stride) do
      incr k
    done;
    !k >= len

  let add b ~idx ~occ ~active buf len =
    if idx < 0 || idx > idx_mask then
      invalid_arg (Printf.sprintf "Record.Builder.add: idx %d out of range" idx);
    if occ < 0 || occ > max_occ then
      invalid_arg (Printf.sprintf "Record.Builder.add: occ %d out of range" occ);
    let off =
      if len = 0 then 0
      else begin
        let off = b.n_side in
        let stride = if len < 2 then 0 else buf.(1) - buf.(0) in
        if fits buf len stride then begin
          b.side <- grow b.side (off + 3);
          b.side.(off) <- len lsl 1;
          b.side.(off + 1) <- buf.(0);
          b.side.(off + 2) <- stride;
          b.n_side <- off + 3
        end
        else begin
          b.side <- grow b.side (off + 1 + len);
          b.side.(off) <- (len lsl 1) lor 1;
          Array.blit buf 0 b.side (off + 1) len;
          b.n_side <- off + 1 + len
        end;
        off
      end
    in
    let o = 3 * b.n_ops in
    b.ops <- grow b.ops (o + 3);
    b.ops.(o) <- idx lor (occ lsl idx_bits);
    b.ops.(o + 1) <- active;
    b.ops.(o + 2) <- off;
    b.n_ops <- b.n_ops + 1

  let finish b =
    let w =
      {
        n = b.n_ops;
        ops = Array.sub b.ops 0 (3 * b.n_ops);
        side = Array.sub b.side 0 b.n_side;
      }
    in
    b.n_ops <- 0;
    b.n_side <- 1;
    w
end

(* Threadblocks execute one after another, so one row of builders serves
   them all: when the first op of a later threadblock arrives, the rows
   of the threadblocks before it are finished. Only the current
   threadblock's trace is ever held in growable arrays. *)
let generate ?(warp_size = 32) mem (launch : Kernel.launch) =
  let ntbs = Kernel.num_blocks launch in
  let nwarps = Kernel.warps_per_block launch ~warp_size in
  let builders = Array.init nwarps (fun _ -> Builder.create ()) in
  let tbs = Array.make ntbs [||] in
  let cur = ref 0 in
  let finish_until tb =
    while !cur < tb do
      tbs.(!cur) <- Array.map Builder.finish builders;
      incr cur
    done
  in
  let on_op ~tb ~warp ~inst ~occ ~active addrs len =
    if tb <> !cur then finish_until tb;
    Builder.add builders.(warp) ~idx:inst ~occ ~active addrs len
  in
  let config = { Interp.warp_size; capture_operands = false } in
  let emu_stats = Interp.run ~config ~on_op mem launch in
  finish_until ntbs;
  { launch; warp_size; tbs; emu_stats }

let total_ops t =
  Array.fold_left
    (fun acc tb -> Array.fold_left (fun a w -> a + w.n) acc tb)
    0 t.tbs

let num_tbs t = Array.length t.tbs

let warps_per_tb t = Kernel.warps_per_block t.launch ~warp_size:t.warp_size
