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

  let grow a need =
    if need <= Array.length a then a
    else begin
      let bigger = Array.make (max need (max 16 (2 * Array.length a))) 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    end

  let push_side b x =
    b.side <- grow b.side (b.n_side + 1);
    b.side.(b.n_side) <- x;
    b.n_side <- b.n_side + 1

  (* Whether every lane of [a] lies on [a.(0) + k * stride]. *)
  let fits a stride =
    let ok = ref true and k = ref 2 in
    while !ok && !k < Array.length a do
      ok := a.(!k) = a.(0) + (!k * stride);
      incr k
    done;
    !ok

  let add b ~idx ~occ ~active accesses =
    if idx < 0 || idx > idx_mask then
      invalid_arg (Printf.sprintf "Record.Builder.add: idx %d out of range" idx);
    if occ < 0 || occ > max_occ then
      invalid_arg (Printf.sprintf "Record.Builder.add: occ %d out of range" occ);
    let len = Array.length accesses in
    let off =
      if len = 0 then 0
      else begin
        let off = b.n_side in
        let stride = if len < 2 then 0 else accesses.(1) - accesses.(0) in
        if fits accesses stride then begin
          push_side b (len lsl 1);
          push_side b accesses.(0);
          push_side b stride
        end
        else begin
          push_side b ((len lsl 1) lor 1);
          b.side <- grow b.side (b.n_side + len);
          Array.blit accesses 0 b.side b.n_side len;
          b.n_side <- b.n_side + len
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
    {
      n = b.n_ops;
      ops = Array.sub b.ops 0 (3 * b.n_ops);
      side = Array.sub b.side 0 b.n_side;
    }
end

let generate ?(warp_size = 32) mem (launch : Kernel.launch) =
  let ntbs = Kernel.num_blocks launch in
  let nwarps = Kernel.warps_per_block launch ~warp_size in
  let builders =
    Array.init ntbs (fun _ -> Array.init nwarps (fun _ -> Builder.create ()))
  in
  let on_exec (r : Interp.exec_record) =
    Builder.add
      builders.(r.Interp.tb).(r.Interp.warp)
      ~idx:r.Interp.inst_index ~occ:r.Interp.occ ~active:r.Interp.active
      r.Interp.accesses
  in
  let config = { Interp.warp_size; capture_operands = false } in
  let emu_stats = Interp.run ~config ~on_exec mem launch in
  let tbs = Array.map (Array.map Builder.finish) builders in
  { launch; warp_size; tbs; emu_stats }

let total_ops t =
  Array.fold_left
    (fun acc tb -> Array.fold_left (fun a w -> a + w.n) acc tb)
    0 t.tbs

let num_tbs t = Array.length t.tbs

let warps_per_tb t = Kernel.warps_per_block t.launch ~warp_size:t.warp_size
