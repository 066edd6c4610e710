module Kernel = Darsie_isa.Kernel

let format_version = 2

let default_dir = "_cache"

(* Behind a magic line, the payload is the Record.t with every warp
   replaced by [Record.empty_warp] (which keeps the shape), then each
   warp in order as its own marshaled value. Marshaling piece by piece
   bounds the serialisation buffer to one warp: loading or storing an
   entry never holds a second, serialised copy of the whole trace. The
   magic carries the format version so a stale-format file from a
   future (or past) binary reads as corrupt, not as a wrong trace. *)
let magic = Printf.sprintf "DARSIE-TRACE/%d\n" format_version

type t = {
  dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
}

let create ?(dir = default_dir) () =
  { dir; hits = Atomic.make 0; misses = Atomic.make 0; stores = Atomic.make 0 }

let dir t = t.dir

let hits t = Atomic.get t.hits

let misses t = Atomic.get t.misses

let stores t = Atomic.get t.stores

let summary t =
  Printf.sprintf "trace cache: %d hit(s), %d miss(es) (%s)" (hits t) (misses t)
    t.dir

let key ?(warp_size = 32) ~name ~scale (launch : Kernel.launch) =
  let b = Buffer.create 4096 in
  let dim (d : Kernel.dim3) = Printf.sprintf "%dx%dx%d" d.x d.y d.z in
  Buffer.add_string b
    (Printf.sprintf "v%d|%s|scale=%d|warp=%d|grid=%s|block=%s|params="
       format_version name scale warp_size
       (dim launch.Kernel.grid_dim)
       (dim launch.Kernel.block_dim));
  Array.iter (fun p -> Buffer.add_string b (string_of_int p ^ ","))
    launch.Kernel.params;
  (* The disassembly pins the exact instruction stream; shared_bytes and
     the register counts are not printed per-instruction, so add them. *)
  let k = launch.Kernel.kernel in
  Buffer.add_string b
    (Printf.sprintf "|regs=%d/%d/%d|shared=%d|" k.Kernel.nregs k.Kernel.npregs
       k.Kernel.nparams k.Kernel.shared_bytes);
  Buffer.add_string b (Darsie_isa.Printer.kernel_to_string k);
  Digest.to_hex (Digest.string (Buffer.contents b))

let path t key = Filename.concat t.dir (key ^ ".trace")

(* [check] guards against a digest collision or a mis-filed entry: the
   loaded record must at least have the launch's threadblock/warp shape. *)
let lookup t ~key ~check =
  let p = path t key in
  let entry =
    Darsie_telemetry.Telemetry.span "cache.lookup" (fun () ->
        if not (Sys.file_exists p) then None
        else
          try
            let ic = open_in_bin p in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let m = really_input_string ic (String.length magic) in
                if m <> magic then None
                else
                  let (r : Record.t) = Marshal.from_channel ic in
                  let shape = r.Record.tbs in
                  (* [Array.init] fills in index order, the file's order *)
                  let tbs =
                    Array.init (Array.length shape) (fun tb ->
                        Array.init (Array.length shape.(tb)) (fun _ ->
                            (Marshal.from_channel ic : Record.warp)))
                  in
                  let r = { r with Record.tbs } in
                  if check r then Some r else None)
          with _ -> None)
  in
  (match entry with
  | Some _ ->
    Atomic.incr t.hits;
    Darsie_telemetry.Telemetry.incr "trace_cache.hits"
  | None ->
    Atomic.incr t.misses;
    Darsie_telemetry.Telemetry.incr "trace_cache.misses");
  entry

let find t ~key = lookup t ~key ~check:(fun _ -> true)

let store t ~key record =
  try
    if not (Sys.file_exists t.dir) then (
      try Sys.mkdir t.dir 0o755 with Sys_error _ -> ());
    let final = path t key in
    let tmp =
      Printf.sprintf "%s.%d.%d.tmp" final (Unix.getpid ())
        (Domain.self () :> int)
    in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc magic;
        let shape =
          Array.map
            (fun tb -> Array.make (Array.length tb) Record.empty_warp)
            record.Record.tbs
        in
        Marshal.to_channel oc { record with Record.tbs = shape } [];
        Array.iter
          (Array.iter (fun w -> Marshal.to_channel oc w []))
          record.Record.tbs);
    Sys.rename tmp final;
    Atomic.incr t.stores;
    Darsie_telemetry.Telemetry.incr "trace_cache.stores"
  with _ -> ()

let generate ?(warp_size = 32) t ~name ~scale mem launch =
  let k = key ~warp_size ~name ~scale launch in
  let shape_ok (r : Record.t) =
    r.Record.warp_size = warp_size
    && Record.num_tbs r = Kernel.num_blocks launch
    && Record.warps_per_tb r = Kernel.warps_per_block launch ~warp_size
  in
  match lookup t ~key:k ~check:shape_ok with
  | Some r -> r
  | None ->
    let r = Record.generate ~warp_size mem launch in
    store t ~key:k r;
    r
