(* Tests for the trace library: the compact trace layout and its access
   coding, trace recording against the emulator's own stream, the trace
   cache, and the redundancy limit studies (Figure 1/2 machinery). *)

open Darsie_isa
open Darsie_trace

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let parse = Parser.parse_kernel

(* ------------------------------------------------------------------ *)
(* Pattern tests                                                       *)
(* ------------------------------------------------------------------ *)

let test_vector_patterns () =
  check_bool "uniform" true (Limit_study.vector_uniform [| 5; 5; 5; 5 |]);
  check_bool "not uniform" false (Limit_study.vector_uniform [| 5; 5; 6; 5 |]);
  check_bool "affine stride 4" true
    (Limit_study.vector_affine [| 0; 4; 8; 12 |]);
  check_bool "uniform is affine" true (Limit_study.vector_affine [| 3; 3; 3; 3 |]);
  check_bool "periodic affine (2D tid.x layout)" true
    (Limit_study.vector_affine [| 0; 1; 2; 3; 0; 1; 2; 3 |]);
  check_bool "periodic affine stride 4" true
    (Limit_study.vector_affine [| 10; 14; 10; 14 |]);
  check_bool "unstructured" false
    (Limit_study.vector_affine [| 7; 3; 0; 90 |]);
  check_bool "broken period" false
    (Limit_study.vector_affine [| 0; 1; 2; 3; 0; 1; 2; 5 |]);
  (* wrap-around strides still count (mod 2^32 arithmetic) *)
  check_bool "wrapping affine" true
    (Limit_study.vector_affine
       [| 0xFFFFFFFE; 0xFFFFFFFF; 0; 1 |])

let affine_gen =
  QCheck.Gen.(
    map3
      (fun base stride n ->
        (abs base land 0xFFFFFF, abs stride land 0xFFFF, (abs n mod 4) + 1))
      int int int)

let qcheck_affine =
  QCheck.Test.make ~name:"generated affine vectors are affine" ~count:300
    (QCheck.make affine_gen) (fun (base, stride, log_period) ->
      let period = 1 lsl log_period in
      let n = 32 in
      let v =
        Array.init n (fun i -> Value.add base (Value.mul stride (i mod period)))
      in
      Limit_study.vector_affine v)

(* ------------------------------------------------------------------ *)
(* Record generation                                                   *)
(* ------------------------------------------------------------------ *)

(* Op [i]'s access vector, decoded into a fresh array. *)
let accesses w i =
  let buf = Array.make (Record.access_count w i) 0 in
  ignore (Record.decode_accesses w i buf);
  buf

let loop_kernel =
  parse
    {|
.kernel t
.params 1
  mov.u32 %r0, 0;
top:
  add.u32 %r0, %r0, 1;
  setp.lt.s32 %p0, %r0, 3;
@%p0 bra top;
  st.global.u32 [%param0], %r0;
  exit;
|}

let test_record_generate () =
  let mem = Darsie_emu.Memory.create () in
  let dst = Darsie_emu.Memory.alloc mem 4 in
  let launch =
    Kernel.launch loop_kernel ~grid:(Kernel.dim3 2) ~block:(Kernel.dim3 64)
      ~params:[| dst |]
  in
  let t = Record.generate mem launch in
  check_int "tbs" 2 (Record.num_tbs t);
  check_int "warps per tb" 2 (Record.warps_per_tb t);
  (* 1 mov + 3*(add,setp,bra) + st + exit = 12 per warp *)
  check_int "ops per warp" 12 (Record.length t.Record.tbs.(0).(0));
  check_int "total" (12 * 4) (Record.total_ops t);
  (* occurrence numbers count loop iterations *)
  let w = t.Record.tbs.(1).(1) in
  let ops = List.init (Record.length w) Fun.id in
  let adds = List.filter (fun i -> Record.idx w i = 1) ops in
  Alcotest.(check (list int))
    "occurrences" [ 0; 1; 2 ]
    (List.map (Record.occ w) adds);
  (* memory op carries addresses: 32 lanes storing to one word *)
  let st = List.find (fun i -> Record.idx w i = 4) ops in
  check_int "store addresses" 32 (Record.access_count w st);
  check_bool "uniform store is affine-coded" true (Record.affine w st);
  check_bool "decoded addresses" true
    (accesses w st = Array.make 32 dst);
  check_int "full mask recorded" ((1 lsl 32) - 1) (Record.active w st);
  check_int "non-memory op has no addresses" 0 (Record.access_count w 0)

(* ------------------------------------------------------------------ *)
(* Access coding                                                       *)
(* ------------------------------------------------------------------ *)

(* The coding rule restated: one stride from lane 0 to lane 1 fits
   every lane. *)
let single_affine a =
  let n = Array.length a in
  n < 3
  ||
  let s = a.(1) - a.(0) in
  let ok = ref true in
  Array.iteri (fun k x -> if x <> a.(0) + (k * s) then ok := false) a;
  !ok

let near_2_32 = (1 lsl 32) - 64

let access_vector_gen =
  QCheck.Gen.(
    let lanes = int_range 0 64 in
    let addr = int_range 0 0xFFFFFF in
    oneof
      [
        return [||];
        map (fun a -> [| a |]) addr;
        map2 (fun n a -> Array.make n a) lanes addr;
        (* affine with a positive, negative or zero stride *)
        map3
          (fun n a s -> Array.init n (fun k -> a + (k * s)))
          lanes addr (int_range (-256) 256);
        (* a 2-D tile: two 16-lane rows, [row] bytes apart *)
        map3
          (fun a col row ->
            Array.init 32 (fun k -> a + ((k mod 16) * col) + (k / 16 * row)))
          addr (int_range 1 16) (int_range 64 4096);
        (* a random gather *)
        array_size lanes addr;
        (* addresses around 2^32, crossing it *)
        map2
          (fun n s -> Array.init n (fun k -> near_2_32 + (k * s)))
          lanes (int_range 0 8);
        array_size lanes (map (fun d -> near_2_32 + d) (int_range 0 128));
      ])

let op_gen =
  QCheck.Gen.(
    map3
      (fun (idx, occ) active acc -> (idx, occ, active, acc))
      (pair (int_range 0 ((1 lsl 20) - 1)) (int_range 0 1_000_000))
      (int_range 0 ((1 lsl 32) - 1))
      access_vector_gen)

let print_op (idx, occ, active, acc) =
  Printf.sprintf "idx=%d occ=%d active=%x [%s]" idx occ active
    (String.concat ";" (Array.to_list (Array.map string_of_int acc)))

(* A warp built from random ops decodes op for op to its input, and
   every vector is coded affine exactly when the rule says so. *)
let qcheck_access_coding =
  QCheck.Test.make ~name:"access coding round-trips" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(list print_op)
       QCheck.Gen.(list_size (int_range 0 20) op_gen))
    (fun ops ->
      (* Each vector is passed as the prefix of a longer buffer, as the
         emulator's scratch is; the lanes past [len] must not count. *)
      let b = Record.Builder.create () in
      let build () =
        List.iter
          (fun (idx, occ, active, acc) ->
            Record.Builder.add b ~idx ~occ ~active
              (Array.append acc [| 3; 1 lsl 40 |])
              (Array.length acc))
          ops;
        Record.Builder.finish b
      in
      let w = build () in
      (* [finish] leaves the builder empty and reusable. *)
      build () = w
      && Record.length w = List.length ops
      && List.for_all2
           (fun i (idx, occ, active, acc) ->
             let buf = Array.make 64 (-1) in
             let n = Record.decode_accesses w i buf in
             Record.idx w i = idx
             && Record.occ w i = occ
             && Record.active w i = active
             && Record.access_count w i = Array.length acc
             && n = Array.length acc
             && Array.sub buf 0 n = acc
             && accesses w i = acc
             && Record.affine w i = single_affine acc)
           (List.init (List.length ops) Fun.id)
           ops)

let test_builder_ranges () =
  let b = Record.Builder.create () in
  let raises name f =
    check_bool name true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  raises "idx beyond its field" (fun () ->
      Record.Builder.add b ~idx:(1 lsl 20) ~occ:0 ~active:1 [||] 0);
  raises "negative idx" (fun () ->
      Record.Builder.add b ~idx:(-1) ~occ:0 ~active:1 [||] 0);
  raises "negative occ" (fun () ->
      Record.Builder.add b ~idx:0 ~occ:(-1) ~active:1 [||] 0);
  raises "occ beyond its field" (fun () ->
      Record.Builder.add b ~idx:0 ~occ:(max_int lsr 19) ~active:1 [||] 0);
  Record.Builder.add b ~idx:((1 lsl 20) - 1) ~occ:(max_int lsr 20) ~active:1
    [||] 0;
  let w = Record.Builder.finish b in
  check_int "only the fitting op was added" 1 (Record.length w);
  check_int "largest idx" ((1 lsl 20) - 1) (Record.idx w 0);
  check_int "largest occ" (max_int lsr 20) (Record.occ w 0)

(* ------------------------------------------------------------------ *)
(* Whole-trace differential                                            *)
(* ------------------------------------------------------------------ *)

module W = Darsie_workloads.Workload
module Interp = Darsie_emu.Interp

(* The boxed op record the compact layout replaced, kept here as the
   reference: the emulator's own exec stream, per warp. *)
type ref_op = { r_idx : int; r_occ : int; r_active : int; r_acc : int array }

let reference_trace (p : W.prepared) =
  let launch = p.W.launch in
  let ntbs = Kernel.num_blocks launch in
  let nwarps = Kernel.warps_per_block launch ~warp_size:32 in
  let ops = Array.init ntbs (fun _ -> Array.make nwarps []) in
  let on_exec (r : Interp.exec_record) =
    let tb = r.Interp.tb and w = r.Interp.warp in
    ops.(tb).(w) <-
      {
        r_idx = r.Interp.inst_index;
        r_occ = r.Interp.occ;
        r_active = r.Interp.active;
        r_acc = r.Interp.accesses;
      }
      :: ops.(tb).(w)
  in
  let config = { Interp.warp_size = 32; capture_operands = false } in
  ignore (Interp.run ~config ~on_exec p.W.mem launch);
  Array.map (Array.map List.rev) ops

let decoded (w : Record.warp) =
  List.init (Record.length w) (fun i ->
      {
        r_idx = Record.idx w i;
        r_occ = Record.occ w i;
        r_active = Record.active w i;
        r_acc = accesses w i;
      })

let test_trace_differential () =
  List.iter
    (fun (wl : W.t) ->
      let reference = reference_trace (wl.W.prepare ~scale:1) in
      let p = wl.W.prepare ~scale:1 in
      let t = Record.generate p.W.mem p.W.launch in
      check_int (wl.W.abbr ^ " tbs") (Array.length reference) (Record.num_tbs t);
      Array.iteri
        (fun tb warps ->
          Array.iteri
            (fun w ops ->
              check_bool
                (Printf.sprintf "%s tb %d warp %d decodes to the exec stream"
                   wl.W.abbr tb w)
                true
                (decoded t.Record.tbs.(tb).(w) = ops))
            warps)
        reference)
    (Darsie_workloads.Registry.all @ Darsie_workloads.Registry.extended)

(* ------------------------------------------------------------------ *)
(* Trace cache                                                         *)
(* ------------------------------------------------------------------ *)

let with_cache f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "darsie-trace-cache-%d" (Unix.getpid ()))
  in
  let clear () =
    if Sys.file_exists dir then begin
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  clear ();
  Fun.protect ~finally:clear (fun () -> f (Cache.create ~dir ()))

let app abbr =
  let wl = Option.get (Darsie_workloads.Registry.find abbr) in
  (wl.W.abbr, wl.W.prepare ~scale:1)

let entry_path cache key = Filename.concat (Cache.dir cache) (key ^ ".trace")

(* Count the ops whose vector is stored affine and those stored raw. *)
let codings (t : Record.t) =
  let aff = ref 0 and raw = ref 0 in
  Array.iter
    (Array.iter (fun w ->
         for i = 0 to Record.length w - 1 do
           if Record.access_count w i > 0 then
             if Record.affine w i then incr aff else incr raw
         done))
    t.Record.tbs;
  (!aff, !raw)

let test_cache_store_find () =
  with_cache (fun cache ->
      List.iter
        (fun (abbr, raw_expected) ->
          let name, p = app abbr in
          let t = Record.generate p.W.mem p.W.launch in
          let aff, raw = codings t in
          check_bool (abbr ^ " takes the expected coding path") true
            (if raw_expected then raw > 0 else raw = 0 && aff > 0);
          let key = Cache.key ~name ~scale:1 p.W.launch in
          Cache.store cache ~key t;
          match Cache.find cache ~key with
          | None -> Alcotest.fail (abbr ^ ": stored entry not found")
          | Some t' ->
            check_bool (abbr ^ " entry equals the generated trace") true
              (t'.Record.tbs = t.Record.tbs
              && t'.Record.warp_size = t.Record.warp_size
              && t'.Record.emu_stats = t.Record.emu_stats))
        [ ("MM", false); ("HS", true) ];
      check_int "hits" 2 (Cache.hits cache);
      check_int "stores" 2 (Cache.stores cache))

let test_cache_old_format () =
  with_cache (fun cache ->
      let name, p = app "MM" in
      let key = Cache.key ~name ~scale:1 p.W.launch in
      let t = Record.generate p.W.mem p.W.launch in
      Sys.mkdir (Cache.dir cache) 0o755;
      let oc = open_out_bin (entry_path cache key) in
      output_string oc "DARSIE-TRACE/1
";
      Marshal.to_channel oc t [];
      close_out oc;
      check_bool "a version-1 entry is not found" true
        (Cache.find cache ~key = None);
      let _, p = app "MM" in
      let t' = Cache.generate cache ~name ~scale:1 p.W.mem p.W.launch in
      check_int "both lookups missed" 2 (Cache.misses cache);
      check_int "and the entry was regenerated" 1 (Cache.stores cache);
      check_bool "with the right trace" true (t'.Record.tbs = t.Record.tbs);
      check_bool "which now hits" true (Cache.find cache ~key <> None))

let test_cache_truncated () =
  with_cache (fun cache ->
      let name, p = app "MM" in
      let key = Cache.key ~name ~scale:1 p.W.launch in
      Cache.store cache ~key (Record.generate p.W.mem p.W.launch);
      let path = entry_path cache key in
      Unix.truncate path ((Unix.stat path).Unix.st_size / 2);
      check_bool "a truncated entry is a miss" true
        (Cache.find cache ~key = None);
      check_int "counted as a miss" 1 (Cache.misses cache))

let test_cache_shape_mismatch () =
  with_cache (fun cache ->
      let name, p = app "MM" in
      let key = Cache.key ~name ~scale:1 p.W.launch in
      let _, hs = app "HS" in
      Cache.store cache ~key (Record.generate hs.W.mem hs.W.launch);
      let t = Cache.generate cache ~name ~scale:1 p.W.mem p.W.launch in
      check_int "a mis-shaped entry is a miss" 1 (Cache.misses cache);
      check_int "no hit" 0 (Cache.hits cache);
      check_int "the trace has the launch's shape"
        (Kernel.num_blocks p.W.launch) (Record.num_tbs t))

(* ------------------------------------------------------------------ *)
(* Limit study on crafted kernels                                      *)
(* ------------------------------------------------------------------ *)

let measure ?(grid = Kernel.dim3 2) ?(block = Kernel.dim3 16 ~y:16) k params =
  let mem = Darsie_emu.Memory.create () in
  let params =
    Array.map
      (fun need ->
        if need then begin
          let base = Darsie_emu.Memory.alloc mem 65536 in
          (* patterned, non-affine data so loaded values are judged by
             their real structure *)
          Darsie_emu.Memory.write_i32s mem base
            (Array.init 16384 (fun i -> (i * 2654435761) land 0xFFFFF));
          base
        end
        else 0)
      params
  in
  let launch = Kernel.launch k ~grid ~block ~params in
  (Limit_study.measure mem launch, params)

let test_limit_uniform_kernel () =
  (* Everything derived from ctaid: fully TB- (but not grid-) redundant. *)
  let k =
    parse
      {|
.kernel u
.params 1
  mov.u32 %r0, %ctaid.x;
  add.u32 %r1, %r0, 10;
  mul.lo.u32 %r2, %r1, 3;
  st.global.u32 [%param0], %r2;
  exit;
|}
  in
  let r, _ = measure k [| true |] in
  (* eligible = mov+add+mul+st = 4 of 5 per warp; all TB-redundant
     uniform *)
  check_int "tb_red counts eligible instances" r.Limit_study.tb_red
    r.Limit_study.tb_uniform;
  check_bool "everything eligible is TB-redundant" true
    (r.Limit_study.tb_red = r.Limit_study.eligible);
  (* ctaid differs across blocks: only the exit-independent ops with
     constant operands are grid-redundant; mov reads ctaid (differs), so
     grid_red < tb_red *)
  check_bool "grid strictly less" true
    (r.Limit_study.grid_red < r.Limit_study.tb_red)

let test_limit_grid_redundant () =
  let k =
    parse
      {|
.kernel g
.params 1
  mov.u32 %r0, 42;
  add.u32 %r1, %r0, %param0;
  exit;
|}
  in
  let r, _ = measure k [| false |] in
  check_bool "constant ops grid-redundant" true
    (r.Limit_study.grid_red = r.Limit_study.eligible)

let test_limit_2d_vs_1d () =
  (* The Figure 3 kernel: affine-redundant in 2D, non-redundant in 1D. *)
  let k =
    parse
      {|
.kernel f3
.params 1
  mul.lo.u32 %r1, %tid.x, 4;
  add.u32 %r2, %r1, %param0;
  ld.global.u32 %r3, [%r2+0];
  exit;
|}
  in
  let r2d, _ = measure ~block:(Kernel.dim3 16 ~y:16) k [| true |] in
  check_bool "2D: all eligible TB-redundant" true
    (r2d.Limit_study.tb_red = r2d.Limit_study.eligible);
  check_bool "2D: affine present" true (r2d.Limit_study.tb_affine > 0);
  check_bool "2D: load is unstructured" true
    (r2d.Limit_study.tb_unstructured > 0);
  let r1d, _ = measure ~block:(Kernel.dim3 256) k [| true |] in
  check_int "1D: nothing TB-redundant" 0 r1d.Limit_study.tb_red

let test_limit_divergence_not_redundant () =
  (* Same computation under a partial mask: counted non-redundant. *)
  let k =
    parse
      {|
.kernel d
  setp.lt.s32 %p0, %tid.y, 8;
@!%p0 bra skip;
  mov.u32 %r0, %ctaid.x;
  add.u32 %r1, %r0, 1;
skip:
  exit;
|}
  in
  (* 16x16 block: tid.y < 8 is a *warp-level* split (full masks), so the
     mov/add remain TB-non-redundant only because not every warp runs
     them. *)
  let r, _ = measure k [| |] in
  check_int "guarded-path ops not TB-redundant" 0 r.Limit_study.tb_red

let test_limit_warp_level () =
  (* tid.y is warp-uniform in a 16x16 block only when warps span 2 rows -
     it is NOT: two y values per warp. tid.x patterns are shared. *)
  let k =
    parse
      {|
.kernel w
  mov.u32 %r0, %ctaid.y;
  mov.u32 %r1, %tid.x;
  exit;
|}
  in
  let r, _ = measure k [||] in
  (* per warp: mov ctaid.y is scalar; mov tid.x is not *)
  check_bool "warp_red counts scalar instances" true
    (r.Limit_study.warp_red * 2 = r.Limit_study.tb_red)

let test_limit_load_value_dependence () =
  (* Two blocks read the same uniform address but a store in between does
     not occur; loads are TB-redundant; values differ per-TB only via
     ctaid — here address is constant so grid-redundant too. *)
  let k =
    parse
      {|
.kernel lv
.params 1
  ld.global.u32 %r0, [%param0+0];
  add.u32 %r1, %r0, 1;
  exit;
|}
  in
  let r, _ = measure k [| true |] in
  check_bool "uniform load redundant at grid level" true
    (r.Limit_study.grid_red = r.Limit_study.eligible);
  check_bool "classified uniform" true
    (r.Limit_study.tb_uniform = r.Limit_study.tb_red)

let test_limit_atomics_excluded () =
  let k =
    parse
      {|
.kernel a
.params 1
  atom.global.add.u32 %r0, [%param0], 1;
  exit;
|}
  in
  let r, _ = measure k [| true |] in
  check_int "atomics never redundant" 0 r.Limit_study.tb_red;
  check_int "atomics not eligible" 0 r.Limit_study.eligible

let () =
  Alcotest.run "darsie_trace"
    [
      ( "patterns",
        [
          Alcotest.test_case "classification" `Quick test_vector_patterns;
          QCheck_alcotest.to_alcotest qcheck_affine;
        ] );
      ( "record",
        [
          Alcotest.test_case "generation" `Quick test_record_generate;
          Alcotest.test_case "packed field ranges" `Quick test_builder_ranges;
          QCheck_alcotest.to_alcotest qcheck_access_coding;
          Alcotest.test_case "decodes to the exec stream, all apps" `Quick
            test_trace_differential;
        ] );
      ( "cache",
        [
          Alcotest.test_case "store then find, affine and raw" `Quick
            test_cache_store_find;
          Alcotest.test_case "version-1 entry is a miss" `Quick
            test_cache_old_format;
          Alcotest.test_case "truncated entry is a miss" `Quick
            test_cache_truncated;
          Alcotest.test_case "mis-shaped entry is a miss" `Quick
            test_cache_shape_mismatch;
        ] );
      ( "limit-study",
        [
          Alcotest.test_case "uniform kernel" `Quick test_limit_uniform_kernel;
          Alcotest.test_case "grid redundant" `Quick test_limit_grid_redundant;
          Alcotest.test_case "2d vs 1d" `Quick test_limit_2d_vs_1d;
          Alcotest.test_case "divergence" `Quick
            test_limit_divergence_not_redundant;
          Alcotest.test_case "warp level" `Quick test_limit_warp_level;
          Alcotest.test_case "uniform loads" `Quick
            test_limit_load_value_dependence;
          Alcotest.test_case "atomics" `Quick test_limit_atomics_excluded;
        ] );
    ]
