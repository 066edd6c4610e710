(* Emulator golden gate: the functional emulator's observable behaviour
   must not drift. Each case digests, against [golden_emu.txt]:

   - the [Interp.run_result] outcome (stats, or the error text), run
     with no observer;
   - the final global-memory bytes of that run;
   - the compact trace [Record.generate] builds, marshaled one warp at a
     time exactly as the trace cache stores it (or the error it raised);
   - except for MM at scale 2, the [capture_operands] exec stream seen
     by [on_exec] (every field of every record);
   - for the fuzz kernels, a run under a deterministic interception
     schedule (skips and forced destinations) with a small instruction
     bound, which reaches runaway and fault outcomes.

   Cases: the 13 Table-1 and 6 extended workloads at scale 1, MM at
   scale 2, and the first 300 generated kernels of fuzz seed 5.

   A change that is meant to alter emulated behaviour re-records the
   fixture and says so:

     dune build test/test_emu_golden.exe
     (cd test && ../_build/default/test/test_emu_golden.exe record golden_emu.txt) *)

module Interp = Darsie_emu.Interp
module Memory = Darsie_emu.Memory
module Record = Darsie_trace.Record
module W = Darsie_workloads.Workload
module Fuzz = Darsie_fuzz

let hex s = Digest.to_hex (Digest.string s)

let outcome = function
  | Ok (s : Interp.stats) ->
    Printf.sprintf "ok:%d/%d/%d" s.Interp.warp_insts s.Interp.thread_insts
      s.Interp.max_stack_depth
  | Error e -> "err:" ^ hex (Interp.error_message e)

let memory_digest mem =
  hex (Marshal.to_string (Memory.read_i32s mem 0 (Memory.extent mem / 4)) [])

let trace_digest (p : W.prepared) =
  match Record.generate p.W.mem p.W.launch with
  | t ->
    let b = Buffer.create 4096 in
    Array.iter
      (Array.iter (fun (w : Record.warp) ->
           Buffer.add_string b (Marshal.to_string w [])))
      t.Record.tbs;
    hex (Buffer.contents b)
  | exception e -> "exn:" ^ hex (Printexc.to_string e)

(* A rolling digest over every exec record, so no stream is held whole. *)
let exec_digest ?intercept ?max_warp_insts (p : W.prepared) =
  let h = ref (Digest.string "") in
  let on_exec (r : Interp.exec_record) =
    h := Digest.string (!h ^ Marshal.to_string r [])
  in
  let config = { Interp.warp_size = 32; capture_operands = true } in
  let res =
    Interp.run_result ~config ~on_exec ?intercept ?max_warp_insts p.W.mem
      p.W.launch
  in
  Printf.sprintf "%s:%s:%s" (outcome res) (Digest.to_hex !h)
    (memory_digest p.W.mem)

(* Deterministic in the site alone: roughly one dynamic instruction in 17
   is elided and one in 19 has its destination overwritten. *)
let intercept (s : Interp.site) =
  let k =
    (s.Interp.site_inst * 7) + (s.Interp.site_occ * 13) + s.Interp.site_warp
    + s.Interp.site_tb
  in
  if k mod 17 = 0 then Interp.Skip_instruction
  else if k mod 19 = 0 then
    Interp.Force_dst (Array.init 32 (fun lane -> (k * 4) + lane))
  else Interp.Execute

let case_line ~name ~capture ~interceptions (prepare : unit -> W.prepared) =
  let p = prepare () in
  let res = Interp.run_result p.W.mem p.W.launch in
  let fields =
    [ outcome res; "mem=" ^ memory_digest p.W.mem;
      "trace=" ^ trace_digest (prepare ()) ]
    @ (if capture then [ "exec=" ^ exec_digest (prepare ()) ] else [])
    @
    if interceptions then
      [ "intercept=" ^ exec_digest ~intercept ~max_warp_insts:20_000 (prepare ()) ]
    else []
  in
  String.concat " " (name :: fields)

let workloads = Darsie_workloads.Registry.all @ Darsie_workloads.Registry.extended

let app_lines () =
  List.map
    (fun (w : W.t) ->
      case_line ~name:(w.W.abbr ^ "@1")
        ~capture:true ~interceptions:false
        (fun () -> w.W.prepare ~scale:1))
    workloads
  @
  let mm = Option.get (Darsie_workloads.Registry.find "MM") in
  [ case_line ~name:"MM@2" ~capture:false ~interceptions:false (fun () ->
        mm.W.prepare ~scale:2) ]

let fuzz_seed = 5

let fuzz_count = 300

let fuzz_lines () =
  List.init fuzz_count (fun index ->
      let name = Printf.sprintf "fuzz:%d:%d" fuzz_seed index in
      let _, plan = Fuzz.Gen.generate ~seed:fuzz_seed ~index in
      match Fuzz.Plan.build plan with
      | Error msg -> name ^ " build-error:" ^ hex msg
      | Ok case ->
        case_line ~name ~capture:true ~interceptions:true (fun () ->
            Fuzz.Plan.prepared case))

let fixture = "golden_emu.txt"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let first_word l = List.hd (String.split_on_char ' ' l)

let check_lines ~fuzz actual () =
  let expected =
    List.filter
      (fun l -> String.starts_with ~prefix:"fuzz:" l = fuzz)
      (read_lines fixture)
  in
  Alcotest.(check int) "cases" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) (first_word e) e a) expected actual

let () =
  match Sys.argv with
  | [| _; "record"; path |] ->
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun l -> output_string oc (l ^ "\n"))
          (app_lines () @ fuzz_lines ()))
  | _ ->
    Alcotest.run "emu_golden"
      [
        ( "emulator digest",
          [
            Alcotest.test_case "19 apps at scale 1, MM at scale 2" `Quick
              (fun () -> check_lines ~fuzz:false (app_lines ()) ());
            Alcotest.test_case
              (Printf.sprintf "%d fuzz kernels of seed %d" fuzz_count fuzz_seed)
              `Quick
              (fun () -> check_lines ~fuzz:true (fuzz_lines ()) ());
          ] );
      ]
