(* Golden-metrics gate: the timing model's simulated results must not
   drift. Every 13-app x 7-machine cell's full metrics document is
   digested at [Config.default] and at one fidelity point (dual-issue
   fetch bundles, per-warp MSHRs, shared-memory bank replay) and compared
   against the digests committed in [golden_metrics.txt].

   A change that is meant to alter simulated behaviour re-records the
   fixture and says so:

     dune build test/test_golden.exe
     (cd test && ../_build/default/test/test_golden.exe record golden_metrics.txt) *)

open Darsie_timing
module Suite = Darsie_harness.Suite
module W = Darsie_workloads.Workload
module J = Darsie_obs.Json

let fidelity =
  { Config.default with Config.issue_width = 2; mshrs = 8; smem_banks = 32 }

let points = [ ("default", Config.default); ("fidelity", fidelity) ]

(* One line per cell: "<point> <app>/<machine> <md5 of the metrics JSON>". *)
let digests (point, cfg) =
  let m = Suite.build_matrix ~cfg ~jobs:1 () in
  List.concat_map
    (fun (app : Suite.app) ->
      let abbr = app.Suite.workload.W.abbr in
      List.map
        (fun machine ->
          let doc =
            J.to_string (Darsie_harness.Metrics.of_run ~app:abbr
                           (Suite.get m abbr machine))
          in
          Printf.sprintf "%s %s/%s %s" point abbr (Suite.machine_name machine)
            (Digest.to_hex (Digest.string doc)))
        Suite.all_machines)
    m.Suite.apps

let fixture = "golden_metrics.txt"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_point point () =
  let expected =
    List.filter
      (fun l -> String.starts_with ~prefix:(fst point ^ " ") l)
      (read_lines fixture)
  in
  let actual = digests point in
  Alcotest.(check int) "cells" (List.length expected) (List.length actual);
  let diverged = List.filter (fun l -> not (List.mem l expected)) actual in
  if diverged <> [] then
    Alcotest.failf "%d of %d cells diverge from %s, first: %s"
      (List.length diverged) (List.length actual) fixture (List.hd diverged)

let () =
  match Sys.argv with
  | [| _; "record"; path |] ->
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun p -> List.iter (fun l -> output_string oc (l ^ "\n")) (digests p))
          points)
  | _ ->
    Alcotest.run "golden"
      [
        ( "metrics digest",
          List.map
            (fun p ->
              Alcotest.test_case
                (Printf.sprintf "13 apps x 7 machines, %s" (fst p))
                `Quick (test_point p))
            points );
      ]
