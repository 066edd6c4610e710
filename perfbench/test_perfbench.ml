(* Tests for the benchmark's own code: its metric catalogue, the
   self-time arithmetic of its spans, and its output checks on short
   sizes of each workload. *)

open Darsie_perfbench
open Catalog
module Json = Darsie_obs.Json
module Suite = Darsie_harness.Suite
module Config = Darsie_timing.Config

let all_names =
  List.map (fun e -> e.e_name) end_to_end @ List.map (fun m -> m.name) per_layer

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (valid_name n))
    all_names;
  Alcotest.(check int)
    "names are unique"
    (List.length all_names)
    (List.length (List.sort_uniq compare all_names))

let test_mapping () =
  let e2e = List.map (fun e -> e.e_name) end_to_end in
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.name ^ " moves something") true (m.moves <> []);
      Alcotest.(check bool)
        (m.name ^ " has a known layer")
        true
        (List.mem m.layer ("tracing" :: layers));
      List.iter
        (fun (target, ws) ->
          Alcotest.(check bool)
            (m.name ^ " -> " ^ target ^ " is end-to-end")
            true (List.mem target e2e);
          Alcotest.(check bool) (m.name ^ " names a workload") true (ws <> []))
        m.moves)
    per_layer;
  List.iter
    (fun l ->
      Alcotest.(check bool)
        ("layer " ^ l ^ " has a self_frac")
        true
        (List.exists (fun m -> m.name = l ^ ".self_frac") per_layer))
    layers

(* BENCHMARK.json and the catalogue describe the same metrics. *)
let test_benchmark_json () =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  let doc = match Json.of_string text with Ok j -> j | Error e -> failwith e in
  let field k j = Option.get (Json.member k j) in
  let str = function Json.String s -> s | _ -> failwith "string expected" in
  let items k = match field k doc with Json.List l -> l | _ -> [] in
  let triple j = (str (field "name" j), str (field "unit" j), str (field "better" j)) in
  Alcotest.(check (list (triple string string string)))
    "per_layer = catalogue"
    (List.map (fun m -> (m.name, m.unit, better_name m.better)) per_layer)
    (List.map triple (items "per_layer"));
  List.iter
    (fun j ->
      let n, u, b = triple j in
      match List.find_opt (fun e -> e.e_name = n) end_to_end with
      | None -> Alcotest.failf "%s is not in the catalogue" n
      | Some e ->
        Alcotest.(check (pair string string))
          n (e.e_unit, better_name e.e_better) (u, b))
    (items "end_to_end");
  List.iter
    (fun j ->
      let n = str (field "name" j) in
      Alcotest.(check bool) ("workload " ^ n) true (workload_of_name n <> None))
    (items "workloads")

let node ?(children = []) ?(words = 0) name start dur =
  {
    Span.name;
    layer = name;
    start_ns = start;
    dur_ns = dur;
    words;
    counts = [];
    children;
  }

let test_self_time () =
  let leaf = node "leaf" 12 3 in
  let a = node ~children:[ leaf ] ~words:50 "a" 10 10 in
  (* b overlaps a on [15, 20) and sticks out of the root past 100 *)
  let b = node ~words:20 "b" 15 95 in
  let root = node ~children:[ a; b ] ~words:100 "root" 0 100 in
  Alcotest.(check int) "leaf" 3 (Span.self_ns leaf);
  Alcotest.(check int) "a minus its leaf" 7 (Span.self_ns a);
  (* children cover [10, 100): the overlap counts once, the overhang not *)
  Alcotest.(check int) "root" 10 (Span.self_ns root);
  Alcotest.(check int) "root words" 30 (Span.self_words root);
  Alcotest.(check int) "flattened" 4 (List.length (Span.flatten [ root ]))

let test_recording () =
  Span.start ();
  let r =
    Span.record ~layer:"outer" "outer" (fun () ->
        Span.record ~layer:"inner" "inner"
          ~counts:(fun n -> [ ("ops", n) ])
          (fun () -> 7))
  in
  let spans = Span.stop () in
  Alcotest.(check int) "result" 7 r;
  match spans with
  | [ { Span.name = "outer"; children = [ inner ]; _ } as outer ] ->
    Alcotest.(check int) "counts" 7 (Span.count inner "ops");
    Alcotest.(check bool) "nested" true
      (Span.self_ns outer = outer.Span.dur_ns - inner.Span.dur_ns)
  | _ -> Alcotest.fail "one root with one child expected"

let no_failures (t : Work.tally) =
  Alcotest.(check (list string)) "no failures" [] t.Work.problems;
  Alcotest.(check bool) "something checked" true (t.Work.attempted > 0)

(* A short matrix: two apps, every machine, through the pool. *)
let test_short_matrix () =
  let t = Work.tally () in
  let apps =
    List.filter_map Darsie_workloads.Registry.find [ "FWS"; "HS" ]
  in
  Work.check_matrix t (Suite.build_matrix ~apps ~jobs:Work.jobs ());
  no_failures t;
  Alcotest.(check int) "14 cells" 14 t.Work.attempted

(* A short paper-mm: MM at scale 1, sharded like the real one, against
   the matrix's MM cycles. *)
let test_short_paper_mm () =
  let t = Work.tally () in
  let app = Suite.load_app Work.mm in
  List.iter
    (fun machine ->
      Work.run_cell t ~cfg:Work.sharded
        ~expected:(Expected.cycles "MM" machine)
        app machine)
    Work.paper_machines;
  no_failures t

(* A short fuzz campaign: the traced pass's replica of the differential
   must reach the same verdicts as Campaign.run. *)
let test_short_fuzz () =
  let seed = 7 and n = 24 in
  let t = Work.tally () in
  let replica = List.init n (Work.fuzz_kernel t ~seed) in
  let r =
    Darsie_fuzz.Campaign.run
      { (Work.fuzz_config ~jobs:Work.jobs ~seed) with Darsie_fuzz.Campaign.count = n }
  in
  Alcotest.(check int) "kernels" n t.Work.attempted;
  Alcotest.(check int)
    "same passes" r.Darsie_fuzz.Campaign.r_passed
    (List.length (List.filter Fun.id replica))

let () =
  Alcotest.run "perfbench"
    [
      ( "catalogue",
        [
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "per-layer mapping" `Quick test_mapping;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recording" `Quick test_recording;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "short matrix" `Quick test_short_matrix;
          Alcotest.test_case "short paper-mm" `Quick test_short_paper_mm;
          Alcotest.test_case "short fuzz" `Quick test_short_fuzz;
        ] );
    ]
