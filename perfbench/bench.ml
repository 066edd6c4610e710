(* The benchmark's measuring process; run.py builds and drives it.

     bench.exe setup   --workload W --dir D --repeats N
     bench.exe run     --workload W --dir D --seed S --seconds T
     bench.exe trace   --workload W --dir D --seed S
     bench.exe startup

   Each subcommand prints one JSON object as its last line of output.
   [D] holds the trace cache and the written spans. *)

open Darsie_perfbench
open Catalog
module Json = Darsie_obs.Json
module Suite = Darsie_harness.Suite
module Cache = Darsie_trace.Cache

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

let flag name =
  let rec find = function
    | k :: v :: _ when k = "--" ^ name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (List.tl (Array.to_list Sys.argv))

let req name = match flag name with Some v -> v | None -> die "--%s missing" name

let int_flag name =
  match int_of_string_opt (req name) with
  | Some n -> n
  | None -> die "--%s wants an integer" name

let workload () =
  match workload_of_name (req "workload") with
  | Some w -> w
  | None -> die "unknown workload %s" (req "workload")

let dir () =
  let d = req "dir" in
  (try Sys.mkdir d 0o755 with Sys_error _ -> ());
  d

let cache () = Cache.create ~dir:(Filename.concat (dir ()) "cache") ()

let secs ns = float_of_int ns /. 1e9

let metric name value unit =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

let print j = print_endline (Json.to_string j)

(* A short fixed piece of work, timed at the start and the end of a run,
   so that a result shows how fast the host was and how much it drifted.
   It starts from a collected heap, so that the garbage the run leaves
   behind does not slow the second timing. *)
let calibration () =
  let app = Suite.load_app Work.mm in
  fun () ->
    Gc.full_major ();
    Layers.median
      (List.init 3 (fun _ ->
           secs
             (Work.timed_ns (fun () ->
                  ignore (Suite.run_app app Suite.Base)))
           *. 1e3))

let host ~sm_domains ~calib_start ~calib_end cache =
  let hits, misses =
    match cache with Some c -> (Cache.hits c, Cache.misses c) | None -> (0, 0)
  in
  Json.Obj
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("jobs", Json.Int Work.jobs);
      ("sm_domains", Json.Int sm_domains);
      ( "trace_cache",
        Json.Obj
          [
            ("hits", Json.Int hits);
            ("misses", Json.Int misses);
            ( "state",
              Json.String
                (if cache = None then "none"
                 else if misses = 0 && hits > 0 then "warm"
                 else "cold") );
          ] );
      ("calibration_ms", Json.List [ Json.Float calib_start; Json.Float calib_end ]);
    ]

let problems (t : Work.tally) =
  ("problems", Json.List (List.rev_map (fun s -> Json.String s) t.Work.problems))

let result (t : Work.tally) metrics detail =
  Json.Obj
    [
      ("correct", Json.Bool (t.Work.failed = 0));
      ("attempted", Json.Int t.Work.attempted);
      ("failed", Json.Int t.Work.failed);
      ("metrics", Json.Obj metrics);
      ("detail", Json.Obj (problems t :: detail));
    ]

let setup () =
  let w = workload () and n = int_flag "repeats" in
  let c = cache () and t = Work.tally () in
  let walls =
    List.init n (fun _ ->
        Gc.full_major ();
        secs (Work.timed_ns (fun () -> Work.setup t c w)))
  in
  print
    (Json.Obj
       [
         ("correct", Json.Bool (t.Work.failed = 0));
         ("setup_s", Json.Float (Layers.median walls));
         ("repeats", Json.List (List.map (fun s -> Json.Float s) walls));
         problems t;
       ])

let uses_cache w = Work.apps_of w <> []

let run () =
  let w = workload () and seed = int_flag "seed" in
  let seconds = float_of_int (int_flag "seconds") in
  let c = cache () and t = Work.tally () in
  let calib = calibration () in
  let calib_start = calib () in
  let t0 = Work.now_ns () in
  let walls = ref [] and rates = ref [] and i = ref 0 in
  (* at least three iterations, so that the median leaves out the first,
     which also grows the heap *)
  while !i < 3 || secs (Work.now_ns () - t0) < seconds do
    Gc.full_major ();
    let before = t.Work.cycles in
    let wall = secs (Work.timed_ns (fun () -> Work.iteration w t c ~seed !i)) in
    walls := wall :: !walls;
    rates := (float_of_int (t.Work.cycles - before) /. wall) :: !rates;
    incr i
  done;
  let calib_end = calib () in
  print
    (result t
       [
         metric "wall_s" (Layers.median !walls) "s";
         metric "sim_cycles_per_s" (Layers.median !rates) "1/s";
       ]
       [
         ("iterations", Json.List (List.rev_map (fun s -> Json.Float s) !walls));
         ( "host",
           host
             ~sm_domains:(if w = Paper_mm then 2 else 1)
             ~calib_start ~calib_end
             (if uses_cache w then Some c else None) );
       ])

let trace () =
  let w = workload () and seed = int_flag "seed" in
  let c = cache () and t = Work.tally () in
  let calib = calibration () in
  let calib_start = calib () in
  let measured = Work.traced w t c ~seed in
  let calib_end = calib () in
  let file =
    Filename.concat (dir ()) ("spans-" ^ workload_name w ^ ".json")
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        (Json.to_string (Json.List (List.map Span.to_json measured.Layers.spans))));
  let units = List.map (fun m -> (m.name, m.unit)) per_layer in
  print
    (result t
       (List.map
          (fun (name, v) -> metric name v (List.assoc name units))
          (Layers.metrics measured))
       [
         ("spans", Json.String file);
         ( "host",
           host ~sm_domains:1 ~calib_start ~calib_end
             (if uses_cache w then Some c else None) );
       ])

let () =
  match Array.to_list Sys.argv with
  | _ :: "setup" :: _ -> setup ()
  | _ :: "run" :: _ -> run ()
  | _ :: "trace" :: _ -> trace ()
  | _ :: "startup" :: _ -> ()
  | _ -> die "usage: bench.exe (setup|run|trace|startup) --workload W ..."
