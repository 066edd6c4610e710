(* The three workloads: their set-up, their timed part (tracing off) and
   their traced run. Each calls the layers' public functions directly so
   that a span can sit around every layer call; nothing inside the
   libraries is instrumented for the benchmark. *)

open Catalog
module W = Darsie_workloads.Workload
module Suite = Darsie_harness.Suite
module Parallel = Darsie_harness.Parallel
module Config = Darsie_timing.Config
module Gpu = Darsie_timing.Gpu
module Kinfo = Darsie_timing.Kinfo
module Cache = Darsie_trace.Cache
module Record = Darsie_trace.Record
module Tel = Darsie_telemetry.Telemetry
module Campaign = Darsie_fuzz.Campaign
module Json = Darsie_obs.Json

(* ---- output checks ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable cycles : int;  (** simulated cycles of the simulations that ran *)
  mutable problems : string list;  (** first few failures, newest first *)
}

let tally () = { attempted = 0; failed = 0; cycles = 0; problems = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.problems < 20 then t.problems <- msg :: t.problems

(* One simulation is one operation: it must end, keep the attribution
   and ledger invariants, and simulate exactly the recorded cycles. *)
let check_gpu t ~what ~expected r =
  t.attempted <- t.attempted + 1;
  let problem =
    match r with
    | Error e -> Some (Darsie_check.Sim_error.summary e)
    | Ok (g : Gpu.result) -> (
      t.cycles <- t.cycles + g.Gpu.cycles;
      match (Gpu.check_attribution g, Gpu.check_ledger g) with
      | Error msg, _ | _, Error msg -> Some msg
      | Ok (), Ok () when g.Gpu.cycles <> expected ->
        Some (Printf.sprintf "%d cycles, expected %d" g.Gpu.cycles expected)
      | Ok (), Ok () -> None)
  in
  Option.iter (fun msg -> fail t (what ^ ": " ^ msg)) problem

let cell_name (app : Suite.app) machine =
  app.Suite.workload.W.abbr ^ "/" ^ Suite.machine_name machine

(* ---- set-up: trace generation plus the cache fill ---- *)

let mm = Darsie_workloads.Matmul.workload

let paper_scale = 4

let apps_of = function
  | Matrix -> List.map (fun w -> (w, 1)) Darsie_workloads.Registry.all
  | Paper_mm -> [ (mm, paper_scale) ]
  | Fuzz -> []

let ops_count tr = [ ("ops", Record.total_ops tr) ]

(* Emulate every app of the workload, check the result against its CPU
   reference, and store the trace. Calls Record.generate and Cache.store
   explicitly (not Cache.generate), so every repetition does the full
   work whatever the cache already holds. *)
let setup t cache workload =
  Span.record ~layer:"bench" "setup" (fun () ->
      List.iter
        (fun ((w : W.t), scale) ->
          let p =
            Span.record ~layer:"workloads" "Workload.prepare" (fun () ->
                w.W.prepare ~scale)
          in
          let trace =
            Span.record ~layer:"emu" "Record.generate" ~counts:ops_count
              (fun () -> Record.generate p.W.mem p.W.launch)
          in
          (match p.W.verify p.W.mem with
          | Ok () -> ()
          | Error msg -> fail t (w.W.abbr ^ " functional result: " ^ msg));
          let key = Cache.key ~name:w.W.abbr ~scale p.W.launch in
          Span.record ~layer:"cache" "Cache.store" (fun () ->
              Cache.store cache ~key trace))
        (apps_of workload))

(* ---- the calls the traced passes wrap ---- *)

let entry_bytes cache key =
  try (Unix.stat (Filename.concat (Cache.dir cache) (key ^ ".trace"))).Unix.st_size
  with Unix.Unix_error _ -> 0

(* Suite.load_app, one span per layer call. A miss falls back to the
   emulator and shows in cache.hit_rate. *)
let load_app cache ~scale (w : W.t) =
  let p =
    Span.record ~layer:"workloads" "Workload.prepare" (fun () ->
        w.W.prepare ~scale)
  in
  let kinfo =
    Span.record ~layer:"compiler" "Kinfo.make"
      ~counts:(fun k ->
        [ ("insts", Array.length k.Kinfo.kernel.Darsie_isa.Kernel.insts) ])
      (fun () -> Kinfo.make ~warp_size:32 p.W.launch)
  in
  let key = Cache.key ~name:w.W.abbr ~scale p.W.launch in
  let found =
    Span.record ~layer:"cache" "Cache.find"
      ~counts:(function
        | Some tr ->
          ("hits", 1) :: ("bytes", entry_bytes cache key) :: ops_count tr
        | None -> [ ("misses", 1) ])
      (fun () -> Cache.find cache ~key)
  in
  let trace =
    match found with
    | Some tr -> tr
    | None ->
      Span.record ~layer:"emu" "Record.generate" ~counts:ops_count (fun () ->
          Record.generate p.W.mem p.W.launch)
  in
  { Suite.workload = w; trace; kinfo }

let timing_layer = function
  | Suite.Base -> "timing.base"
  | Suite.Darsie -> "timing.darsie"
  | _ -> "timing.other"

let sim_counts ops = function
  | Ok (g : Gpu.result) ->
    [ ("sm_cycles", g.Gpu.cycles * Array.length g.Gpu.per_sm); ("ops", ops) ]
  | Error _ -> []

let run_cell t ?layer ~cfg ~expected (app : Suite.app) machine =
  let layer = Option.value layer ~default:(timing_layer machine) in
  let r =
    Span.record ~layer "Suite.run_app_checked"
      ~counts:(sim_counts (Record.total_ops app.Suite.trace))
      (fun () ->
        Result.map
          (fun r -> r.Suite.gpu)
          (Suite.run_app_checked ~cfg app machine))
  in
  check_gpu t ~what:(cell_name app machine) ~expected r

(* ---- the timed part: what a user runs, tracing off ---- *)

let machines = Suite.all_machines

let paper_machines = [ Suite.Base; Suite.Darsie ]

(* Both levels of parallelism the benchmark uses stay within the host's
   two cores: the matrix pool and the fuzz pool run two workers, and
   paper-mm shards one simulation over two SM domains. *)
let jobs = 2

let sharded = { Config.default with Config.sm_domains = 2 }

let fuzz_count = 500

let check_matrix t (m : Suite.matrix) =
  List.iter
    (fun (app : Suite.app) ->
      List.iter
        (fun machine ->
          check_gpu t ~what:(cell_name app machine)
            ~expected:(Expected.cycles app.Suite.workload.W.abbr machine)
            (Ok (Suite.get m app.Suite.workload.W.abbr machine).Suite.gpu))
        machines)
    m.Suite.apps

let cells () = List.length (apps_of Matrix) * List.length machines

let matrix_iteration t cache =
  match Suite.build_matrix ~jobs ~cache () with
  | m -> check_matrix t m
  | exception e ->
    t.attempted <- t.attempted + cells ();
    for _ = 1 to cells () do
      fail t ("matrix: " ^ Printexc.to_string e)
    done

let paper_iteration t cache =
  let app = Suite.load_app ~scale:paper_scale ~cache mm in
  List.iter
    (fun machine ->
      check_gpu t ~what:(cell_name app machine)
        ~expected:(Expected.paper_mm machine)
        (Result.map
           (fun r -> r.Suite.gpu)
           (Suite.run_app_checked ~cfg:sharded app machine)))
    paper_machines

let fuzz_config ~jobs ~seed =
  {
    Campaign.seed;
    count = fuzz_count;
    jobs = Some jobs;
    max_shrink = 0;
    corpus_dir = None;
    inject = false;
    base_cfg = Config.default;
  }

(* Iteration [i] of a run checks campaign [hash2 seed i]: every iteration
   sees fresh kernels, and the run's seed fixes them all. *)
let fuzz_seed ~seed i = Darsie_fuzz.Sprng.hash2 seed i

let fuzz_iteration t ~seed =
  let r = Campaign.run (fuzz_config ~jobs ~seed) in
  t.attempted <- t.attempted + r.Campaign.r_kernels;
  (* the differential simulates every kernel twice: fast-forward on, off *)
  t.cycles <- t.cycles + (2 * r.Campaign.r_cycles);
  List.iter
    (fun f ->
      fail t (Printf.sprintf "%s: %s" f.Campaign.fr_kind f.Campaign.fr_replay))
    r.Campaign.r_failures

let iteration workload t cache ~seed i =
  match workload with
  | Matrix -> matrix_iteration t cache
  | Paper_mm -> paper_iteration t cache
  | Fuzz -> fuzz_iteration t ~seed:(fuzz_seed ~seed i)

(* ---- the traced run ---- *)

(* The serial pass: the workload's timed part at -j 1 and one SM domain,
   through the same public calls Suite.build_matrix, the paper-mm
   iteration and Differential.check_case make, with a span around each. *)

let matrix_pass t cache =
  let apps =
    Span.record ~layer:"pool" "Parallel.map" (fun () ->
        Parallel.map ~jobs:1 (load_app cache ~scale:1)
          Darsie_workloads.Registry.all)
  in
  let cells =
    List.concat_map (fun app -> List.map (fun m -> (app, m)) machines) apps
  in
  Span.record ~layer:"pool" "Parallel.map" (fun () ->
      ignore
        (Parallel.map ~jobs:1
           (fun ((app : Suite.app), machine) ->
             run_cell t ~cfg:Config.default
               ~expected:(Expected.cycles app.Suite.workload.W.abbr machine)
               app machine)
           cells))

let paper_pass ?layer ~cfg t app =
  List.iter
    (fun machine ->
      run_cell t ?layer ~cfg ~expected:(Expected.paper_mm machine) app machine)
    paper_machines

(* Differential.check_case's stages, in its order and at its machine
   point: the oracle, then DARSIE timing with fast-forward on and off,
   compared and held to the accounting invariants. *)
let differential t (case : Darsie_fuzz.Plan.case) =
  let rep =
    Span.record ~layer:"check" "Oracle.check_subject"
      ~counts:(fun r -> [ ("ops", r.Darsie_check.Oracle.warp_insts) ])
      (fun () -> Darsie_check.Oracle.check_subject (Darsie_fuzz.Plan.subject case))
  in
  if not (Darsie_check.Oracle.passed rep) then Error "oracle"
  else begin
    let p = Darsie_fuzz.Plan.prepared case in
    let kinfo =
      Span.record ~layer:"compiler" "Kinfo.make"
        ~counts:(fun k ->
          [ ("insts", Array.length k.Kinfo.kernel.Darsie_isa.Kernel.insts) ])
        (fun () -> Kinfo.make ~warp_size:32 p.W.launch)
    in
    let trace =
      Span.record ~layer:"emu" "Record.generate" ~counts:ops_count (fun () ->
          Record.generate p.W.mem p.W.launch)
    in
    let run fast_forward =
      let cfg =
        { Config.default with Config.fast_forward; max_cycles = 5_000_000 }
      in
      Span.record ~layer:"timing.darsie" "Gpu.run"
        ~counts:(sim_counts (Record.total_ops trace))
        (fun () ->
          Gpu.run ~cfg (Darsie_core.Darsie_engine.factory ()) kinfo trace)
    in
    let on = run true in
    let off = run false in
    match (on, off) with
    | Error e, _ | _, Error e -> Error (Darsie_check.Sim_error.summary e)
    | Ok a, Ok b ->
      t.cycles <- t.cycles + a.Gpu.cycles + b.Gpu.cycles;
      if a.Gpu.cycles <> b.Gpu.cycles || a.Gpu.stats <> b.Gpu.stats then
        Error "ff_divergence"
      else
        List.fold_left
          (fun acc r -> Result.bind acc (fun () -> r))
          (Ok ())
          [
            Gpu.check_attribution a; Gpu.check_attribution b;
            Gpu.check_ledger a; Gpu.check_ledger b;
          ]
  end

let fuzz_kernel t ~seed index =
  t.attempted <- t.attempted + 1;
  let _style, plan =
    Span.record ~layer:"fuzz" "Gen.generate" (fun () ->
        Darsie_fuzz.Gen.generate ~seed ~index)
  in
  let verdict =
    match
      Span.record ~layer:"fuzz" "Plan.build" (fun () ->
          Darsie_fuzz.Plan.build plan)
    with
    | Error msg -> Error ("build: " ^ msg)
    | Ok case ->
      Span.record ~layer:"fuzz" "differential" (fun () -> differential t case)
  in
  match verdict with
  | Ok () -> true
  | Error msg ->
    fail t (Printf.sprintf "fuzz kernel %d:%d: %s" seed index msg);
    false

let fuzz_pass t ~seed =
  Span.record ~layer:"pool" "Parallel.map" (fun () ->
      Parallel.map ~jobs:1 (fuzz_kernel t ~seed)
        (List.init fuzz_count Fun.id))

let now_ns = Span.now_ns

let timed_ns f =
  let t0 = now_ns () in
  f ();
  now_ns () - t0

(* Pool busy share of one parallel call: summed item wall (the pool's own
   [pool.busy_s] meter) over jobs x the call's wall. *)
let pool_busy_frac f =
  Tel.reset ();
  let wall = timed_ns f in
  let busy =
    Option.value ~default:0.
      (List.assoc_opt "pool.busy_s" (Tel.snapshot ()).Tel.sn_walls)
  in
  busy *. 1e9 /. float_of_int (jobs * max 1 wall)

let traced workload t cache ~seed =
  (* start from an empty minor heap, so that what the process allocated
     before (its arguments, the calibration) cannot shift the counts *)
  Gc.full_major ();
  Span.start ();
  setup t cache workload;
  let paper_app = ref None and fuzz_passed = ref 0 in
  let serial () =
    match workload with
    | Matrix -> matrix_pass t cache
    | Paper_mm ->
      let app = load_app cache ~scale:paper_scale mm in
      paper_pass ~cfg:Config.default t app;
      paper_app := Some app
    | Fuzz ->
      fuzz_passed := List.length (List.filter Fun.id (fuzz_pass t ~seed))
  in
  Span.record ~layer:"bench" "pass" serial;
  Option.iter
    (fun app ->
      Span.record ~layer:"bench" "shard-pass" (fun () ->
          paper_pass ~layer:"shard" ~cfg:sharded t app))
    !paper_app;
  let spans = Span.stop () in
  paper_app := None;
  Gc.full_major ();
  let untraced_pass_ns = timed_ns serial in
  paper_app := None;
  let pool_busy_frac =
    match workload with
    | Matrix -> pool_busy_frac (fun () -> matrix_iteration t cache)
    | Fuzz ->
      pool_busy_frac (fun () ->
          let r = Campaign.run (fuzz_config ~jobs ~seed) in
          if r.Campaign.r_passed <> !fuzz_passed then
            fail t
              (Printf.sprintf "Campaign.run passed %d kernels, the serial pass %d"
                 r.Campaign.r_passed !fuzz_passed))
    | Paper_mm -> 0.
  in
  { Layers.spans; untraced_pass_ns; pool_busy_frac }
