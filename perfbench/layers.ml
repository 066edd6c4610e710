(* Per-layer metrics folded out of a traced run's spans. A layer that the
   workload does not call has no work to divide by and reads 0. *)

type measured = {
  spans : Span.t list;
      (** roots: ["setup"], the serial ["pass"] and, on paper-mm, the
          sharded ["shard-pass"] *)
  untraced_pass_ns : int;  (** the same serial pass with recording off *)
  pool_busy_frac : float;  (** 0 when the workload has no pool *)
}

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let root name spans = List.filter (fun s -> s.Span.name = name) spans

let metrics m =
  let all = Span.flatten m.spans in
  let in_layer l = List.filter (fun s -> s.Span.layer = l) all in
  let named n = List.filter (fun s -> s.Span.name = n) all in
  let self l = sum Span.self_ns (in_layer l) in
  let words l = sum Span.self_words (in_layer l) in
  let count l k = sum (fun s -> Span.count s k) (in_layer l) in
  let traced_wall = sum (fun s -> s.Span.dur_ns) m.spans in
  let timing l =
    let cyc = count l "sm_cycles" in
    [
      (l ^ ".ns_per_sm_cycle", ratio (self l) cyc);
      (l ^ ".words_per_sm_cycle", ratio (words l) cyc);
      (l ^ ".ns_per_op", ratio (self l) (count l "ops"));
    ]
  in
  (* fixed per-run cost: the median Gpu.run over the tenth of the fuzz
     simulations with the fewest SM-cycles *)
  let run_setup_us =
    let runs =
      List.filter (fun s -> s.Span.name = "Gpu.run") (in_layer "timing.darsie")
      |> List.sort (fun a b ->
             compare (Span.count a "sm_cycles") (Span.count b "sm_cycles"))
    in
    let n = max 1 (List.length runs / 10) in
    median
      (List.filteri (fun i _ -> i < n) runs
      |> List.map (fun s -> float_of_int s.Span.dur_ns /. 1e3))
  in
  let serial_ns =
    sum
      (fun r ->
        sum Span.self_ns
          (List.filter
             (fun s ->
               s.Span.layer = "timing.base" || s.Span.layer = "timing.darsie")
             (Span.flatten [ r ])))
      (root "pass" m.spans)
  in
  let speedup = ratio serial_ns (self "shard") in
  let finds = named "Cache.find" in
  let fcount k = sum (fun s -> Span.count s k) finds in
  let setup_spans = Span.flatten (root "setup" m.spans) in
  let setup_secs name =
    float_of_int
      (sum (fun s -> s.Span.dur_ns)
         (List.filter (fun s -> s.Span.name = name) setup_spans))
    /. 1e9
  in
  let kernels = List.length (named "Gen.generate") in
  let pass_ns = sum (fun s -> s.Span.dur_ns) (root "pass" m.spans) in
  timing "timing.base" @ timing "timing.darsie"
  @ [
      ("timing.other.ns_per_sm_cycle",
        ratio (self "timing.other") (count "timing.other" "sm_cycles"));
      ("timing.run_setup_us", run_setup_us);
      ("shard.speedup_2", speedup);
      ("shard.efficiency", speedup /. 2.);
      ("emu.ns_per_op", ratio (self "emu") (count "emu" "ops"));
      ("emu.words_per_op", ratio (words "emu") (count "emu" "ops"));
      ("cache.load_ns_per_op", ratio (sum Span.self_ns finds) (fcount "ops"));
      ("cache.load_words_per_op",
        ratio (sum Span.self_words finds) (fcount "ops"));
      ("cache.bytes_per_op", ratio (fcount "bytes") (fcount "ops"));
      ("cache.hit_rate", ratio (fcount "hits") (fcount "hits" + fcount "misses"));
      ("cache.store_s", setup_secs "Cache.store");
      ("compiler.ns_per_inst", ratio (self "compiler") (count "compiler" "insts"));
      ("workloads.prepare_s", setup_secs "Workload.prepare");
      ("check.oracle_ns_per_op", ratio (self "check") (count "check" "ops"));
      ("fuzz.gen_us_per_kernel",
        ratio (sum (fun s -> s.Span.dur_ns) (named "Gen.generate")) kernels
        /. 1e3);
      ("fuzz.differential_ms_per_kernel",
        ratio (sum (fun s -> s.Span.dur_ns) (named "differential")) kernels
        /. 1e6);
      ("pool.busy_frac", m.pool_busy_frac);
    ]
  @ List.map
      (fun l -> (l ^ ".self_frac", ratio (self l) traced_wall))
      Catalog.layers
  @ [
      ("tracing.overhead_frac",
        if m.untraced_pass_ns = 0 then 0.
        else ratio pass_ns m.untraced_pass_ns -. 1.);
    ]
