(* Every metric the benchmark reports, with the layer it measures and
   the end-to-end metric it should move on which workload. BENCHMARK.json
   lists the same names; the tests keep the two in step. *)

type workload = Matrix | Paper_mm | Fuzz

let workload_name = function
  | Matrix -> "matrix"
  | Paper_mm -> "paper-mm"
  | Fuzz -> "fuzz"

let workloads = [ Matrix; Paper_mm; Fuzz ]

let workload_of_name n =
  List.find_opt (fun w -> workload_name w = n) workloads

type better = Lower | Higher

type e2e = { e_name : string; e_unit : string; e_better : better }

let end_to_end =
  [
    { e_name = "wall_s"; e_unit = "s"; e_better = Lower };
    { e_name = "sim_cycles_per_s"; e_unit = "1/s"; e_better = Higher };
    { e_name = "peak_rss_mb"; e_unit = "MB"; e_better = Lower };
    { e_name = "setup_s"; e_unit = "s"; e_better = Lower };
    (* not in BENCHMARK.json: it reads 0 on correct code; the result's
       [failed] and [attempted] carry it *)
    { e_name = "fail_rate"; e_unit = "frac"; e_better = Lower };
  ]

type per_layer = {
  name : string;
  unit : string;
  better : better;
  layer : string;
  moves : (string * workload list) list;
      (** end-to-end metric -> workloads on which it should move *)
}

let layers =
  [
    "workloads"; "compiler"; "emu"; "cache"; "timing.base"; "timing.darsie";
    "timing.other"; "shard"; "pool"; "check"; "fuzz";
  ]

(* The workloads that call each layer, in the timed part or in set-up. *)
let layer_workloads = function
  | "timing.other" -> [ Matrix ]
  | "timing.base" | "workloads" | "cache" -> [ Matrix; Paper_mm ]
  | "shard" -> [ Paper_mm ]
  | "pool" -> [ Matrix; Fuzz ]
  | "check" | "fuzz" -> [ Fuzz ]
  | _ -> [ Matrix; Paper_mm; Fuzz ]

let m ?(better = Lower) name unit layer moves = { name; unit; better; layer; moves }

let wall_rate ws = [ ("wall_s", ws); ("sim_cycles_per_s", ws) ]

let per_layer =
  [
    m "timing.base.ns_per_sm_cycle" "ns" "timing.base" (wall_rate [ Paper_mm; Matrix ]);
    m "timing.base.words_per_sm_cycle" "words" "timing.base" (wall_rate [ Paper_mm; Matrix ]);
    m "timing.base.ns_per_op" "ns" "timing.base" (wall_rate [ Paper_mm; Matrix ]);
    m "timing.darsie.ns_per_sm_cycle" "ns" "timing.darsie" (wall_rate [ Paper_mm; Matrix ]);
    m "timing.darsie.words_per_sm_cycle" "words" "timing.darsie" (wall_rate [ Paper_mm; Matrix ]);
    m "timing.darsie.ns_per_op" "ns" "timing.darsie" (wall_rate [ Paper_mm; Matrix ]);
    m "timing.other.ns_per_sm_cycle" "ns" "timing.other" [ ("wall_s", [ Matrix ]) ];
    m "timing.run_setup_us" "us" "timing.darsie" [ ("wall_s", [ Fuzz ]) ];
    m ~better:Higher "shard.speedup_2" "x" "shard" [ ("wall_s", [ Paper_mm ]) ];
    m ~better:Higher "shard.efficiency" "frac" "shard" [ ("wall_s", [ Paper_mm ]) ];
    m "emu.ns_per_op" "ns" "emu" [ ("setup_s", [ Paper_mm; Matrix ]); ("wall_s", [ Fuzz ]) ];
    m "emu.words_per_op" "words" "emu" [ ("setup_s", [ Paper_mm; Matrix ]); ("wall_s", [ Fuzz ]) ];
    m "cache.load_ns_per_op" "ns" "cache" [ ("wall_s", [ Paper_mm ]) ];
    m "cache.load_words_per_op" "words" "cache" [ ("wall_s", [ Paper_mm ]) ];
    m "cache.bytes_per_op" "B" "cache" [ ("wall_s", [ Paper_mm ]); ("peak_rss_mb", [ Paper_mm ]) ];
    m ~better:Higher "cache.hit_rate" "frac" "cache" [ ("wall_s", [ Paper_mm; Matrix ]) ];
    m "cache.store_s" "s" "cache" [ ("setup_s", [ Paper_mm; Matrix ]) ];
    m "compiler.ns_per_inst" "ns" "compiler" [ ("wall_s", [ Matrix ]) ];
    m "workloads.prepare_s" "s" "workloads" [ ("setup_s", [ Paper_mm; Matrix ]) ];
    m "check.oracle_ns_per_op" "ns" "check" [ ("wall_s", [ Fuzz ]) ];
    m "fuzz.gen_us_per_kernel" "us" "fuzz" [ ("wall_s", [ Fuzz ]) ];
    m "fuzz.differential_ms_per_kernel" "ms" "fuzz" [ ("wall_s", [ Fuzz ]) ];
    m ~better:Higher "pool.busy_frac" "frac" "pool" [ ("wall_s", [ Matrix; Fuzz ]) ];
  ]
  @ List.map
      (fun l ->
        m (l ^ ".self_frac") "frac" l [ ("wall_s", layer_workloads l) ])
      layers
  @ [
      m "tracing.overhead_frac" "frac" "tracing"
        [ ("wall_s", [ Matrix; Paper_mm; Fuzz ]) ];
    ]

let better_name = function Lower -> "lower" | Higher -> "higher"

let valid_name n =
  n <> ""
  && String.length n <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       n
