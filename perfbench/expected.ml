(* Simulated cycles of every (app, machine) cell on today's code, in the
   order of Suite.all_machines: BASE, UV, DAC-IDEAL, DARSIE,
   DARSIE-IGNORE-STORE, DARSIE-NO-CF-SYNC, SILICON-SYNC. The DARSIE column
   equals per_app_cycles in bench/BENCH_2026-08-09_shard.json. A change
   that moves any of them fails the benchmark instead of "improving" it. *)

module Suite = Darsie_harness.Suite

let matrix =
  [
    ("BIN", [| 45314; 45314; 33002; 34419; 34259; 35097; 49317; |]);
    ("PT", [| 11476; 11476; 7494; 7654; 7654; 7912; 11531; |]);
    ("FW", [| 7425; 7425; 5237; 5501; 5501; 5570; 7421; |]);
    ("SR1", [| 2355; 2355; 2230; 2288; 2288; 2282; 2355; |]);
    ("LIB", [| 19986; 19985; 6941; 8621; 8621; 7488; 20004; |]);
    ("IMNLM", [| 14227; 14227; 13203; 11273; 11273; 11231; 14227; |]);
    ("BP", [| 2375; 2375; 1780; 1922; 1754; 1766; 2394; |]);
    ("DCT8x8", [| 2971; 2971; 2767; 2510; 2497; 2741; 2971; |]);
    ("FWS", [| 791; 791; 658; 671; 671; 658; 791; |]);
    ("HS", [| 1711; 1711; 1382; 1235; 1235; 1239; 1711; |]);
    ("CP", [| 12786; 12786; 11094; 8594; 8594; 8026; 12804; |]);
    ("CONVTEX", [| 11604; 11604; 9822; 7529; 7529; 7370; 11604; |]);
    ("MM", [| 11448; 11448; 10486; 7044; 7044; 6671; 11531; |]);
  ]

let cycles abbr machine =
  let rec index i = function
    | m :: rest -> if m = machine then i else index (i + 1) rest
    | [] -> invalid_arg "Expected.cycles"
  in
  (List.assoc abbr matrix).(index 0 Suite.all_machines)

(* MM at scale 4, the same serial and at any SM-domain count. *)
let paper_mm = function
  | Suite.Base -> 344_158
  | Suite.Darsie -> 203_180
  | _ -> invalid_arg "Expected.paper_mm"
