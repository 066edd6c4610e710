open Darsie_trace
module Obs = Darsie_obs

type slot_state = {
  mutable occupied : bool;
  mutable tb_id : int;
  mutable inflight_ops : int;
  mutable barrier_release_at : int;  (* -1 when no release pending *)
  mutable n_at_barrier : int;  (* resident warps with at_barrier set *)
}

(* Stands in for an empty warp slot: its empty trace and I-buffer make
   it drained, so every per-warp test rejects it. Never mutated. *)
let no_warp =
  {
    Engine.wid = -1;
    tb_slot = -1;
    tb_id = -1;
    warp_in_tb = -1;
    trace = Record.empty_warp;
    fi = 0;
    ib_fi = [||];
    ib_cycle = [||];
    ib_head = 0;
    ib_len = 0;
    pending = [||];
    pending_count = 0;
    at_barrier = false;
    finished = true;
    last_issued = 0;
    fetch_ready_at = 0;
    mem_inflight = 0;
    mshr_used = 0;
    fetch_ok = true;
    parked_at = -1;
    skip_stall = 0;
    drop_reason = 0;
    gave_up_at = -1;
  }

(* Operations between issue and writeback, kept in flat int arrays so
   the per-cycle paths store no pointers (and pay no write barrier).
   Pool slot [s] holds an op's warp ([wid]), its index in that warp's
   trace ([fi]), its completion cycle ([finish]) and the MSHR entries it
   holds until writeback ([mshrs]). [heap_fin]/[heap_slot] are a binary
   min-heap on the completion cycle over the [n] live slots; [free]
   stacks the others. In the sharded cycle loop a deferred DRAM
   request's [finish] is a [max_int] placeholder until the epoch barrier
   replays the queue, patches the real completion in and re-heaps
   ([commit_epoch]). *)
module Inflight = struct
  type t = {
    mutable wid : int array;
    mutable fi : int array;
    mutable finish : int array;
    mutable mshrs : int array;
    mutable heap_fin : int array;
    mutable heap_slot : int array;
    mutable n : int;
    mutable free : int array;
    mutable n_free : int;
  }

  let create () =
    {
      wid = [||];
      fi = [||];
      finish = [||];
      mshrs = [||];
      heap_fin = [||];
      heap_slot = [||];
      n = 0;
      free = [||];
      n_free = 0;
    }

  let grow p =
    let cap = Array.length p.wid in
    let cap' = max 16 (2 * cap) in
    let extend a = Array.append a (Array.make (cap' - cap) 0) in
    p.wid <- extend p.wid;
    p.fi <- extend p.fi;
    p.finish <- extend p.finish;
    p.mshrs <- extend p.mshrs;
    p.heap_fin <- extend p.heap_fin;
    p.heap_slot <- extend p.heap_slot;
    p.free <- extend p.free;
    for s = cap' - 1 downto cap do
      p.free.(p.n_free) <- s;
      p.n_free <- p.n_free + 1
    done

  (* Move the heap entry ([fin], [slot]) from hole [i] up or down to its
     place. *)
  let rec sift_up p i fin slot =
    let parent = (i - 1) / 2 in
    if i > 0 && p.heap_fin.(parent) > fin then begin
      p.heap_fin.(i) <- p.heap_fin.(parent);
      p.heap_slot.(i) <- p.heap_slot.(parent);
      sift_up p parent fin slot
    end
    else begin
      p.heap_fin.(i) <- fin;
      p.heap_slot.(i) <- slot
    end

  let rec sift_down p i fin slot =
    let l = (2 * i) + 1 in
    let c =
      if l + 1 < p.n && p.heap_fin.(l + 1) < p.heap_fin.(l) then l + 1 else l
    in
    if c < p.n && p.heap_fin.(c) < fin then begin
      p.heap_fin.(i) <- p.heap_fin.(c);
      p.heap_slot.(i) <- p.heap_slot.(c);
      sift_down p c fin slot
    end
    else begin
      p.heap_fin.(i) <- fin;
      p.heap_slot.(i) <- slot
    end

  let add p ~wid ~fi ~finish ~mshrs =
    if p.n_free = 0 then grow p;
    p.n_free <- p.n_free - 1;
    let s = p.free.(p.n_free) in
    p.wid.(s) <- wid;
    p.fi.(s) <- fi;
    p.finish.(s) <- finish;
    p.mshrs.(s) <- mshrs;
    p.n <- p.n + 1;
    sift_up p (p.n - 1) finish s;
    s

  let next_finish p = if p.n = 0 then max_int else p.heap_fin.(0)

  (* Remove the earliest op; its slot stays readable until the next
     [add]. *)
  let pop p =
    let s = p.heap_slot.(0) in
    p.n <- p.n - 1;
    if p.n > 0 then sift_down p 0 p.heap_fin.(p.n) p.heap_slot.(p.n);
    p.free.(p.n_free) <- s;
    p.n_free <- p.n_free + 1;
    s

  (* Restore the heap after [finish] entries were patched. *)
  let reheap p =
    for i = 0 to p.n - 1 do
      p.heap_fin.(i) <- p.finish.(p.heap_slot.(i))
    done;
    for i = (p.n / 2) - 1 downto 0 do
      sift_down p i p.heap_fin.(i) p.heap_slot.(i)
    done
end

(* Warp-state tests ([warp_done], [warp_drained] restate {!Engine}'s so
   the compiler can inline them on the per-cycle paths: dune's default
   (dev) profile compiles each module with [-opaque], which rules out
   inlining across modules) and the I-buffer head. *)
let warp_done (w : Engine.wctx) = w.Engine.fi >= w.Engine.trace.Record.n

let warp_drained (w : Engine.wctx) = w.Engine.ib_len = 0 && warp_done w

let head_fi (w : Engine.wctx) = w.Engine.ib_fi.(w.Engine.ib_head)

(* [Record.idx] and [Record.active], restated for the same reason. *)
let idx_mask = (1 lsl Record.idx_bits) - 1

let op_idx (trace : Record.warp) fi = trace.Record.ops.(3 * fi) land idx_mask

let op_active (trace : Record.warp) fi = trace.Record.ops.((3 * fi) + 1)

let head_idx (w : Engine.wctx) = op_idx w.Engine.trace (head_fi w)

let head_cycle (w : Engine.wctx) = w.Engine.ib_cycle.(w.Engine.ib_head)

type t = {
  cfg : Config.t;
  kinfo : Kinfo.t;
  stats : Stats.t;
  engine : Engine.t;
  dram : Mem_model.Dram.t;
  l1 : Mem_model.L1.t;
  icache : Mem_model.L1.t;
  collectors : int array;  (* per-unit busy-until cycle *)
  slots : slot_state array;
  mutable resident : int;  (* occupied slots *)
  warps : Engine.wctx option array;  (* wid = slot * warps_per_tb + lane *)
  warps_per_tb : int;
  fly : Inflight.t;
  mutable next_wb : int;  (* earliest in-flight finish; max_int if none *)
  scratch : Mem_model.scratch;  (* coalescer / bank-conflict workspace *)
  (* Issue-stage structural budgets, refilled at the top of each issue
     stage. *)
  mutable mem_left : int;
  mutable sfu_left : int;
  mutable fetch_ptr : int;
  (* True when this cycle's fetch phase advanced any warp (fi, ibuf or
     fetch_ready_at changed). Fetch runs after the engine's cycle_skip,
     so its quiescence snapshot is stale whenever this is set. *)
  mutable fetch_mutated : bool;
  greedy : int array;  (* per scheduler: preferred wid, or -1 *)
  (* Per scheduler, its resident warps' wids ([wid mod num_schedulers =
     sched]) in ascending order, [sched_n] of them: the GTO scan order
     without the empty slots. Rebuilt at TB launch and retirement. *)
  sched_wid : int array array;
  sched_n : int array;
  (* Per wid, the fetch cycle of the I-buffer head when the warp could
     issue it (buffer non-empty, not parked at a barrier), else max_int:
     the schedulers' first test, one int per warp. Kept current by
     [refresh_head] wherever the I-buffer or [at_barrier] changes. *)
  head_at : int array;
  (* Per wid, whether the I-buffer head clears the scoreboard: 1 yes, 0
     no, -1 not known. A warp's pending writes only fall at its
     writebacks and rise at its issues, which also move the head, so an
     answer holds until [retire] or [refresh_head] forgets it. *)
  ready_memo : int array;
  mutable cycle : int;
  bank_use : int array;  (* per-RF-bank reads scheduled this cycle *)
  rf_shift : int;  (* [Mem_model.shift_of rf_banks] *)
  sm_id : int;
  sink : Obs.Sink.t;
  tracing : bool;  (* [sink] is enabled *)
  attr : Obs.Attrib.t;
  ledger : Obs.Ledger.t;
  pcstat : Obs.Pcstat.t option;
  series : Obs.Series.t option;
  mutable issue_slots_used : int;  (* issues + drops this cycle *)
  mutable active_pc : int;  (* first PC issued/dropped this cycle *)
  (* The current cycle's stall classification ([classify_cycle]): its
     Attrib bucket and blocking PC (-1 = the none-row). *)
  mutable cls_bucket : Obs.Attrib.bucket;
  mutable cls_pc : int;
  mutable last_barrier_pc : int;  (* most recent barrier-setting PC *)
  (* Shared-memory bank-conflict replay port (smem_banks > 0): the port
     is busy serializing replays through [smem_replay_until], and
     [smem_replay_pc] names the occupying access for stall blame. Both
     stay at their initial values when the knob is off. *)
  mutable smem_replay_until : int;
  mutable smem_replay_pc : int;
  (* Sharded cycle loop (sm_domains > 1) bookkeeping; all dormant in the
     serial loop. [dram_defer] routes issue-stage DRAM requests into a
     local queue, [0 .. n_dq-1] of [dq_now]/[dq_ntxns]/[dq_slot] in issue
     order, instead of the shared channel: the [~now] and [~ntxns] the
     issue site would have passed, and the in-flight slot whose
     placeholder finish the replay patches (-1 for stores, whose
     pipeline latency does not depend on the channel). [dram_patch] is
     the request between [dram_request] and the [add_inflight] it must
     be bound to (-1 = none), and [dq_pos] is [commit_epoch]'s merge
     cursor. The remaining fields let the epoch driver reproduce serial
     TB dispatch and the deadlock watchdog exactly: [tbs_retired] is a monotone retirement counter
     (a worker pauses at a retirement so the driver can replay the
     serial dispatch scan), [last_wb_cycle] / [last_progress] timestamp
     the most recent writeback and progress-token movement. *)
  dram_defer : bool;
  mutable dq_now : int array;
  mutable dq_ntxns : int array;
  mutable dq_slot : int array;
  mutable n_dq : int;
  mutable dq_pos : int;
  mutable dram_patch : int;
  mutable tbs_retired : int;
  mutable last_wb_cycle : int;
  mutable last_progress : int;
  mutable progress_snapshot : int;
}

(* Counters snapshotted into the per-interval time-series; the order here
   is the column order of the CSV/JSON exports. *)
let sample_names =
  [ "issued"; "fetched"; "skipped_prefetch"; "dropped_issue"; "icache_misses";
    "l1_accesses"; "l1_misses"; "dram_transactions"; "barrier_stall_cycles";
    "darsie_sync_stalls" ]

let sample_snapshot (s : Stats.t) =
  [|
    s.Stats.issued; s.Stats.fetched; s.Stats.skipped_prefetch;
    s.Stats.dropped_issue; s.Stats.icache_misses; s.Stats.l1_accesses;
    s.Stats.l1_misses; s.Stats.dram_transactions;
    s.Stats.barrier_stall_cycles; s.Stats.darsie_sync_stalls;
  |]

let create ?(sm_id = 0) ?(sink = Obs.Sink.null) ?series ?pcstat
    ?(deferred_dram = false) cfg kinfo factory dram ~slots ~warps_per_tb =
  let stats = Stats.create () in
  let engine = factory kinfo cfg stats in
  (* The skip ledger is always on (a handful of int arrays); the engine
     gets a handle so its internal pre-fetch skips can record fates. *)
  let ledger = Obs.Ledger.create ~n:(Array.length kinfo.Kinfo.unit_of) in
  engine.Engine.set_ledger ledger;
  {
    cfg;
    kinfo;
    stats;
    engine;
    dram;
    l1 =
      Mem_model.L1.create ~bytes:cfg.Config.l1_bytes ~assoc:cfg.Config.l1_assoc
        ~line:cfg.Config.l1_line;
    icache =
      Mem_model.L1.create ~bytes:cfg.Config.icache_bytes ~assoc:4
        ~line:cfg.Config.icache_line;
    collectors = Array.make cfg.Config.collector_units 0;
    slots =
      Array.init slots (fun _ ->
          {
            occupied = false;
            tb_id = -1;
            inflight_ops = 0;
            barrier_release_at = -1;
            n_at_barrier = 0;
          });
    resident = 0;
    warps = Array.make (slots * warps_per_tb) None;
    warps_per_tb;
    fly = Inflight.create ();
    next_wb = max_int;
    scratch = Mem_model.scratch ();
    mem_left = 0;
    sfu_left = 0;
    fetch_ptr = 0;
    fetch_mutated = false;
    greedy = Array.make cfg.Config.num_schedulers (-1);
    sched_wid =
      Array.make_matrix cfg.Config.num_schedulers
        (((slots * warps_per_tb) + cfg.Config.num_schedulers - 1)
         / max 1 cfg.Config.num_schedulers)
        0;
    sched_n = Array.make cfg.Config.num_schedulers 0;
    head_at = Array.make (slots * warps_per_tb) max_int;
    ready_memo = Array.make (slots * warps_per_tb) (-1);
    cycle = 0;
    bank_use = Array.make cfg.Config.rf_banks 0;
    rf_shift = Mem_model.shift_of cfg.Config.rf_banks;
    sm_id;
    sink;
    tracing = Obs.Sink.enabled sink;
    attr = Obs.Attrib.create ();
    ledger;
    pcstat;
    series;
    issue_slots_used = 0;
    active_pc = -1;
    cls_bucket = Obs.Attrib.Idle;
    cls_pc = -1;
    last_barrier_pc = -1;
    smem_replay_until = 0;
    smem_replay_pc = -1;
    dram_defer = deferred_dram;
    dq_now = [||];
    dq_ntxns = [||];
    dq_slot = [||];
    n_dq = 0;
    dq_pos = 0;
    dram_patch = -1;
    tbs_retired = 0;
    last_wb_cycle = 0;
    (* 1, not 0: the serial watchdog's progress ref starts one compare
       behind the token (initialized to -1), so even a machine that
       never progresses is only charged idle from cycle 2 on — the same
       lag this seed reproduces in the barrier-time idle formula. *)
    last_progress = 1;
    progress_snapshot = 0;
  }

let emit t ~warp kind =
  if t.tracing then
    Obs.Sink.emit t.sink
      { Obs.Event.cycle = t.cycle; sm = t.sm_id; warp; kind }

let refresh_head t (w : Engine.wctx) =
  t.ready_memo.(w.Engine.wid) <- -1;
  t.head_at.(w.Engine.wid) <-
    (if w.Engine.ib_len > 0 && not w.Engine.at_barrier then head_cycle w
     else max_int)

let rebuild_sched t =
  let ns = Array.length t.sched_n in
  Array.fill t.sched_n 0 ns 0;
  Array.iteri
    (fun wid -> function
      | Some w ->
        refresh_head t w;
        let s = wid mod ns in
        t.sched_wid.(s).(t.sched_n.(s)) <- wid;
        t.sched_n.(s) <- t.sched_n.(s) + 1
      | None -> t.head_at.(wid) <- max_int)
    t.warps

let can_accept t = t.resident < Array.length t.slots

let launch_tb t ~tb_id ~traces =
  let slot_idx =
    let rec find i =
      if i >= Array.length t.slots then
        invalid_arg "Sm.launch_tb: no free slot"
      else if not t.slots.(i).occupied then i
      else find (i + 1)
    in
    find 0
  in
  let slot = t.slots.(slot_idx) in
  slot.occupied <- true;
  t.resident <- t.resident + 1;
  slot.tb_id <- tb_id;
  slot.inflight_ops <- 0;
  slot.barrier_release_at <- -1;
  slot.n_at_barrier <- 0;
  if Array.length traces > t.warps_per_tb then
    invalid_arg "Sm.launch_tb: threadblock has too many warps for this SM";
  let nregs = max t.kinfo.Kinfo.kernel.Darsie_isa.Kernel.nregs 1 in
  let depth = max 1 t.cfg.Config.ibuf_depth in
  let warps =
    Array.init (Array.length traces) (fun w ->
        {
          Engine.wid = (slot_idx * t.warps_per_tb) + w;
          tb_slot = slot_idx;
          tb_id;
          warp_in_tb = w;
          trace = traces.(w);
          fi = 0;
          ib_fi = Array.make depth 0;
          ib_cycle = Array.make depth 0;
          ib_head = 0;
          ib_len = 0;
          pending = Array.make nregs 0;
          pending_count = 0;
          at_barrier = false;
          finished = false;
          last_issued = 0;
          fetch_ready_at = 0;
          mem_inflight = 0;
          mshr_used = 0;
          fetch_ok = true;
          parked_at = -1;
          skip_stall = 0;
          drop_reason = 0;
          gave_up_at = -1;
        })
  in
  (* Independent eligible-occurrence count for the skip ledger: scan the
     installed traces once so the conservation check does not depend on
     the fetch-path bookkeeping it verifies. *)
  Array.iter
    (fun trace ->
      for i = 0 to Record.length trace - 1 do
        let idx = Record.idx trace i in
        if t.kinfo.Kinfo.marked_eligible.(idx) then
          Obs.Ledger.note_expected t.ledger ~pc:idx
      done)
    traces;
  Array.iteri
    (fun w ctx -> t.warps.((slot_idx * t.warps_per_tb) + w) <- Some ctx)
    warps;
  for w = Array.length traces to t.warps_per_tb - 1 do
    t.warps.((slot_idx * t.warps_per_tb) + w) <- None
  done;
  rebuild_sched t;
  emit t ~warp:tb_id Obs.Event.Tb_launch;
  t.engine.Engine.on_tb_launch ~tb_slot:slot_idx ~warps

let busy t = t.fly.Inflight.n > 0 || t.resident > 0

let stats t = t.stats

let engine_name t = t.engine.Engine.name

let cycle t = t.cycle

let attribution t = t.attr

let ledger t = t.ledger

let pcstat t = t.pcstat

let skip_telemetry t = t.engine.Engine.pc_telemetry ()

let series t = t.series

let inflight_count t = t.fly.Inflight.n

(* Monotone counter that moves iff the pipeline did something this cycle:
   fetched, issued, dropped at issue or skipped pre-fetch. The watchdog
   declares deadlock when it freezes with nothing in flight. *)
let progress_token t =
  t.stats.Stats.fetched + t.stats.Stats.issued + t.stats.Stats.dropped_issue
  + t.stats.Stats.skipped_prefetch

let debug_state t = t.engine.Engine.debug_state ()

let warp_snapshots t =
  let base = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some (w : Engine.wctx) ->
        let len = Record.length w.Engine.trace in
        let pc =
          if w.Engine.fi < len then op_idx w.Engine.trace w.Engine.fi else -1
        in
        let drained = warp_drained w in
        let state =
          if drained && w.Engine.pending_count = 0 then "finished"
          else if w.Engine.at_barrier then "at_barrier"
          else if w.Engine.ib_len = 0 && not (t.engine.Engine.can_fetch w)
          then "fetch_gated"
          else "runnable"
        in
        let snap =
          {
            Darsie_check.Sim_error.ws_sm = t.sm_id;
            ws_warp = w.Engine.wid;
            ws_tb = w.Engine.tb_id;
            ws_pc = pc;
            ws_state = state;
            ws_detail =
              Printf.sprintf "trace %d/%d, ibuf %d, pending %d" w.Engine.fi
                len
                w.Engine.ib_len
                w.Engine.pending_count;
          }
        in
        base := snap :: !base)
    t.warps;
  List.rev !base

(* Flush the trailing partial sampling interval (no-op when the run ended
   exactly on a boundary, or when sampling is off), and fold the engine's
   per-PC skip telemetry into the profile: DARSIE advances trace cursors
   inside its own skip phase, so those eliminations never pass through
   the fetch stage the SM instruments. *)
let finalize t =
  (match t.series with
  | Some s -> Obs.Series.record s ~cycle:t.cycle (sample_snapshot t.stats)
  | None -> ());
  match t.pcstat with
  | Some p ->
    List.iter
      (fun (pc, (e : Obs.Pcstat.skip_entry)) ->
        Obs.Pcstat.note_skips p ~pc e.Obs.Pcstat.sk_hits)
      (skip_telemetry t)
  | None -> ()

let imin (a : int) b = if a < b then a else b

let imax (a : int) b = if a > b then a else b

(* Set bits per byte value. *)
let byte_pop =
  Array.init 256 (fun b ->
      let rec go m = if m = 0 then 0 else (m land 1) + go (m lsr 1) in
      go b)

let rec popcount m =
  if m = 0 then 0 else byte_pop.(m land 0xff) + popcount (m lsr 8)

(* ------------------------------------------------------------------ *)
(* Writeback                                                           *)
(* ------------------------------------------------------------------ *)

let is_mem_class t idx =
  match t.kinfo.Kinfo.unit_of.(idx) with
  | Kinfo.Mem_global | Kinfo.Mem_shared -> true
  | Kinfo.Alu | Kinfo.Sfu | Kinfo.Ctrl -> false

(* Record the head op of [w]'s I-buffer entering the pipeline between
   issue and writeback; every insertion site must go through here so
   the maintained counters ([next_wb], per-warp [mem_inflight],
   [mshr_used]) stay consistent with the pool. [mshrs] is the number of
   MSHR entries the op allocated (missed lines of a gated global load; 0
   everywhere else). Returns the op's pool slot. *)
let add_inflight t (w : Engine.wctx) ~fi ~finish ~mshrs =
  let s = Inflight.add t.fly ~wid:w.Engine.wid ~fi ~finish ~mshrs in
  if finish < t.next_wb then t.next_wb <- finish;
  if mshrs > 0 then w.Engine.mshr_used <- w.Engine.mshr_used + mshrs;
  if is_mem_class t (op_idx w.Engine.trace fi) then
    w.Engine.mem_inflight <- w.Engine.mem_inflight + 1;
  s

let warp_of t wid = match t.warps.(wid) with Some w -> w | None -> no_warp

let retire t s =
  let fly = t.fly in
  let w = warp_of t fly.Inflight.wid.(s) in
  t.ready_memo.(w.Engine.wid) <- -1;
  let fi = fly.Inflight.fi.(s) in
  let idx = op_idx w.Engine.trace fi in
  (match t.kinfo.Kinfo.dst_reg.(idx) with
  | Some d ->
    w.Engine.pending.(d) <- w.Engine.pending.(d) - 1;
    w.Engine.pending_count <- w.Engine.pending_count - 1;
    t.stats.Stats.rf_writes <- t.stats.Stats.rf_writes + 1
  | None -> ());
  t.slots.(w.Engine.tb_slot).inflight_ops <-
    t.slots.(w.Engine.tb_slot).inflight_ops - 1;
  let mshrs = fly.Inflight.mshrs.(s) in
  if mshrs > 0 then w.Engine.mshr_used <- w.Engine.mshr_used - mshrs;
  if is_mem_class t idx then
    w.Engine.mem_inflight <- w.Engine.mem_inflight - 1;
  t.engine.Engine.on_writeback ~cycle:t.cycle w fi

(* Completions within one cycle commute (register, slot and MSHR counts
   are sums; the engines' writeback hooks touch per-(PC, occurrence)
   state), so the heap's tie order is not observable. *)
let writeback t =
  if t.next_wb <= t.cycle then begin
    (* [next_wb] is the minimum pending finish, so entering here means at
       least one operation completes this cycle. *)
    t.last_wb_cycle <- t.cycle;
    while Inflight.next_finish t.fly <= t.cycle do
      retire t (Inflight.pop t.fly)
    done;
    t.next_wb <- Inflight.next_finish t.fly
  end

(* ------------------------------------------------------------------ *)
(* Barrier release and TB retirement                                   *)
(* ------------------------------------------------------------------ *)

(* Barrier presence is tracked incrementally: [slot.n_at_barrier] is
   bumped when a Ctrl issue parks a warp at a barrier and zeroed on
   release and TB launch, so the per-cycle scans the old code did are a
   single integer test. Debug builds cross-check the counter against a
   recount wherever it is bumped. *)
let count_at_barrier t slot_idx =
  let base = slot_idx * t.warps_per_tb in
  let n = ref 0 in
  for k = 0 to t.warps_per_tb - 1 do
    match t.warps.(base + k) with
    | Some w when w.Engine.at_barrier -> incr n
    | _ -> ()
  done;
  !n

let barriers_and_retirement t =
  let wpt = t.warps_per_tb in
  for slot_idx = 0 to Array.length t.slots - 1 do
    let slot = t.slots.(slot_idx) in
    if slot.occupied then begin
      let base = slot_idx * wpt in
      if slot.n_at_barrier > 0 then begin
        t.stats.Stats.barrier_stall_cycles <-
          t.stats.Stats.barrier_stall_cycles + slot.n_at_barrier;
        (* The barrier network takes barrier_lat cycles from last-warp
           arrival to release. *)
        if slot.barrier_release_at < 0 then begin
          let all_arrived = ref true in
          for k = 0 to wpt - 1 do
            match t.warps.(base + k) with
            | Some w when (not w.Engine.at_barrier) && not (warp_drained w) ->
              all_arrived := false
            | _ -> ()
          done;
          if !all_arrived then
            slot.barrier_release_at <- t.cycle + t.cfg.Config.barrier_lat
        end;
        if slot.barrier_release_at >= 0 && t.cycle >= slot.barrier_release_at
        then begin
          for k = 0 to wpt - 1 do
            match t.warps.(base + k) with
            | Some w ->
              w.Engine.at_barrier <- false;
              refresh_head t w
            | None -> ()
          done;
          slot.n_at_barrier <- 0;
          slot.barrier_release_at <- -1;
          emit t ~warp:slot_idx Obs.Event.Barrier_release
        end
      end;
      (* Retirement: all warps drained, nothing in flight, none parked
         at a barrier. *)
      if slot.inflight_ops = 0 && slot.n_at_barrier = 0 then begin
        let all_drained = ref true in
        for k = 0 to wpt - 1 do
          match t.warps.(base + k) with
          | Some w when not (warp_drained w) -> all_drained := false
          | _ -> ()
        done;
        if !all_drained then begin
          slot.occupied <- false;
          t.resident <- t.resident - 1;
          for k = 0 to wpt - 1 do
            t.warps.(base + k) <- None
          done;
          rebuild_sched t;
          t.tbs_retired <- t.tbs_retired + 1;
          emit t ~warp:slot_idx Obs.Event.Tb_finish;
          t.engine.Engine.on_tb_finish ~tb_slot:slot_idx
        end
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Issue                                                               *)
(* ------------------------------------------------------------------ *)

(* Deterministic architectural register -> bank map; renamed (DARSIE)
   registers live in a strided region of the same banks, which is how
   follower reads create extra conflicts. *)
let bank_of t (w : Engine.wctx) reg =
  Mem_model.mod_by ~shift:t.rf_shift t.cfg.Config.rf_banks
    ((w.Engine.wid * t.kinfo.Kinfo.kernel.Darsie_isa.Kernel.nregs) + reg)

let rec srcs_ready pending = function
  | [] -> true
  | r :: rest -> pending.(r) = 0 && srcs_ready pending rest

let scoreboard_ready (w : Engine.wctx) kinfo idx =
  srcs_ready w.Engine.pending kinfo.Kinfo.src_regs.(idx)
  &&
  match kinfo.Kinfo.dst_reg.(idx) with
  | Some d -> w.Engine.pending.(d) = 0
  | None -> true

(* [scoreboard_ready] for [w]'s I-buffer head (which must exist),
   remembered in [ready_memo]. *)
let head_ready t (w : Engine.wctx) =
  match t.ready_memo.(w.Engine.wid) with
  | 1 -> true
  | 0 -> false
  | _ ->
    let r = scoreboard_ready w t.kinfo (head_idx w) in
    t.ready_memo.(w.Engine.wid) <- (if r then 1 else 0);
    r

(* Structural memory-limit gate for the head instruction at [idx] of
   warp [w]: true when a configured fidelity knob blocks issue this
   cycle — the shared port is still serializing a bank-conflict replay
   (smem_banks > 0), or a global load finds no free MSHR (mshrs > 0).
   Both knobs default to 0, making this a constant [false] and keeping
   the default model bit-identical. Cycles lost here are charged to the
   [Mem_struct] bucket by [classify_stall]. *)
let mem_struct_blocked t (w : Engine.wctx) idx =
  let cfg = t.cfg in
  match t.kinfo.Kinfo.unit_of.(idx) with
  | Kinfo.Mem_shared -> cfg.Config.smem_banks > 0 && t.cycle <= t.smem_replay_until
  | Kinfo.Mem_global ->
    cfg.Config.mshrs > 0
    && (not t.kinfo.Kinfo.is_store.(idx))
    && (not t.kinfo.Kinfo.is_atomic.(idx))
    && w.Engine.mshr_used >= cfg.Config.mshrs
  | Kinfo.Alu | Kinfo.Sfu | Kinfo.Ctrl -> false

(* One DRAM channel access from the issue stage. The serial loop
   consults the shared channel directly. A sharded SM defers: the
   request is queued locally (no cross-domain traffic) under a
   [max_int] placeholder completion, and the epoch barrier replays
   every SM's queue against the real channel in canonical order
   ([commit_epoch]), patching the in-flight records. Sound because the
   epoch length is capped at [l1_lat + dram_lat]: a request issued
   inside an epoch finishes strictly after it, so a placeholder is
   never consulted before it is patched. *)
let dram_request t ~now ~ntxns =
  if not t.dram_defer then Mem_model.Dram.request t.dram ~now ~ntxns
  else begin
    if t.n_dq = Array.length t.dq_now then begin
      let extend a = Array.append a (Array.make (max 16 t.n_dq) 0) in
      t.dq_now <- extend t.dq_now;
      t.dq_ntxns <- extend t.dq_ntxns;
      t.dq_slot <- extend t.dq_slot
    end;
    t.dq_now.(t.n_dq) <- now;
    t.dq_ntxns.(t.n_dq) <- ntxns;
    t.dq_slot.(t.n_dq) <- -1;
    t.dram_patch <- t.n_dq;
    t.n_dq <- t.n_dq + 1;
    max_int
  end

(* First free operand-collector unit, or -1 when all are busy. *)
let free_collector t =
  let u = ref 0 in
  let n = Array.length t.collectors in
  while !u < n && t.collectors.(!u) > t.cycle do
    incr u
  done;
  if !u < n then !u else -1

(* Read the source registers' banks; returns the number of reads that
   conflicted with an earlier read of the same bank this cycle. *)
let rec read_banks t w conflicts = function
  | [] -> conflicts
  | r :: rest ->
    let b = bank_of t w r in
    let c = if t.bank_use.(b) > 0 then conflicts + 1 else conflicts in
    t.bank_use.(b) <- t.bank_use.(b) + 1;
    t.stats.Stats.rf_reads <- t.stats.Stats.rf_reads + 1;
    read_banks t w c rest

let count_elim (stats : Stats.t) = function
  | Darsie_compiler.Marking.Uniform ->
    stats.Stats.elim_uniform <- stats.Stats.elim_uniform + 1
  | Darsie_compiler.Marking.Affine ->
    stats.Stats.elim_affine <- stats.Stats.elim_affine + 1
  | Darsie_compiler.Marking.Unstructured | Darsie_compiler.Marking.Varying ->
    stats.Stats.elim_unstructured <- stats.Stats.elim_unstructured + 1

(* Decode op [fi]'s access vector into the scratch's address buffer,
   which is then [Mem_model.addresses t.scratch len]; returns [len]. *)
let load_accesses t (w : Engine.wctx) fi =
  let trace = w.Engine.trace in
  Record.decode_accesses trace fi
    (Mem_model.addresses t.scratch (Record.access_count trace fi))

(* Issue one op from warp [w]; returns false if the head op cannot issue. *)
let try_issue_head t (w : Engine.wctx) =
  if w.Engine.at_barrier || w.Engine.ib_len = 0 then false
  else begin
    let fi = head_fi w in
    let idx = op_idx w.Engine.trace fi in
    let kinfo = t.kinfo in
    let unit_class = kinfo.Kinfo.unit_of.(idx) in
    let structural_ok =
      match unit_class with
      | Kinfo.Mem_global | Kinfo.Mem_shared -> t.mem_left > 0
      | Kinfo.Sfu -> t.sfu_left > 0
      | Kinfo.Alu | Kinfo.Ctrl -> true
    in
    (* operand collection: instructions reading registers need a free
       operand-collector unit ([-2]: none needed) *)
    let collector = if kinfo.Kinfo.nsrcs.(idx) = 0 then -2 else free_collector t in
    if head_cycle w >= t.cycle || not structural_ok || collector = -1
       || (not (head_ready t w))
       || mem_struct_blocked t w idx
    then false
    else begin
      Engine.ibuf_pop w;
      let stats = t.stats in
      let cfg = t.cfg in
      let mshrs_alloc = ref 0 in
      w.Engine.last_issued <- t.cycle;
      t.issue_slots_used <- t.issue_slots_used + 1;
      if t.issue_slots_used = 1 then t.active_pc <- idx;
      (match t.engine.Engine.on_issue ~cycle:t.cycle w fi with
      | Engine.Drop ->
        (* Eliminated at issue (UV): consumed fetch/decode and an issue
           slot but no execution resources; the reuse-buffer value is
           available to dependents next cycle. *)
        stats.Stats.dropped_issue <- stats.Stats.dropped_issue + 1;
        (match t.pcstat with Some p -> Obs.Pcstat.note_drop p ~pc:idx | None -> ());
        emit t ~warp:w.Engine.wid Obs.Event.Drop_at_issue;
        count_elim stats kinfo.Kinfo.shape.(idx);
        (match kinfo.Kinfo.dst_reg.(idx) with
        | Some d ->
          w.Engine.pending.(d) <- w.Engine.pending.(d) + 1;
          w.Engine.pending_count <- w.Engine.pending_count + 1;
          t.slots.(w.Engine.tb_slot).inflight_ops <-
            t.slots.(w.Engine.tb_slot).inflight_ops + 1;
          ignore (add_inflight t w ~fi ~finish:(t.cycle + 1) ~mshrs:0)
        | None -> ())
      | Engine.Execute ->
        stats.Stats.issued <- stats.Stats.issued + 1;
        (match t.pcstat with Some p -> Obs.Pcstat.note_issue p ~pc:idx | None -> ());
        stats.Stats.executed_threads <-
          stats.Stats.executed_threads + popcount (op_active w.Engine.trace fi);
        emit t ~warp:w.Engine.wid Obs.Event.Issue;
        (* Register file reads and bank conflicts. *)
        let conflicts = read_banks t w 0 kinfo.Kinfo.src_regs.(idx) in
        stats.Stats.rf_bank_conflicts <- stats.Stats.rf_bank_conflicts + conflicts;
        if collector >= 0 then t.collectors.(collector) <- t.cycle + 2 + conflicts;
        let finish =
          match unit_class with
          | Kinfo.Alu ->
            stats.Stats.alu_ops <- stats.Stats.alu_ops + 1;
            t.cycle + cfg.Config.alu_lat + conflicts
          | Kinfo.Ctrl ->
            if kinfo.Kinfo.is_barrier.(idx) then w.Engine.at_barrier <- true
            else if kinfo.Kinfo.is_branch.(idx) && cfg.Config.sync_at_branches
            then w.Engine.at_barrier <- true;
            if w.Engine.at_barrier then begin
              (* the issue guard rejects warps already at a barrier, so
                 this transition is always false -> true *)
              t.slots.(w.Engine.tb_slot).n_at_barrier <-
                t.slots.(w.Engine.tb_slot).n_at_barrier + 1;
              assert (
                t.slots.(w.Engine.tb_slot).n_at_barrier
                = count_at_barrier t w.Engine.tb_slot);
              t.last_barrier_pc <- idx;
              emit t ~warp:w.Engine.wid Obs.Event.Barrier_arrive
            end;
            t.cycle + cfg.Config.alu_lat
          | Kinfo.Sfu ->
            t.sfu_left <- t.sfu_left - 1;
            stats.Stats.sfu_ops <- stats.Stats.sfu_ops + 1;
            t.cycle + cfg.Config.sfu_lat + conflicts
          | Kinfo.Mem_shared ->
            t.mem_left <- t.mem_left - 1;
            stats.Stats.mem_ops <- stats.Stats.mem_ops + 1;
            emit t ~warp:w.Engine.wid Obs.Event.Mem_access;
            let banks =
              if cfg.Config.smem_banks > 0 then cfg.Config.smem_banks
              else cfg.Config.warp_size
            in
            let len = load_accesses t w fi in
            let sc =
              Mem_model.shared_conflicts t.scratch ~banks
                (Mem_model.addresses t.scratch len) ~len
            in
            stats.Stats.shared_accesses <- stats.Stats.shared_accesses + 1 + sc;
            stats.Stats.shared_bank_conflicts <-
              stats.Stats.shared_bank_conflicts + sc;
            (* Conflict replay: the shared port stays busy while the
               [sc] replay passes serialize; the gate above keeps
               further shared accesses out until it frees. *)
            if cfg.Config.smem_banks > 0 && sc > 0 then begin
              t.smem_replay_until <- t.cycle + sc;
              t.smem_replay_pc <- idx;
              stats.Stats.smem_replay_cycles <- stats.Stats.smem_replay_cycles + sc
            end;
            t.cycle + cfg.Config.shared_lat + sc + conflicts
          | Kinfo.Mem_global ->
            t.mem_left <- t.mem_left - 1;
            stats.Stats.mem_ops <- stats.Stats.mem_ops + 1;
            emit t ~warp:w.Engine.wid Obs.Event.Mem_access;
            let nlines =
              let len = load_accesses t w fi in
              Mem_model.coalesce t.scratch ~line_bytes:cfg.Config.l1_line
                (Mem_model.addresses t.scratch len) ~len
            in
            if kinfo.Kinfo.is_atomic.(idx) then begin
              (* Atomics bypass the L1 and serialize at DRAM. *)
              t.engine.Engine.on_store ~atomic:true w;
              stats.Stats.dram_transactions <- stats.Stats.dram_transactions + nlines;
              emit t ~warp:w.Engine.wid Obs.Event.Dram_txn;
              dram_request t ~now:(t.cycle + cfg.Config.l1_lat) ~ntxns:nlines
            end
            else if kinfo.Kinfo.is_store.(idx) then begin
              (* Write-through, no-allocate: stores drain to DRAM and do
                 not stall the pipeline. *)
              t.engine.Engine.on_store ~atomic:false w;
              stats.Stats.l1_accesses <- stats.Stats.l1_accesses + nlines;
              stats.Stats.dram_transactions <- stats.Stats.dram_transactions + nlines;
              emit t ~warp:w.Engine.wid Obs.Event.Dram_txn;
              ignore
                (dram_request t ~now:(t.cycle + cfg.Config.l1_lat) ~ntxns:nlines);
              (* the store's own finish is latency-independent of DRAM;
                 the queued request only matters for channel ordering *)
              t.dram_patch <- -1;
              t.cycle + cfg.Config.alu_lat
            end
            else begin
              stats.Stats.l1_accesses <- stats.Stats.l1_accesses + nlines;
              let misses = ref 0 in
              for k = 0 to nlines - 1 do
                if not (Mem_model.L1.access t.l1 (Mem_model.scratch_get t.scratch k))
                then incr misses
              done;
              let misses = !misses in
              stats.Stats.l1_misses <- stats.Stats.l1_misses + misses;
              if misses = 0 then t.cycle + cfg.Config.l1_lat + nlines - 1 + conflicts
              else begin
                (* the gate guaranteed at least one free MSHR; the
                   load allocates one per missed line, released at
                   writeback *)
                if cfg.Config.mshrs > 0 then mshrs_alloc := misses;
                stats.Stats.dram_transactions <- stats.Stats.dram_transactions + misses;
                emit t ~warp:w.Engine.wid Obs.Event.L1_miss;
                emit t ~warp:w.Engine.wid Obs.Event.Dram_txn;
                dram_request t ~now:(t.cycle + cfg.Config.l1_lat) ~ntxns:misses
              end
            end
        in
        (match (unit_class, t.pcstat) with
        | (Kinfo.Mem_global | Kinfo.Mem_shared), Some p ->
          Obs.Pcstat.note_mem_latency p ~pc:idx ~lat:(finish - t.cycle)
        | _ -> ());
        (* Track every executed op for TB retirement; register release
           happens at writeback only for ops that write one. *)
        (match kinfo.Kinfo.dst_reg.(idx) with
        | Some d ->
          w.Engine.pending.(d) <- w.Engine.pending.(d) + 1;
          w.Engine.pending_count <- w.Engine.pending_count + 1
        | None -> ());
        t.slots.(w.Engine.tb_slot).inflight_ops <-
          t.slots.(w.Engine.tb_slot).inflight_ops + 1;
        let slot = add_inflight t w ~fi ~finish ~mshrs:!mshrs_alloc in
        (* Deferred DRAM: bind the queued request to the in-flight
           slot just added so [commit_epoch] can patch its real
           completion cycle in. *)
        if t.dram_patch >= 0 then begin
          t.dq_slot.(t.dram_patch) <- slot;
          t.dram_patch <- -1
        end);
      refresh_head t w;
      true
    end
  end

(* Candidates: warps with an issueable head. *)
(* An aged I-buffer head ([head_at]) that clears the scoreboard. *)
let issueable t wid =
  t.head_at.(wid) < t.cycle
  &&
  let w = warp_of t wid in
  let idx = head_idx w in
  head_ready t w
  (* structural memory gates (MSHR / replay port) hide the warp from
     the schedulers so GTO moves on instead of sticking to it *)
  && not (mem_struct_blocked t w idx)

let pick_warp t sched =
  let cfg = t.cfg in
  let nw = Array.length t.warps in
  match cfg.Config.scheduler with
  | Config.Gto ->
    (* Greedy-then-oldest: stick with the last warp this scheduler
       issued from; otherwise take the lowest warp slot (oldest TB). *)
    let g = t.greedy.(sched) in
    if g >= 0 && g mod cfg.Config.num_schedulers = sched && issueable t g
    then g
    else begin
      let ws = t.sched_wid.(sched) and n = t.sched_n.(sched) in
      let k = ref 0 in
      while !k < n && not (issueable t ws.(!k)) do
        incr k
      done;
      if !k < n then ws.(!k) else -1
    end
  | Config.Lrr ->
    (* Loose round robin: resume scanning after the last pick. *)
    let per_sched =
      (nw + cfg.Config.num_schedulers - 1) / cfg.Config.num_schedulers
    in
    let last = t.greedy.(sched) in
    let start =
      if last >= 0 then ((last - sched) / cfg.Config.num_schedulers) + 1
      else 0
    in
    let found = ref (-1) in
    let k = ref 0 in
    while !found < 0 && !k < per_sched do
      let slot = (start + !k) mod per_sched in
      let wid = sched + (slot * cfg.Config.num_schedulers) in
      if wid < nw && issueable t wid then found := wid;
      incr k
    done;
    !found

let issue t =
  Array.fill t.bank_use 0 (Array.length t.bank_use) 0;
  let cfg = t.cfg in
  t.mem_left <- cfg.Config.mem_per_cycle;
  t.sfu_left <- cfg.Config.sfu_per_cycle;
  for sched = 0 to cfg.Config.num_schedulers - 1 do
    match pick_warp t sched with
    | -1 -> t.greedy.(sched) <- -1
    | wid ->
      t.greedy.(sched) <- wid;
      (match t.warps.(wid) with
      | None -> ()
      | Some w ->
        let issued = ref 0 in
        while !issued < cfg.Config.issue_per_scheduler && try_issue_head t w do
          incr issued
        done)
  done

(* ------------------------------------------------------------------ *)
(* Fetch                                                               *)
(* ------------------------------------------------------------------ *)

(* Skip-ledger fate of one eligible occurrence passing the fetch slot.
   Launch-time demotion (CR whose xdim condition failed) is decided here
   from static information; everything else is the engine's story. An
   occurrence the engine removed or skipped pre-fetch never reaches this
   point — those fates are recorded at the elimination site. *)
let note_exec_fate t (w : Engine.wctx) fi =
  let idx = op_idx w.Engine.trace fi in
  if t.kinfo.Kinfo.marked_eligible.(idx) then
    let fate =
      if not t.kinfo.Kinfo.tb_redundant.(idx) then Obs.Ledger.Demoted_at_launch
      else t.engine.Engine.exec_fate w fi
    in
    Obs.Ledger.note t.ledger ~pc:idx fate

let fetch t =
  let cfg = t.cfg in
  t.fetch_mutated <- false;
  let nw = Array.length t.warps in
  if nw = 0 then ()
  else begin
    let fetched = ref 0 and scanned = ref 0 in
    let ptr = ref t.fetch_ptr in
    while !fetched < cfg.Config.fetch_width && !scanned < nw do
      (match t.warps.(!ptr mod nw) with
      | Some w
        when (not w.Engine.finished)
             && (not w.Engine.at_barrier)
             && t.cycle >= w.Engine.fetch_ready_at
             && w.Engine.ib_len < cfg.Config.ibuf_depth
             && (not (warp_done w))
             && t.engine.Engine.can_fetch w -> begin
        (* Fetch a bundle of up to [issue_width] sequential instructions
           from the selected warp in this one cycle (dual-issue
           superscalar fetch at 2). Every bundle slot independently
           re-runs the zero-cost removal loop and re-consults the
           engine's fetch gate, so a leader the engine skipped or
           removed can pair with its follower; an I-cache miss or a
           full I-buffer ends the bundle. The warp consumes one
           [fetch_width] slot regardless of bundle fill. *)
        let slot_used = ref false in
        let bundle_left = ref cfg.Config.issue_width in
        let continue_slot = ref true in
        while !continue_slot do
          continue_slot := false;
          (* Zero-cost stream removal (DAC-IDEAL). *)
          while
            (not (warp_done w))
            && t.engine.Engine.remove_at_fetch w w.Engine.fi
          do
            let idx = op_idx w.Engine.trace w.Engine.fi in
            t.fetch_mutated <- true;
            if t.kinfo.Kinfo.marked_eligible.(idx) then
              Obs.Ledger.note t.ledger ~pc:idx Obs.Ledger.Skipped;
            w.Engine.fi <- w.Engine.fi + 1;
            t.stats.Stats.skipped_prefetch <- t.stats.Stats.skipped_prefetch + 1;
            (match t.pcstat with Some p -> Obs.Pcstat.note_skip p ~pc:idx | None -> ());
            emit t ~warp:w.Engine.wid Obs.Event.Skip_prefetch;
            count_elim t.stats t.kinfo.Kinfo.shape.(idx)
          done;
          if not (warp_done w) then begin
            let idx = op_idx w.Engine.trace w.Engine.fi in
            if not !slot_used then begin
              slot_used := true;
              incr fetched
            end;
            t.fetch_mutated <- true;
            let pc = Darsie_isa.Kernel.pc_of_index idx in
            if Mem_model.L1.access t.icache pc then begin
              t.stats.Stats.fetched <- t.stats.Stats.fetched + 1;
              (match t.pcstat with
              | Some p -> Obs.Pcstat.note_fetch p ~pc:idx
              | None -> ());
              emit t ~warp:w.Engine.wid Obs.Event.Fetch;
              note_exec_fate t w w.Engine.fi;
              Engine.ibuf_push w ~cycle:t.cycle;
              refresh_head t w;
              w.Engine.fi <- w.Engine.fi + 1;
              decr bundle_left;
              if
                !bundle_left > 0
                && w.Engine.ib_len < cfg.Config.ibuf_depth
                && (not (warp_done w))
                (* [can_fetch] is stale once [fi] moved: the follower
                   slot must re-consult the engine at the new cursor, or
                   a warp could fetch past a branch sync it never
                   arrived at. *)
                && t.engine.Engine.recheck_fetch w
              then continue_slot := true
            end
            else begin
              (* I-cache miss: the line fills and the warp refetches *)
              t.stats.Stats.icache_misses <- t.stats.Stats.icache_misses + 1;
              emit t ~warp:w.Engine.wid Obs.Event.Icache_miss;
              w.Engine.fetch_ready_at <- t.cycle + cfg.Config.icache_miss_lat
            end
          end
        done;
        if !slot_used then t.fetch_ptr <- (!ptr + 1) mod nw
      end
      | _ -> ());
      incr ptr;
      incr scanned
    done;
    if !fetched = 0 then
      t.stats.Stats.fetch_stall_cycles <- t.stats.Stats.fetch_stall_cycles + 1
  end

(* ------------------------------------------------------------------ *)
(* Stall-cycle attribution                                             *)
(* ------------------------------------------------------------------ *)

(* PC of the in-flight memory op finishing soonest for warp [w] (or of
   any in-flight op when [w] is [no_warp]); the instruction a
   memory-bound cycle is most fairly blamed on. -1 when nothing
   qualifies. Ties on the finish cycle break toward the lower PC so the
   blame is independent of the in-flight pool's order. *)
let nearest_inflight_pc t (w : Engine.wctx) =
  let any = w == no_warp in
  let fly = t.fly in
  let best_fin = ref max_int in
  let best_pc = ref (-1) in
  for i = 0 to fly.Inflight.n - 1 do
    let s = fly.Inflight.heap_slot.(i) in
    let wid = fly.Inflight.wid.(s) in
    if any || wid = w.Engine.wid then begin
      let pc = op_idx (warp_of t wid).Engine.trace fly.Inflight.fi.(s) in
      let fin = fly.Inflight.finish.(s) in
      if
        (any || is_mem_class t pc)
        && (fin < !best_fin || (fin = !best_fin && (pc < !best_pc || !best_pc < 0)))
      then begin
        best_fin := fin;
        best_pc := pc
      end
    end
  done;
  !best_pc

let head_pc (w : Engine.wctx) =
  if w.Engine.ib_len > 0 then head_idx w else -1

let next_pc (w : Engine.wctx) =
  if warp_done w then -1 else op_idx w.Engine.trace w.Engine.fi

let classified t bucket pc =
  t.cls_bucket <- bucket;
  t.cls_pc <- pc

(* A resident warp that still has work and is not parked at a barrier,
   whose I-buffer head was fetched before this cycle: the issue stage
   considered it this cycle and rejected it. *)
let aged_head t (w : Engine.wctx) =
  (not (warp_drained w))
  && (not w.Engine.at_barrier)
  && w.Engine.ib_len > 0
  && head_cycle w < t.cycle

(* An aged head waiting on an operand while its warp has memory in
   flight. *)
let mem_blocked t (w : Engine.wctx) =
  aged_head t w
  && (not (head_ready t w))
  && w.Engine.mem_inflight > 0

(* An aged, scoreboard-ready head held back by a structural memory
   gate. *)
let struct_blocked t (w : Engine.wctx) =
  aged_head t w
  &&
  let idx = head_idx w in
  head_ready t w && mem_struct_blocked t w idx

(* A warp with nothing buffered that the engine will not let fetch. *)
let fetch_gated t (w : Engine.wctx) =
  (not (warp_drained w))
  && (not w.Engine.at_barrier)
  && w.Engine.ib_len = 0
  && not (t.engine.Engine.can_fetch w)

(* Classify one cycle into exactly one Attrib bucket, and name the static
   instruction blocking progress (-1 = the none-row), into [cls_bucket]
   and [cls_pc]. Called at the end of [step], so "aged" I-buffer heads
   (fetch_cycle < cycle) are exactly the ones the issue stage considered
   and rejected this cycle. Pcstat and Attrib are both fed from this
   single result, which is what makes the per-PC table conservative by
   construction. This is the non-issuing-cycle half of the
   classification, shared by [step] and the fast-forward bulk charge;
   each search is a direct scan over the warp array in slot order. *)
let classify_stall t =
  let nw = Array.length t.warps in
  let any_runnable = ref false in
  let all_barrier = ref true in
  let first_nonbarrier = ref (-1) in
  for i = 0 to nw - 1 do
    match t.warps.(i) with
    | Some w when not (warp_drained w) ->
      any_runnable := true;
      if not w.Engine.at_barrier then begin
        all_barrier := false;
        if !first_nonbarrier < 0 then first_nonbarrier := i
      end
    | _ -> ()
  done;
  if not !any_runnable then
    if t.fly.Inflight.n > 0 then
      classified t Obs.Attrib.Mem_pending (nearest_inflight_pc t no_warp)
    else classified t Obs.Attrib.Idle (-1)
  else if !all_barrier then classified t Obs.Attrib.Barrier t.last_barrier_pc
  else begin
    (* Warps whose head instruction was old enough to issue but did not:
       operand (scoreboard) or issue-resource blocked. *)
    let first_aged = ref 0 in
    while !first_aged < nw && not (aged_head t (warp_of t !first_aged)) do
      incr first_aged
    done;
    if !first_aged < nw then begin
      let first_aged = !first_aged in
      let i = ref first_aged in
      while !i < nw && not (mem_blocked t (warp_of t !i)) do
        incr i
      done;
      if !i < nw then
        classified t Obs.Attrib.Mem_pending (nearest_inflight_pc t (warp_of t !i))
      else begin
        (* Structural memory gates (fidelity knobs): an aged head that
           cleared the scoreboard but was held back by a full MSHR file
           or the busy shared replay port. The scan is skipped entirely
           at the default knob settings, where the gate is constant
           false, so the classification is unchanged. *)
        let i = ref nw in
        if t.cfg.Config.mshrs > 0 || t.cfg.Config.smem_banks > 0 then begin
          i := first_aged;
          while !i < nw && not (struct_blocked t (warp_of t !i)) do
            incr i
          done
        end;
        if !i < nw then begin
          (* blame the access occupying the port, or the nearest of the
             warp's own in-flight misses holding its MSHRs *)
          let w = warp_of t !i in
          let pc =
            match t.kinfo.Kinfo.unit_of.(head_idx w) with
            | Kinfo.Mem_shared -> t.smem_replay_pc
            | _ -> nearest_inflight_pc t w
          in
          classified t Obs.Attrib.Mem_struct pc
        end
        else classified t Obs.Attrib.Scoreboard (head_pc (warp_of t first_aged))
      end
    end
    else begin
      let i = ref 0 in
      while !i < nw && not (fetch_gated t (warp_of t !i)) do
        incr i
      done;
      if !i < nw then classified t Obs.Attrib.Darsie_sync (next_pc (warp_of t !i))
      else begin
        let w = warp_of t !first_nonbarrier in
        let pc = match head_pc w with -1 -> next_pc w | p -> p in
        classified t Obs.Attrib.Fetch_starved pc
      end
    end
  end

let classify_cycle t =
  if t.issue_slots_used > 0 then classified t Obs.Attrib.Active t.active_pc
  else classify_stall t

let step t =
  t.cycle <- t.cycle + 1;
  t.stats.Stats.cycles <- t.cycle;
  t.issue_slots_used <- 0;
  writeback t;
  barriers_and_retirement t;
  issue t;
  if t.tracing then begin
    (* The engine's skip phase mutates counters internally; emit the
       per-cycle deltas as aggregate (warp = -1) events. *)
    let sp0 = t.stats.Stats.skipped_prefetch in
    let ds0 = t.stats.Stats.darsie_sync_stalls in
    t.engine.Engine.cycle_skip ~cycle:t.cycle;
    for _ = 1 to t.stats.Stats.skipped_prefetch - sp0 do
      emit t ~warp:(-1) Obs.Event.Skip_prefetch
    done;
    for _ = 1 to t.stats.Stats.darsie_sync_stalls - ds0 do
      emit t ~warp:(-1) Obs.Event.Darsie_sync_stall
    done
  end
  else t.engine.Engine.cycle_skip ~cycle:t.cycle;
  fetch t;
  classify_cycle t;
  Obs.Attrib.bump t.attr t.cls_bucket;
  (match t.pcstat with
  | Some p -> Obs.Pcstat.charge p ~pc:t.cls_pc t.cls_bucket
  | None -> ());
  (* Sharded-loop watchdog bookkeeping: remember the last cycle this SM
     fetched, issued, dropped or skipped anything (mirrors the serial
     loop's global [progress_token] comparison). *)
  let tok = progress_token t in
  if tok <> t.progress_snapshot then begin
    t.progress_snapshot <- tok;
    t.last_progress <- t.cycle
  end;
  match t.series with
  | Some s when Obs.Series.boundary s ~cycle:t.cycle ->
    Obs.Series.record s ~cycle:t.cycle (sample_snapshot t.stats)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Event-driven fast-forwarding                                        *)
(* ------------------------------------------------------------------ *)

(* Earliest future cycle at which stepping this SM could do anything
   observable, evaluated between two [step] calls. [max_int] means "no
   event will ever fire here" (an idle or deadlocked SM — deadlocks must
   keep stepping so the watchdog sees them). The computation is
   deliberately conservative: any doubt returns [cycle + 1], which just
   disables jumping for a cycle. Sources:

   - the engine's skip phase was not a no-op last cycle (it must keep
     running every cycle), or this cycle's fetch advanced a warp after
     the skip phase ran and made its quiescence snapshot stale;
   - the earliest pending writeback ([next_wb]);
   - barrier machinery: a pending release fires at [barrier_release_at];
     a fully-arrived barrier whose timer is not armed yet arms it next
     step; TB retirement (and thus a possible TB launch) happens next
     step once everything drained;
   - a warp whose I-buffer head clears the scoreboard can issue next
     cycle (structural/collector limits are ignored — conservative);
   - a fetch-capable warp wakes at [fetch_ready_at] (I-cache miss fill);
   - the next time-series sampling boundary, so interval records always
     come from a normally-stepped cycle. *)
let next_event_cycle t =
  (* Jumping needs the engine's last skip phase to have been steady —
     a pure per-cycle accumulation over frozen state, which repeats
     identically across the span and is charged by [Engine.bulk_skip].
     (Quiescence is not enough: a skip phase can mutate state, e.g.
     release a branch sync, without moving any stat counter.) The flag
     reflects a phase that ran before this cycle's fetch; when the skip
     phase inspects warp state, a fetch mutates state it has not seen,
     so a fetch forces one more normal step. *)
  if
    (not (t.engine.Engine.skip_steady ()))
    || (t.fetch_mutated && t.engine.Engine.skip_reads_warp_state)
  then
    if busy t then t.cycle + 1 else max_int
  else begin
    let now1 = t.cycle + 1 in
    let wake = ref max_int in
    if t.fly.Inflight.n > 0 then wake := imax now1 t.next_wb;
    (* Fidelity-knob event sources. MSHR entries free at writeback, so
       their releases ride on [next_wb] above. The shared replay port
       frees the cycle after [smem_replay_until]; noting it bounds any
       jump at the port release. (A head blocked by either gate is
       scoreboard-ready, so the per-warp issue-side source below already
       pins the wake to [now1] whenever a warp is actually waiting —
       this source only matters when the port drains unobserved.) *)
    if t.smem_replay_until > t.cycle then
      wake := imin !wake (imax now1 (t.smem_replay_until + 1));
    let wpt = t.warps_per_tb in
    for slot_idx = 0 to Array.length t.slots - 1 do
      let slot = t.slots.(slot_idx) in
      if slot.occupied && !wake > now1 then begin
        let base = slot_idx * wpt in
        let all_drained = ref true in
        let all_arrived = ref true in
        (* Once the wake is [now1] no later source can improve it; the
           remaining per-warp checks (and, harmlessly, the barrier and
           retirement notes below, which can only yield >= now1) are
           skipped. *)
        let k = ref 0 in
        while !k < wpt && !wake > now1 do
          (match t.warps.(base + !k) with
          | Some w when not (warp_drained w) ->
            all_drained := false;
            if not w.Engine.at_barrier then begin
              all_arrived := false;
              (* issue side: every buffered head is aged by the next
                 cycle, so a scoreboard-ready head can issue then *)
              if
                w.Engine.ib_len > 0
                && head_ready t w
              then wake := now1
              (* fetch side *)
              else if
                w.Engine.ib_len < t.cfg.Config.ibuf_depth
                && (not (warp_done w))
                && t.engine.Engine.can_fetch w
              then wake := imin !wake (imax now1 w.Engine.fetch_ready_at)
            end
          | _ -> ());
          incr k
        done;
        if slot.n_at_barrier > 0 then begin
          if slot.barrier_release_at >= 0 then
            wake := imin !wake (imax now1 slot.barrier_release_at)
          else if !all_arrived then wake := now1
        end
        else if slot.inflight_ops = 0 && !all_drained then
          (* retirement pending: the next step frees the slot and may
             trigger a TB launch *)
          wake := now1
      end
    done;
    (match t.series with
    | Some s ->
      let interval = Obs.Series.interval s in
      wake := imin !wake (((t.cycle / interval) + 1) * interval)
    | None -> ());
    !wake
  end

(* Jump the clock to [to_], bulk-charging the skipped span exactly as
   stepping it would have: the stall classification is evaluated once at
   the first skipped cycle (with no events due before [to_ + 1], the SM
   state — and therefore the classification — is frozen across the
   span), then multiplied into the Attrib bucket, the per-PC charge and
   the per-cycle stall counters. Keeps [Gpu.check_attribution] true by
   construction: span cycles, span bucket charges, span per-PC charges. *)
let fast_forward t ~to_ =
  let span = to_ - t.cycle in
  if span > 0 then begin
    let landing = t.cycle in
    t.cycle <- landing + 1;
    classify_stall t;
    t.cycle <- to_;
    t.stats.Stats.cycles <- to_;
    Obs.Attrib.bump_n t.attr t.cls_bucket span;
    (match t.pcstat with
    | Some p -> Obs.Pcstat.charge_n p ~pc:t.cls_pc t.cls_bucket ~n:span
    | None -> ());
    (* the stepped path bumps these once per no-progress cycle *)
    if Array.length t.warps > 0 then
      t.stats.Stats.fetch_stall_cycles <-
        t.stats.Stats.fetch_stall_cycles + span;
    for i = 0 to Array.length t.slots - 1 do
      let slot = t.slots.(i) in
      if slot.occupied && slot.n_at_barrier > 0 then
        t.stats.Stats.barrier_stall_cycles <-
          t.stats.Stats.barrier_stall_cycles + (span * slot.n_at_barrier)
    done;
    (* Every skipped cycle is issue-less, and the stepped path resets
       each scheduler's greedy pick on issue-less cycles: without this
       a stale greedy warp would beat a lower, equally-ready warp out
       of the post-landing scan order and reorder issues vs stepping. *)
    Array.fill t.greedy 0 (Array.length t.greedy) (-1);
    (* the engine's skip phase would have run once per skipped cycle *)
    t.engine.Engine.bulk_skip ~cycle:to_ ~n:span;
    t.engine.Engine.on_fast_forward ~cycle:to_;
    (* bulk_skip can advance the skip counters, which the serial
       watchdog counts as progress at the landing cycle *)
    let tok = progress_token t in
    if tok <> t.progress_snapshot then begin
      t.progress_snapshot <- tok;
      t.last_progress <- to_
    end
  end

(* ------------------------------------------------------------------ *)
(* Epoch-batched DRAM commit (sharded cycle loop)                      *)
(* ------------------------------------------------------------------ *)

let tbs_retired t = t.tbs_retired
let last_wb_cycle t = t.last_wb_cycle
let last_progress t = t.last_progress

(* Replay every SM's deferred DRAM requests against the real channel in
   canonical serial order and patch the placeholder completions. The
   serial loop steps SMs cycle-by-cycle in SM-index order, so the shared
   channel observes requests ordered by (issue cycle, SM index, per-SM
   issue sequence). Each deferred request carries [dq_now] =
   issue cycle + l1_lat — the same constant offset for every site — so
   each per-SM queue is already sorted by it, and a merge that takes the
   smallest [dq_now] at the queue heads, ties to the lower SM index,
   recovers the serial order. Returns the number of requests replayed
   (for telemetry). *)
let commit_epoch ~dram sms =
  let replayed = ref 0 in
  let merging = ref true in
  while !merging do
    let best = ref (-1) and best_now = ref max_int in
    for i = 0 to Array.length sms - 1 do
      let t = sms.(i) in
      if t.dq_pos < t.n_dq && t.dq_now.(t.dq_pos) < !best_now then begin
        best := i;
        best_now := t.dq_now.(t.dq_pos)
      end
    done;
    if !best < 0 then merging := false
    else begin
      let t = sms.(!best) in
      let q = t.dq_pos in
      t.dq_pos <- q + 1;
      let finish =
        Mem_model.Dram.request dram ~now:t.dq_now.(q) ~ntxns:t.dq_ntxns.(q)
      in
      if t.dq_slot.(q) >= 0 then t.fly.Inflight.finish.(t.dq_slot.(q)) <- finish;
      incr replayed
    end
  done;
  if !replayed > 0 then
    Array.iter
      (fun t ->
        t.n_dq <- 0;
        t.dq_pos <- 0;
        (* Placeholder finishes were [max_int], which never lowered
           [next_wb]; re-heap the patched pool and read it off. *)
        Inflight.reheap t.fly;
        t.next_wb <- Inflight.next_finish t.fly)
      sms;
  !replayed
