open Darsie_isa

type config = { warp_size : int; capture_operands : bool }

let default_config = { warp_size = 32; capture_operands = false }

type exec_record = {
  tb : int;
  warp : int;
  inst_index : int;
  occ : int;
  active : int;
  operands : Value.t array array;
  dst_values : Value.t array option;
  accesses : int array;
}

type stats = { warp_insts : int; thread_insts : int; max_stack_depth : int }

type site = {
  site_tb : int;
  site_warp : int;
  site_inst : int;
  site_occ : int;
  site_active : int;
}

type action = Execute | Skip_instruction | Force_dst of Value.t array

type park_state = Running | At_barrier | Exited

type warp_park = {
  park_warp : int;
  park_pc : int;
  park_state : park_state;
  park_barrier_pc : int;
}

type error =
  | Barrier_deadlock of { tb : int; warps : warp_park list }
  | No_progress of { tb : int; warps : warp_park list }
  | Runaway of { executed : int; bound : int }
  | Exec_fault of string

exception Fault of string

exception Error of error

let fault fmt = Printf.ksprintf (fun m -> raise (Fault m)) fmt

let park_line p =
  match p.park_state with
  | Exited -> Printf.sprintf "warp %d: exited" p.park_warp
  | At_barrier ->
    Printf.sprintf "warp %d: parked at barrier (inst %d), resume pc %d"
      p.park_warp p.park_barrier_pc p.park_pc
  | Running -> Printf.sprintf "warp %d: runnable at pc %d" p.park_warp p.park_pc

let error_message = function
  | Barrier_deadlock { tb; warps } ->
    Printf.sprintf "barrier deadlock in threadblock %d:\n  %s" tb
      (String.concat "\n  " (List.map park_line warps))
  | No_progress { tb; warps } ->
    Printf.sprintf "scheduler made no progress in threadblock %d:\n  %s" tb
      (String.concat "\n  " (List.map park_line warps))
  | Runaway { executed; bound } ->
    Printf.sprintf "runaway kernel: executed %d warp instructions (bound %d)"
      executed bound
  | Exec_fault m -> m

(* Set bits of a lane mask (at most 62 bits wide), counted in parallel:
   pairs, nibbles, bytes, then a multiply sums the bytes into the top
   one. *)
let popcount m =
  let m = m - ((m lsr 1) land 0x1555_5555_5555_5555) in
  let m = (m land 0x3333_3333_3333_3333) + ((m lsr 2) land 0x3333_3333_3333_3333) in
  let m = (m + (m lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (m * 0x0101_0101_0101_0101) lsr 56

(* Per-warp architectural state. *)
type warp_state = {
  regs : Value.t array array;  (* [reg].[lane] *)
  preds : bool array array;
  stack : Simt_stack.t;
  occs : int array;  (* per instruction index *)
  tid_x : int array;
  tid_y : int array;
  tid_z : int array;
  valid_mask : int;  (* lanes backed by real threads *)
  mutable at_barrier : bool;
  mutable exited : bool;
  mutable last_barrier_pc : int;  (* last barrier executed; -1 if none *)
}

type tb_ctx = {
  launch : Kernel.launch;
  tb_index : int;
  ctaid : Kernel.dim3;
  shared : Bytes.t;
  warps : warp_state array;
}

let axis (d : Kernel.dim3) = function
  | Instr.X -> d.Kernel.x
  | Instr.Y -> d.Kernel.y
  | Instr.Z -> d.Kernel.z

let uniform (scratch : Value.t array) v =
  Array.fill scratch 0 (Array.length scratch) v;
  scratch

(* The lane vector of a source operand, resolved once per op: a register
   or [%tid] operand is the warp's own array, any other operand is the
   same for every lane and is written into [scratch]. The result is only
   read, and only until the next resolution into the same [scratch]. *)
let lanes ctx ws scratch (op : Instr.operand) =
  match op with
  | Instr.Reg r -> ws.regs.(r)
  | Instr.Sreg (Instr.Tid Instr.X) -> ws.tid_x
  | Instr.Sreg (Instr.Tid Instr.Y) -> ws.tid_y
  | Instr.Sreg (Instr.Tid Instr.Z) -> ws.tid_z
  | Instr.Imm v -> uniform scratch v
  | Instr.Param i -> uniform scratch ctx.launch.Kernel.params.(i)
  | Instr.Sreg (Instr.Ntid a) ->
    uniform scratch (axis ctx.launch.Kernel.block_dim a)
  | Instr.Sreg (Instr.Ctaid a) -> uniform scratch (axis ctx.ctaid a)
  | Instr.Sreg (Instr.Nctaid a) ->
    uniform scratch (axis ctx.launch.Kernel.grid_dim a)

(* Words are read and written through [Int32] primitives directly, so no
   [int32] is boxed (the [Value] conversions are calls across modules). *)
let shared_load ctx addr =
  if addr < 0 || addr + 4 > Bytes.length ctx.shared || addr land 3 <> 0 then
    fault "shared load out of bounds or misaligned: 0x%x" addr;
  Int32.to_int (Bytes.get_int32_le ctx.shared addr) land 0xFFFF_FFFF

let shared_store ctx addr v =
  if addr < 0 || addr + 4 > Bytes.length ctx.shared || addr land 3 <> 0 then
    fault "shared store out of bounds or misaligned: 0x%x" addr;
  Bytes.set_int32_le ctx.shared addr (Int32.of_int v)

let binop_fn : Instr.binop -> Value.t -> Value.t -> Value.t = function
  | Instr.Add -> Value.add
  | Instr.Sub -> Value.sub
  | Instr.Mul -> Value.mul
  | Instr.Mulhi -> Value.mulhi_s
  | Instr.Div_s -> Value.div_s
  | Instr.Div_u -> Value.div_u
  | Instr.Rem_s -> Value.rem_s
  | Instr.Rem_u -> Value.rem_u
  | Instr.Min_s -> Value.min_s
  | Instr.Max_s -> Value.max_s
  | Instr.Min_u -> Value.min_u
  | Instr.Max_u -> Value.max_u
  | Instr.And -> Value.logand
  | Instr.Or -> Value.logor
  | Instr.Xor -> Value.logxor
  | Instr.Shl -> Value.shl
  | Instr.Shr_u -> Value.shr_u
  | Instr.Shr_s -> Value.shr_s
  | Instr.Fadd -> Value.fadd
  | Instr.Fsub -> Value.fsub
  | Instr.Fmul -> Value.fmul
  | Instr.Fdiv -> Value.fdiv
  | Instr.Fmin -> Value.fmin
  | Instr.Fmax -> Value.fmax

let unop_fn : Instr.unop -> Value.t -> Value.t = function
  | Instr.Mov -> Fun.id
  | Instr.Not -> Value.lognot
  | Instr.Neg -> Value.neg
  | Instr.Abs_s -> Value.abs_s
  | Instr.Fneg -> Value.fneg
  | Instr.Fabs -> Value.fabs
  | Instr.Fsqrt -> Value.fsqrt
  | Instr.Frcp -> Value.frcp
  | Instr.Fexp2 -> Value.fexp2
  | Instr.Flog2 -> Value.flog2
  | Instr.Fsin -> Value.fsin
  | Instr.Fcos -> Value.fcos
  | Instr.Cvt_i2f -> Value.cvt_i2f
  | Instr.Cvt_u2f -> Value.cvt_u2f
  | Instr.Cvt_f2i -> Value.cvt_f2i

let mad a b c = Value.add (Value.mul a b) c

let ternop_fn : Instr.ternop -> Value.t -> Value.t -> Value.t -> Value.t =
  function
  | Instr.Mad -> mad
  | Instr.Fma -> Value.ffma

let holds (cmp : Instr.cmp) c =
  match cmp with
  | Instr.Eq -> c = 0
  | Instr.Ne -> c <> 0
  | Instr.Lt -> c < 0
  | Instr.Le -> c <= 0
  | Instr.Gt -> c > 0
  | Instr.Ge -> c >= 0

(* [Value.cmp_f] without its option: unordered operands satisfy only
   [Ne]. *)
let fcmp_holds cmp a b =
  let x = Int32.float_of_bits (Int32.of_int a)
  and y = Int32.float_of_bits (Int32.of_int b) in
  if Float.is_nan x || Float.is_nan y then cmp = Instr.Ne
  else holds cmp (compare x y)

let eval_cmp (kind : Instr.cmp_kind) cmp a b =
  match kind with
  | Instr.Scmp -> holds cmp (Value.cmp_s a b)
  | Instr.Ucmp -> holds cmp (Value.cmp_u a b)
  | Instr.Fcmp -> fcmp_holds cmp a b

let eval_atom (op : Instr.atom_op) old v cas_cmp =
  match op with
  | Instr.Atom_add -> Value.add old v
  | Instr.Atom_max -> Value.max_s old v
  | Instr.Atom_min -> Value.min_s old v
  | Instr.Atom_exch -> v
  | Instr.Atom_cas -> if old = cas_cmp then v else old

(* The lane loops: [d.(l) <- f a.(l) ..] for every lane [l] set in [m].
   [f] is a static function value, chosen once per op. The vectors are
   typed, so element accesses compile to plain loads and stores. *)
let map1 m n (f : Value.t -> Value.t) (d : Value.t array) (a : Value.t array) =
  for l = 0 to n - 1 do
    if m land (1 lsl l) <> 0 then d.(l) <- f a.(l)
  done

let map2 m n (f : Value.t -> Value.t -> Value.t) (d : Value.t array)
    (a : Value.t array) (b : Value.t array) =
  for l = 0 to n - 1 do
    if m land (1 lsl l) <> 0 then d.(l) <- f a.(l) b.(l)
  done

let map3 m n (f : Value.t -> Value.t -> Value.t -> Value.t)
    (d : Value.t array) (a : Value.t array) (b : Value.t array)
    (c : Value.t array) =
  for l = 0 to n - 1 do
    if m land (1 lsl l) <> 0 then d.(l) <- f a.(l) b.(l) c.(l)
  done

let run ?(config = default_config) ?on_exec ?on_op
    ?(max_warp_insts = 50_000_000) ?(strict_barriers = false) ?intercept
    (mem : Memory.t) (launch : Kernel.launch) =
  let kernel = launch.Kernel.kernel in
  let insts = kernel.Kernel.insts in
  let ninsts = Array.length insts in
  let ws_size = config.warp_size in
  if ws_size < 1 || ws_size > 62 then
    invalid_arg "Interp.run: warp size must be within 1..62";
  let cfg = Darsie_compiler.Cfg.build kernel in
  let postdom = Darsie_compiler.Postdom.compute cfg in
  let reconv = Array.init ninsts (fun i ->
      if Instr.is_branch insts.(i) then
        match Darsie_compiler.Postdom.reconvergence_inst postdom i with
        | Some r -> r
        | None -> -1
      else -1)
  in
  let nwarps = Kernel.warps_per_block launch ~warp_size:ws_size in
  let total_warp_insts = ref 0 and total_thread_insts = ref 0 in
  let max_depth = ref 1 in
  (* Per-run scratch: the op's byte addresses (lent to [on_op]) and one
     vector per source position for uniform operands. *)
  let addrs = Array.make ws_size 0 in
  let u0 = Array.make ws_size 0
  and u1 = Array.make ws_size 0
  and u2 = Array.make ws_size 0 in
  let init_warp w =
    let tid_x = Array.make ws_size 0
    and tid_y = Array.make ws_size 0
    and tid_z = Array.make ws_size 0 in
    let valid = ref 0 in
    for lane = 0 to ws_size - 1 do
      match Kernel.thread_of_lane launch ~warp_size:ws_size ~warp:w ~lane with
      | Some (x, y, z) ->
        tid_x.(lane) <- x;
        tid_y.(lane) <- y;
        tid_z.(lane) <- z;
        valid := !valid lor (1 lsl lane)
      | None -> ()
    done;
    {
      regs = Array.init (max kernel.Kernel.nregs 1) (fun _ -> Array.make ws_size Value.zero);
      preds =
        Array.init (max kernel.Kernel.npregs 1) (fun _ -> Array.make ws_size false);
      stack = Simt_stack.create ~full_mask:!valid;
      occs = Array.make ninsts 0;
      tid_x;
      tid_y;
      tid_z;
      valid_mask = !valid;
      at_barrier = false;
      exited = false;
      last_barrier_pc = -1;
    }
  in
  let parks ctx =
    Array.to_list
      (Array.mapi
         (fun w (ws : warp_state) ->
           {
             park_warp = w;
             park_pc =
               (if ws.exited || Simt_stack.finished ws.stack then -1
                else Simt_stack.pc ws.stack);
             park_state =
               (if ws.exited then Exited
                else if ws.at_barrier then At_barrier
                else Running);
             park_barrier_pc = ws.last_barrier_pc;
           })
         ctx.warps)
  in
  (* Executes the body of [inst] on the lanes of [m] and returns how many
     byte addresses it wrote to [addrs]. Control flow is handled by
     [step]. *)
  let exec_body ctx ws m (inst : Instr.t) =
    let regs = ws.regs in
    match inst.Instr.body with
    | Instr.Bin (op, d, a, b) ->
      map2 m ws_size (binop_fn op) regs.(d) (lanes ctx ws u0 a)
        (lanes ctx ws u1 b);
      0
    | Instr.Un (op, d, a) ->
      map1 m ws_size (unop_fn op) regs.(d) (lanes ctx ws u0 a);
      0
    | Instr.Tern (op, d, a, b, c) ->
      map3 m ws_size (ternop_fn op) regs.(d) (lanes ctx ws u0 a)
        (lanes ctx ws u1 b) (lanes ctx ws u2 c);
      0
    | Instr.Setp (kind, cmp, p, a, b) ->
      let a = lanes ctx ws u0 a and b = lanes ctx ws u1 b
      and dst = ws.preds.(p) in
      for l = 0 to ws_size - 1 do
        if m land (1 lsl l) <> 0 then dst.(l) <- eval_cmp kind cmp a.(l) b.(l)
      done;
      0
    | Instr.Selp (d, a, b, p) ->
      let a = lanes ctx ws u0 a and b = lanes ctx ws u1 b
      and dst = regs.(d) and pv = ws.preds.(p) in
      for l = 0 to ws_size - 1 do
        if m land (1 lsl l) <> 0 then dst.(l) <- (if pv.(l) then a.(l) else b.(l))
      done;
      0
    | Instr.Ld (space, d, base, off) ->
      let base = lanes ctx ws u0 base and off = Value.of_signed off
      and dst = regs.(d) and n = ref 0 in
      for l = 0 to ws_size - 1 do
        if m land (1 lsl l) <> 0 then begin
          let addr = (base.(l) + off) land 0xFFFF_FFFF in
          addrs.(!n) <- addr;
          incr n;
          dst.(l) <-
            (match space with
            | Instr.Global -> Memory.load_u32 mem addr
            | Instr.Shared -> shared_load ctx addr)
        end
      done;
      !n
    | Instr.St (space, base, off, v) ->
      let base = lanes ctx ws u0 base and off = Value.of_signed off
      and v = lanes ctx ws u1 v and n = ref 0 in
      for l = 0 to ws_size - 1 do
        if m land (1 lsl l) <> 0 then begin
          let addr = (base.(l) + off) land 0xFFFF_FFFF in
          addrs.(!n) <- addr;
          incr n;
          match space with
          | Instr.Global -> Memory.store_u32 mem addr v.(l)
          | Instr.Shared -> shared_store ctx addr v.(l)
        end
      done;
      !n
    | Instr.Atom (op, d, addr_op, v) ->
      let a = lanes ctx ws u0 addr_op and v = lanes ctx ws u1 v
      and dst = regs.(d) and n = ref 0 in
      for l = 0 to ws_size - 1 do
        if m land (1 lsl l) <> 0 then begin
          let addr = a.(l) in
          addrs.(!n) <- addr;
          incr n;
          let old = Memory.load_u32 mem addr in
          Memory.store_u32 mem addr (eval_atom op old v.(l) dst.(l));
          dst.(l) <- old
        end
      done;
      !n
    | Instr.Bra _ | Instr.Bar | Instr.Exit -> 0
  in
  (* The [on_exec] record of an op that just executed: fresh arrays
     throughout, operands read after the write like the rest of it. *)
  let exec_record ctx ws w pc occ mask n (inst : Instr.t) =
    let capture = config.capture_operands in
    {
      tb = ctx.tb_index;
      warp = w;
      inst_index = pc;
      occ;
      active = mask;
      operands =
        (if capture then
           Array.of_list
             (List.map
                (fun op -> Array.copy (lanes ctx ws u0 op))
                (Instr.operands inst))
         else [||]);
      dst_values =
        (if capture then
           Option.map (fun d -> Array.copy ws.regs.(d)) (Instr.dst_reg inst)
         else None);
      accesses = Array.sub addrs 0 n;
    }
  in
  let run_tb tb_index =
    let bx, by, bz = Kernel.block_of_index launch tb_index in
    let ctx =
      {
        launch;
        tb_index;
        ctaid = { Kernel.x = bx; y = by; z = bz };
        shared = Bytes.make kernel.Kernel.shared_bytes '\000';
        warps = Array.init nwarps init_warp;
      }
    in
    (* Execute one instruction for warp [w]; returns [false] when the warp
       can make no further progress this quantum (barrier or exit). *)
    let step w =
      let ws = ctx.warps.(w) in
      Simt_stack.reconverge_if_needed ws.stack;
      if Simt_stack.finished ws.stack then begin
        ws.exited <- true;
        false
      end
      else begin
        let pc = Simt_stack.pc ws.stack in
        if pc < 0 || pc >= ninsts then
          fault "warp %d fell off the program at index %d" w pc;
        let inst = insts.(pc) in
        let mask = Simt_stack.active_mask ws.stack in
        let occ = ws.occs.(pc) in
        let act =
          match intercept with
          | None -> Execute
          | Some f -> (
            match inst.Instr.body with
            | Instr.Bra _ | Instr.Bar | Instr.Exit -> Execute
            | _ ->
              f
                {
                  site_tb = tb_index;
                  site_warp = w;
                  site_inst = pc;
                  site_occ = occ;
                  site_active = mask;
                })
        in
        match act with
        | Skip_instruction ->
          (* The elided occurrence still consumes its occurrence number
             and advances the stream, like a (faulty) pre-fetch skip. *)
          ws.occs.(pc) <- occ + 1;
          Simt_stack.advance ws.stack (pc + 1);
          true
        | Execute | Force_dst _ ->
        ws.occs.(pc) <- occ + 1;
        incr total_warp_insts;
        total_thread_insts := !total_thread_insts + popcount mask;
        if !total_warp_insts > max_warp_insts then
          raise
            (Error (Runaway { executed = !total_warp_insts; bound = max_warp_insts }));
        let d = Simt_stack.depth ws.stack in
        if d > !max_depth then max_depth := d;
        (* Predication: lanes where the guard holds. *)
        let guard_mask =
          match inst.Instr.guard with
          | None -> mask
          | Some (sense, p) ->
            let pv = ws.preds.(p) and m = ref 0 in
            for lane = 0 to ws_size - 1 do
              if mask land (1 lsl lane) <> 0 && pv.(lane) = sense then
                m := !m lor (1 lsl lane)
            done;
            !m
        in
        let n = exec_body ctx ws guard_mask inst in
        (match inst.Instr.body with
        | Instr.Bra target ->
          let taken = guard_mask in
          if taken = mask then Simt_stack.advance ws.stack target
          else if taken = 0 then Simt_stack.advance ws.stack (pc + 1)
          else
            Simt_stack.diverge ws.stack ~reconv:reconv.(pc) ~taken_pc:target
              ~taken_mask:taken ~fallthrough_pc:(pc + 1)
        | Instr.Bar ->
          if Simt_stack.depth ws.stack > 1 then
            fault "barrier executed under intra-warp divergence (pc %d)" pc;
          Simt_stack.advance ws.stack (pc + 1);
          ws.at_barrier <- true;
          ws.last_barrier_pc <- pc
        | Instr.Exit ->
          Simt_stack.retire_lanes ws.stack guard_mask;
          if guard_mask <> mask then Simt_stack.advance ws.stack (pc + 1);
          if Simt_stack.finished ws.stack then ws.exited <- true
        | _ -> Simt_stack.advance ws.stack (pc + 1));
        (* The one observer site. [addrs] is lent to [on_op] for the call
           only; a record is built only for [on_exec]. *)
        (match on_op with
        | None -> ()
        | Some f -> f ~tb:tb_index ~warp:w ~inst:pc ~occ ~active:mask addrs n);
        (match on_exec with
        | None -> ()
        | Some f -> f (exec_record ctx ws w pc occ mask n inst));
        (* A Force_dst interception overwrites the destination after the
           observer saw the recomputed values, modelling a (possibly
           corrupted) HRE forward taking effect. *)
        (match act with
        | Force_dst v -> (
          match Instr.dst_reg inst with
          | Some d ->
            if Array.length v < ws_size then
              fault "Force_dst: %d values for %d lanes" (Array.length v)
                ws_size;
            for lane = 0 to ws_size - 1 do
              if guard_mask land (1 lsl lane) <> 0 then
                ws.regs.(d).(lane) <- v.(lane)
            done
          | None -> ())
        | Execute | Skip_instruction -> ());
        not (ws.at_barrier || ws.exited)
      end
    in
    (* Round-robin: run each warp until it blocks, release barriers when
       every live warp has arrived. *)
    let all_done () = Array.for_all (fun w -> w.exited) ctx.warps in
    let iterations = ref 0 in
    while not (all_done ()) do
      incr iterations;
      if !iterations > max_warp_insts then
        raise (Error (No_progress { tb = tb_index; warps = parks ctx }));
      let ran = ref false in
      Array.iteri
        (fun w ws ->
          if not ws.exited && not ws.at_barrier then begin
            ran := true;
            while step w do
              ()
            done
          end)
        ctx.warps;
      (* Barrier release: every warp is either exited or waiting. *)
      if Array.for_all (fun w -> w.exited || w.at_barrier) ctx.warps then begin
        let any_waiting = Array.exists (fun w -> w.at_barrier) ctx.warps in
        if any_waiting then begin
          (* Releasing a barrier some warps will never reach is the
             CUDA-illegal pattern; strict mode reports who is parked
             where instead of letting the stragglers run past it. *)
          if strict_barriers && Array.exists (fun w -> w.exited) ctx.warps
          then
            raise (Error (Barrier_deadlock { tb = tb_index; warps = parks ctx }));
          Array.iter (fun w -> w.at_barrier <- false) ctx.warps
        end
        else if not (all_done ()) then
          raise (Error (Barrier_deadlock { tb = tb_index; warps = parks ctx }))
      end
      else if not !ran then
        raise (Error (No_progress { tb = tb_index; warps = parks ctx }))
    done
  in
  for tb = 0 to Kernel.num_blocks launch - 1 do
    run_tb tb
  done;
  {
    warp_insts = !total_warp_insts;
    thread_insts = !total_thread_insts;
    max_stack_depth = !max_depth;
  }

let run_result ?config ?on_exec ?on_op ?max_warp_insts ?strict_barriers
    ?intercept mem launch =
  match
    run ?config ?on_exec ?on_op ?max_warp_insts ?strict_barriers ?intercept mem
      launch
  with
  | stats -> Ok stats
  | exception Error e -> Stdlib.Error e
  | exception Fault m -> Stdlib.Error (Exec_fault m)
  | exception Invalid_argument m ->
    (* Illegal guest memory access (misaligned or out-of-range address,
       e.g. from an injected fault corrupting an address register) — an
       execution fault of the simulated program, not a harness error. *)
    Stdlib.Error (Exec_fault m)
