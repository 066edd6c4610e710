(* Per-PC entry telemetry, shared by every table the engine creates so
   the counts survive TB retirement (tables are per resident TB and die
   with it). The logical clock is set once per cycle by the engine. *)
module Telemetry = struct
  type cell = {
    mutable allocs : int;
    mutable hits : int;
    mutable parks : int;
    mutable load_flushes : int;
    mutable barrier_flushes : int;
    mutable lifetime : int;
  }

  (* Cells indexed by PC (a static instruction index, so small and
     dense); [None] until the PC is first touched. *)
  type t = { mutable now : int; mutable cells : cell option array }

  let create () = { now = 0; cells = [||] }

  let set_now t cycle = t.now <- cycle

  let now t = t.now

  let cell t pc =
    if pc >= Array.length t.cells then begin
      let bigger = Array.make (max 16 (2 * pc)) None in
      Array.blit t.cells 0 bigger 0 (Array.length t.cells);
      t.cells <- bigger
    end;
    match t.cells.(pc) with
    | Some c -> c
    | None ->
      let c =
        {
          allocs = 0;
          hits = 0;
          parks = 0;
          load_flushes = 0;
          barrier_flushes = 0;
          lifetime = 0;
        }
      in
      t.cells.(pc) <- Some c;
      c

  let note_parks t ~pc ~n =
    let c = cell t pc in
    c.parks <- c.parks + n

  let note_park t ~pc = note_parks t ~pc ~n:1

  let entries t =
    let acc = ref [] in
    for pc = Array.length t.cells - 1 downto 0 do
      match t.cells.(pc) with
      | Some c ->
        acc :=
          ( pc,
            {
              Darsie_obs.Pcstat.sk_allocs = c.allocs;
              sk_hits = c.hits;
              sk_parks = c.parks;
              sk_load_flushes = c.load_flushes;
              sk_barrier_flushes = c.barrier_flushes;
              sk_lifetime = c.lifetime;
            } )
          :: !acc
      | None -> ()
    done;
    !acc
end

type instance = {
  occ : int;
  leader : int;
  mutable leader_wb : bool;
  mutable done_mask : int;
  mem_dep : bool;
  born : int;  (* telemetry clock at allocation; 0 without telemetry *)
}

type entry = { pc : int; mutable instances : instance list }

type t = {
  max_entries : int;
  rename_regs : int;
  mutable free : int;
  (* Live entries at [entries.(0 .. n_entries-1)], one per PC, in no
     particular order: nothing observable depends on it (per-entry work
     commutes and telemetry is reported sorted by PC). *)
  mutable entries : entry array;
  mutable n_entries : int;
  mutable pos : int array;  (* pc -> its entry's position, or -1 *)
  mutable telemetry : Telemetry.t option;
  (* Store/atomic-flushed load instances, keyed (pc, occ), remembering
     what flushed them and who led; the skip ledger consumes one record
     per flushed instance to name the executing warp's fate. Cleared on
     [flush_all] — a barrier retires every pre-barrier occurrence. *)
  flushed : (int * int, [ `Store | `Atomic ] * int) Hashtbl.t;
}

let create ~max_entries ~rename_regs =
  {
    max_entries;
    rename_regs;
    free = rename_regs;
    entries = [||];
    n_entries = 0;
    pos = [||];
    telemetry = None;
    flushed = Hashtbl.create 16;
  }

let attach_telemetry t tel = t.telemetry <- Some tel

let tel_free t pc (i : instance) kind =
  match t.telemetry with
  | None -> ()
  | Some tel -> (
    let c = Telemetry.cell tel pc in
    c.Telemetry.lifetime <-
      c.Telemetry.lifetime + max 0 (Telemetry.now tel - i.born);
    match kind with
    | `Swept -> ()
    | `Load_flush -> c.Telemetry.load_flushes <- c.Telemetry.load_flushes + 1
    | `Barrier_flush ->
      c.Telemetry.barrier_flushes <- c.Telemetry.barrier_flushes + 1)

(* Position of [pc]'s entry, or -1. *)
let slot_of t pc = if pc < Array.length t.pos then t.pos.(pc) else -1

let remove_entry t k =
  t.pos.(t.entries.(k).pc) <- -1;
  t.n_entries <- t.n_entries - 1;
  if k < t.n_entries then begin
    let last = t.entries.(t.n_entries) in
    t.entries.(k) <- last;
    t.pos.(last.pc) <- k
  end

let absent =
  { occ = -1; leader = -1; leader_wb = false; done_mask = 0; mem_dep = false;
    born = 0 }

let rec find_occ occ = function
  | [] -> absent
  | i :: rest -> if i.occ = occ then i else find_occ occ rest

let probe t ~pc ~occ =
  match slot_of t pc with
  | -1 -> absent
  | k -> find_occ occ t.entries.(k).instances

let find t ~pc ~occ =
  let i = probe t ~pc ~occ in
  if i == absent then None else Some i

let has_free_reg t = t.free > 0

let has_entry_slot t ~pc = t.n_entries < t.max_entries || slot_of t pc >= 0

let can_allocate t ~pc = has_entry_slot t ~pc && has_free_reg t

let allocate t ~pc ~occ ~leader ~mem_dep =
  if not (can_allocate t ~pc) then
    invalid_arg "Skip_table.allocate: table or freelist exhausted";
  if probe t ~pc ~occ != absent then
    invalid_arg "Skip_table.allocate: instance already live";
  let born =
    match t.telemetry with Some tel -> Telemetry.now tel | None -> 0
  in
  let inst =
    { occ; leader; leader_wb = false; done_mask = 1 lsl leader; mem_dep; born }
  in
  (match slot_of t pc with
  | -1 ->
    let e = { pc; instances = [ inst ] } in
    if t.n_entries = Array.length t.entries then begin
      let bigger = Array.make (max 8 (2 * t.n_entries)) e in
      Array.blit t.entries 0 bigger 0 t.n_entries;
      t.entries <- bigger
    end;
    if pc >= Array.length t.pos then begin
      let bigger = Array.make (max 16 (2 * pc)) (-1) in
      Array.blit t.pos 0 bigger 0 (Array.length t.pos);
      t.pos <- bigger
    end;
    t.entries.(t.n_entries) <- e;
    t.pos.(pc) <- t.n_entries;
    t.n_entries <- t.n_entries + 1
  | k -> t.entries.(k).instances <- inst :: t.entries.(k).instances);
  t.free <- t.free - 1;
  match t.telemetry with
  | Some tel ->
    let c = Telemetry.cell tel pc in
    c.Telemetry.allocs <- c.Telemetry.allocs + 1
  | None -> ()

(* Free instances whose value is no longer needed: the leader has written
   back and every warp currently on the majority path has passed. *)
let freeable majority i = i.leader_wb && majority land lnot i.done_mask = 0

(* Drop the instances [dead] selects, returning their registers; an
   entry left empty is removed. Callers first check that something is to
   be dropped, so the common case allocates nothing. *)
let drop_instances t k dead kind =
  let e = t.entries.(k) in
  let live =
    List.filter
      (fun i ->
        if dead i then begin
          t.free <- t.free + 1;
          tel_free t e.pc i kind;
          false
        end
        else true)
      e.instances
  in
  e.instances <- live;
  if live = [] then remove_entry t k

let rec any_freeable majority = function
  | [] -> false
  | i :: rest -> freeable majority i || any_freeable majority rest

let sweep_at t k ~majority =
  if any_freeable majority t.entries.(k).instances then
    drop_instances t k (freeable majority) `Swept

let mark_writeback t ~pc ~occ ~majority =
  match slot_of t pc with
  | -1 -> ()
  | k ->
    let i = find_occ occ t.entries.(k).instances in
    if i != absent then i.leader_wb <- true;
    sweep_at t k ~majority

let mark_passed t ~pc ~occ ~warp ~majority =
  match slot_of t pc with
  | -1 -> ()
  | k ->
    let i = find_occ occ t.entries.(k).instances in
    if i != absent then begin
      i.done_mask <- i.done_mask lor (1 lsl warp);
      match t.telemetry with
      | Some tel ->
        let c = Telemetry.cell tel pc in
        c.Telemetry.hits <- c.Telemetry.hits + 1
      | None -> ()
    end;
    sweep_at t k ~majority

(* Removing an entry moves the last one into its slot, so the walks
   below go from the top down to visit every entry exactly once. *)
let recheck t ~majority =
  for k = t.n_entries - 1 downto 0 do
    sweep_at t k ~majority
  done

let rec any_mem_dep = function
  | [] -> false
  | i :: rest -> i.mem_dep || any_mem_dep rest

let flush_loads t ~kind =
  for k = t.n_entries - 1 downto 0 do
    let e = t.entries.(k) in
    if any_mem_dep e.instances then begin
      List.iter
        (fun i ->
          if i.mem_dep then
            Hashtbl.replace t.flushed (e.pc, i.occ) (kind, i.leader))
        e.instances;
      drop_instances t k (fun i -> i.mem_dep) `Load_flush
    end
  done

let consume_flush t ~pc ~occ =
  if Hashtbl.length t.flushed = 0 then None
  else
    match Hashtbl.find_opt t.flushed (pc, occ) with
    | None -> None
    | Some record ->
      Hashtbl.remove t.flushed (pc, occ);
      Some record

let flush_all t =
  for k = 0 to t.n_entries - 1 do
    let e = t.entries.(k) in
    List.iter (fun i -> tel_free t e.pc i `Barrier_flush) e.instances;
    t.pos.(e.pc) <- -1
  done;
  t.n_entries <- 0;
  Hashtbl.reset t.flushed;
  t.free <- t.rename_regs

let live_entries t = t.n_entries

let free_regs t = t.free

let live_instances t =
  let n = ref 0 in
  for k = 0 to t.n_entries - 1 do
    n := !n + List.length t.entries.(k).instances
  done;
  !n

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if t.free < 0 || t.free > t.rename_regs then
    fail "freelist out of range: %d of %d" t.free t.rename_regs
  else if t.free + live_instances t <> t.rename_regs then
    fail "register leak: %d free + %d live <> %d total" t.free
      (live_instances t) (t.rename_regs)
  else if t.n_entries > t.max_entries then
    fail "entry overflow: %d entries, %d slots" t.n_entries t.max_entries
  else
    let rec check k =
      if k >= t.n_entries then Ok ()
      else
        let e = t.entries.(k) in
        if slot_of t e.pc <> k then fail "two entries hold pc %d" e.pc
        else if e.instances = [] then fail "empty entry at pc %d" e.pc
        else
          let occs = List.map (fun i -> i.occ) e.instances in
          if List.length (List.sort_uniq compare occs) <> List.length occs
          then fail "duplicate occurrence at pc %d" e.pc
          else if
            List.exists
              (fun i -> i.done_mask land (1 lsl i.leader) = 0)
              e.instances
          then fail "leader missing from done_mask at pc %d" e.pc
          else check (k + 1)
    in
    check 0
