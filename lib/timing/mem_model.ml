(* [x / m] and [x mod m] for a divisor fixed per machine. The default
   machine's divisors are powers of two; [shift_of m] is then log2 m,
   and non-negative operands take a shift and a mask, which agree with
   the division there. Anything else divides. *)
let shift_of m =
  if m <= 0 || m land (m - 1) <> 0 then -1
  else begin
    let k = ref 0 in
    while 1 lsl !k < m do
      incr k
    done;
    !k
  end

let div_by ~shift m x = if shift >= 0 && x >= 0 then x lsr shift else x / m

let mod_by ~shift m x = if shift >= 0 && x >= 0 then x land (m - 1) else x mod m

(* Caller-owned scratch for the per-access models below, so an access
   allocates nothing: [addrs] holds the access vector the caller decoded,
   [coalesce] leaves its lines in [buf] and [shared_conflicts] its
   distinct words, chained per bank through [next] from [head] (-1 ends
   a chain; [head] is all -1 between calls). Grown on demand, never
   shrunk. *)
type scratch = {
  mutable addrs : int array;
  mutable buf : int array;
  mutable next : int array;
  mutable bank : int array;  (* [head] index of each distinct word *)
  mutable head : int array;
}

let scratch () =
  {
    addrs = Array.make 32 0;
    buf = Array.make 32 0;
    next = Array.make 32 0;
    bank = Array.make 32 0;
    head = [||];
  }

let scratch_get s i = s.buf.(i)

let addresses s n =
  if Array.length s.addrs < n then s.addrs <- Array.make n 0;
  s.addrs

let reserve s n =
  if Array.length s.buf < n then begin
    s.buf <- Array.make n 0;
    s.next <- Array.make n 0;
    s.bank <- Array.make n 0
  end

(* A warp touches a handful of lines, so a linear duplicate search beats
   hashing. *)
let coalesce s ~line_bytes accesses ~len =
  reserve s len;
  let buf = s.buf in
  let shift = shift_of line_bytes in
  let n = ref 0 in
  for a = 0 to len - 1 do
    let addr = accesses.(a) in
    let line = addr - mod_by ~shift line_bytes addr in
    let k = ref 0 in
    while !k < !n && buf.(!k) <> line do
      incr k
    done;
    if !k = !n then begin
      buf.(!n) <- line;
      incr n
    end
  done;
  !n

(* bank = word address mod banks; distinct words on the same bank
   serialize, identical words broadcast. A new distinct word's depth is
   one more than the distinct words already chained on its bank. The
   chain heads are indexed [bank + banks], as [mod] keeps the sign of a
   (negative) word. *)
let shared_conflicts s ~banks accesses ~len:n_acc =
  reserve s n_acc;
  if Array.length s.head < 2 * banks then s.head <- Array.make (2 * banks) (-1);
  let buf = s.buf and next = s.next and bank = s.bank and head = s.head in
  let shift = shift_of banks in
  let n = ref 0 in
  let worst = ref 1 in
  for a = 0 to n_acc - 1 do
    let word = accesses.(a) / 4 in
    let b = mod_by ~shift banks word + banks in
    let k = ref head.(b) in
    let depth = ref 1 in
    while !k >= 0 && buf.(!k) <> word do
      incr depth;
      k := next.(!k)
    done;
    if !k < 0 then begin
      buf.(!n) <- word;
      bank.(!n) <- b;
      next.(!n) <- head.(b);
      head.(b) <- !n;
      incr n;
      if !depth > !worst then worst := !depth
    end
  done;
  for k = 0 to !n - 1 do
    head.(bank.(k)) <- -1
  done;
  !worst - 1

module L1 = struct
  type set = { tags : int array; last_use : int array }

  type t = {
    assoc : int;
    line : int;
    line_shift : int;
    nsets : int;
    nsets_shift : int;
    sets : set array;
    mutable tick : int;
  }

  let create ~bytes ~assoc ~line =
    let nsets = max 1 (bytes / (assoc * line)) in
    {
      assoc;
      line;
      line_shift = shift_of line;
      nsets;
      nsets_shift = shift_of nsets;
      sets =
        Array.init nsets (fun _ ->
            { tags = Array.make assoc (-1); last_use = Array.make assoc 0 });
      tick = 0;
    }

  (* The set holding [addr] and the tag it must match there. *)
  let set_of t addr =
    t.sets.(mod_by ~shift:t.nsets_shift t.nsets
              (div_by ~shift:t.line_shift t.line addr))

  let tag_of t addr =
    div_by ~shift:t.nsets_shift t.nsets (div_by ~shift:t.line_shift t.line addr)

  let probe t addr =
    let set = set_of t addr and tag = tag_of t addr in
    let hit = ref false in
    for i = 0 to t.assoc - 1 do
      if set.tags.(i) = tag then hit := true
    done;
    !hit

  let access t addr =
    t.tick <- t.tick + 1;
    let set = set_of t addr and tag = tag_of t addr in
    let hit = ref false in
    for i = 0 to t.assoc - 1 do
      if set.tags.(i) = tag then begin
        hit := true;
        set.last_use.(i) <- t.tick
      end
    done;
    if not !hit then begin
      (* LRU victim *)
      let victim = ref 0 in
      for i = 1 to t.assoc - 1 do
        if set.last_use.(i) < set.last_use.(!victim) then victim := i
      done;
      set.tags.(!victim) <- tag;
      set.last_use.(!victim) <- t.tick
    end;
    !hit

  let flush t =
    Array.iter
      (fun s ->
        Array.fill s.tags 0 (Array.length s.tags) (-1);
        Array.fill s.last_use 0 (Array.length s.last_use) 0)
      t.sets
end

module Dram = struct
  type t = { txn_cycles : int; latency : int; mutable next_free : int }

  let create ~txn_cycles ~latency = { txn_cycles; latency; next_free = 0 }

  let request t ~now ~ntxns =
    let start = max now t.next_free in
    t.next_free <- start + (ntxns * t.txn_cycles);
    t.next_free + t.latency

  let busy_until t = t.next_free
end
