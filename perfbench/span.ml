(* Spans recorded around the benchmark's own calls into each layer.

   Recording happens on the calling domain only: the traced passes are
   serial (-j 1, one SM domain), because OCaml 5 counts allocation per
   domain and a span's word count must cover all of the work it wraps. *)

type t = {
  name : string;  (** the public function called, e.g. ["Gpu.run"] *)
  layer : string;  (** the metric layer it is charged to *)
  start_ns : int;
  dur_ns : int;
  words : int;  (** words allocated inside the span, children included *)
  counts : (string * int) list;  (** work done: ops, sm_cycles, insts ... *)
  children : t list;  (** in start order *)
}

type frame = {
  f_name : string;
  f_layer : string;
  f_start : int;
  f_words : int;
  mutable f_children : t list;  (* reverse start order *)
}

let recording = ref false

let roots = ref []

let stack : frame list ref = ref []

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Allocated words since start-up on this domain: minor allocations plus
   direct major allocations (promoted words would count twice). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  int_of_float (minor +. major -. promoted)

let start () =
  roots := [];
  stack := [];
  recording := true

let stop () =
  recording := false;
  let r = List.rev !roots in
  roots := [];
  r

let close fr counts =
  let words = alloc_words () - fr.f_words in
  let node =
    {
      name = fr.f_name;
      layer = fr.f_layer;
      start_ns = fr.f_start;
      dur_ns = now_ns () - fr.f_start;
      words;
      counts;
      children = List.rev fr.f_children;
    }
  in
  match !stack with
  | _ :: (parent :: _ as rest) ->
    parent.f_children <- node :: parent.f_children;
    stack := rest
  | _ ->
    roots := node :: !roots;
    stack := []

(* [record ~layer name ~counts f] runs [f] inside a span when recording
   is on; [counts] reads the work done off [f]'s result. *)
let record ~layer ?(counts = fun _ -> []) name f =
  if not !recording then f ()
  else begin
    let fr =
      {
        f_name = name;
        f_layer = layer;
        f_start = now_ns ();
        f_words = alloc_words ();
        f_children = [];
      }
    in
    stack := fr :: !stack;
    match f () with
    | r ->
      close fr (counts r);
      r
    | exception e ->
      close fr [];
      raise e
  end

(* Self time: the span's duration minus the part of its interval that
   its children cover (overlapping children are counted once). *)
let self_ns s =
  let lo = s.start_ns and hi = s.start_ns + s.dur_ns in
  let ivs =
    List.filter_map
      (fun c ->
        let a = max lo c.start_ns and b = min hi (c.start_ns + c.dur_ns) in
        if b > a then Some (a, b) else None)
      s.children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        if b <= reach then (acc, reach) else (acc + b - max a reach, b))
      (0, lo) ivs
  in
  s.dur_ns - covered

let self_words s =
  s.words - List.fold_left (fun acc c -> acc + c.words) 0 s.children

let count s key = Option.value ~default:0 (List.assoc_opt key s.counts)

(* Every span of the trees, parents before their children. *)
let rec flatten spans =
  List.concat_map (fun s -> s :: flatten s.children) spans

let rec to_json s =
  let open Darsie_obs.Json in
  Obj
    [
      ("name", String s.name);
      ("layer", String s.layer);
      ("start_ns", Int s.start_ns);
      ("dur_ns", Int s.dur_ns);
      ("self_ns", Int (self_ns s));
      ("words", Int s.words);
      ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) s.counts));
      ("children", List (List.map to_json s.children));
    ]
