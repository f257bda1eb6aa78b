(* The benchmark's own span recorder.

   Spans are recorded around calls into the program's public functions,
   from the benchmark's main domain only, into preallocated arrays; they
   are exported at exit as Chrome trace-event JSON. A span carries its
   name, start, end, parent span and request id. Nothing here reaches
   into the program: it has its own clock reads and its own buffer. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let capacity = 1 lsl 18

let names : (string, int) Hashtbl.t = Hashtbl.create 64

let name_of_id = ref [||]

let sp_name = Array.make capacity 0

let sp_start = Array.make capacity 0

let sp_end = Array.make capacity 0

let sp_parent = Array.make capacity (-1)

let sp_rid = Array.make capacity 0

let count = ref 0

let dropped = ref 0

let current = ref (-1)

let rid = ref 0

let intern name =
  match Hashtbl.find_opt names name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length names in
      Hashtbl.add names name id;
      name_of_id := Array.append !name_of_id [| name |];
      id

let set_rid r = rid := r

(* Recording can be switched off, so the same code runs untraced as the
   baseline for the tracing overhead; a disabled [enter] reads no clock. *)
let enabled = ref true

(* Open a span under the current one; -1 when disabled or full. *)
let enter name =
  if not !enabled then -1
  else if !count >= capacity then begin
    incr dropped;
    -1
  end
  else begin
    let s = !count in
    incr count;
    sp_name.(s) <- intern name;
    sp_parent.(s) <- !current;
    sp_rid.(s) <- !rid;
    sp_start.(s) <- now_ns ();
    sp_end.(s) <- -1;
    current := s;
    s
  end

let leave s =
  if s >= 0 then begin
    sp_end.(s) <- now_ns ();
    current := sp_parent.(s)
  end

let with_span name f =
  let s = enter name in
  match f () with
  | v ->
      leave s;
      v
  | exception e ->
      leave s;
      raise e

(* Record a closed child span of the current one from a duration the
   program reported itself (native build phases); [start] and [stop] are
   on this module's clock. *)
let record name ~start ~stop =
  let s = enter name in
  if s >= 0 then begin
    sp_start.(s) <- start;
    sp_end.(s) <- stop;
    current := sp_parent.(s)
  end

let duration s = sp_end.(s) - sp_start.(s)

let name s = !name_of_id.(sp_name.(s))

(* Self time of every span: its duration minus the time its direct
   children cover. Children of one span never overlap (one domain
   records them in sequence), so their durations simply add up. *)
let self_times () =
  let self = Array.init !count duration in
  for s = 0 to !count - 1 do
    let p = sp_parent.(s) in
    if p >= 0 then self.(p) <- self.(p) - duration s
  done;
  self

let rec top s = if sp_parent.(s) < 0 then s else top sp_parent.(s)

(* Spans by name: (self time of each, duration of each), in record
   order. With [under], only spans whose outermost ancestor (or the
   span itself) is named [under]; with [outside], only the others. *)
let by_name ?under ?outside () =
  let self = self_times () in
  let tbl : (string, int list * int list) Hashtbl.t = Hashtbl.create 32 in
  let keep s =
    let r = !name_of_id.(sp_name.(top s)) in
    (match under with Some u -> r = u | None -> true)
    && match outside with Some o -> r <> o | None -> true
  in
  for s = !count - 1 downto 0 do
    if sp_end.(s) >= 0 && keep s then begin
      let n = name s in
      let a, b = Option.value ~default:([], []) (Hashtbl.find_opt tbl n) in
      Hashtbl.replace tbl n (self.(s) :: a, duration s :: b)
    end
  done;
  tbl

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON: one complete ("X") event per closed span,
   timestamps in microseconds from the first span. *)
let write_chrome path =
  let oc = open_out path in
  let t0 = if !count > 0 then sp_start.(0) else 0 in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  for s = 0 to !count - 1 do
    if sp_end.(s) >= 0 then begin
      if not !first then output_string oc ",\n";
      first := false;
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"rid\":%d}}"
        (json_string (name s))
        (float_of_int (sp_start.(s) - t0) /. 1e3)
        (float_of_int (duration s) /. 1e3)
        s sp_parent.(s) sp_rid.(s)
    end
  done;
  Printf.fprintf oc "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":%d}}\n"
    !dropped;
  close_out oc
