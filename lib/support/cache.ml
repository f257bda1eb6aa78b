type stats = { hits : int; misses : int; entries : int; evictions : int; coalesced : int }

type outcome = Hit | Coalesced | Miss

type 'a t = {
  capacity : int;
  lock : Mutex.t;
  (* Broadcast whenever an in-flight build ends, successfully or not. *)
  built : Condition.t;
  table : (string, 'a) Hashtbl.t;
  (* Insertion order, oldest first; every key of [table] appears once. *)
  order : string Queue.t;
  (* Keys whose build is running on some domain. *)
  in_flight : (string, unit) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable coalesced : int;
  (* Counter and metric names, built once. *)
  trace_hit : string;
  trace_miss : string;
  trace_evict : string;
  metric_hits : string;
  metric_misses : string;
  metric_size : string;
}

let create ~name ~capacity =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  {
    capacity;
    lock = Mutex.create ();
    built = Condition.create ();
    table = Hashtbl.create 64;
    order = Queue.create ();
    in_flight = Hashtbl.create 8;
    hits = 0;
    misses = 0;
    evictions = 0;
    coalesced = 0;
    trace_hit = name ^ ".cache.hit";
    trace_miss = name ^ ".cache.miss";
    trace_evict = name ^ ".cache.evict";
    metric_hits = "taco_" ^ name ^ "_cache_hits_total";
    metric_misses = "taco_" ^ name ^ "_cache_misses_total";
    metric_size = "taco_" ^ name ^ "_cache_size";
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let publish_size t entries = Metrics.set_gauge t.metric_size (float_of_int entries)

(* Store [v] under [key], evicting the oldest entry when a new key
   meets a full table. *)
let insert t key v =
  let evicted, entries =
    with_lock t (fun () ->
        let fresh = not (Hashtbl.mem t.table key) in
        let evicted = fresh && Hashtbl.length t.table >= t.capacity in
        if evicted then begin
          Hashtbl.remove t.table (Queue.take t.order);
          t.evictions <- t.evictions + 1
        end;
        if fresh then Queue.push key t.order;
        Hashtbl.replace t.table key v;
        (evicted, Hashtbl.length t.table))
  in
  if evicted then Trace.add t.trace_evict 1;
  publish_size t entries

let find_or_build t ?(valid = fun _ -> true) key build =
  (* Under the lock: take a valid entry (a hit), wait out another
     domain's build of this key and look again (a coalesced hit if it
     succeeded), or claim the build by marking the key in flight. *)
  let claim =
    with_lock t (fun () ->
        let rec acquire ~waited =
          match Hashtbl.find_opt t.table key with
          | Some v when valid v ->
              t.hits <- t.hits + 1;
              if waited then t.coalesced <- t.coalesced + 1;
              Some (v, if waited then Coalesced else Hit)
          | _ when Hashtbl.mem t.in_flight key ->
              Condition.wait t.built t.lock;
              acquire ~waited:true
          | _ ->
              t.misses <- t.misses + 1;
              Hashtbl.replace t.in_flight key ();
              None
        in
        acquire ~waited:false)
  in
  match claim with
  | Some hit ->
      Trace.add t.trace_hit 1;
      Metrics.inc t.metric_hits;
      Ok hit
  | None ->
      Trace.add t.trace_miss 1;
      Metrics.inc t.metric_misses;
      let release () =
        with_lock t (fun () ->
            Hashtbl.remove t.in_flight key;
            Condition.broadcast t.built)
      in
      Fun.protect ~finally:release (fun () ->
          match build () with
          | Ok v ->
              insert t key v;
              Ok (v, Miss)
          | Error e -> Error e)

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        entries = Hashtbl.length t.table;
        evictions = t.evictions;
        coalesced = t.coalesced;
      })

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      Queue.clear t.order;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.coalesced <- 0);
  publish_size t 0
