(* Domain-based executor for experiment sweeps.

   Every figure/table of the paper is a list of *independent*
   simulation runs (scheme x cache size x workload). [map] executes
   such a list on a fixed-size pool of domains and returns the results
   in submission order, so sweep output is byte-identical whether it
   ran on 1 worker or N.

   Domain-safety rule: a task must not close over mutable state shared
   with other tasks. In particular topologies carry per-run link queue
   state — tasks obtain theirs through [Setup.pooled], which keeps one
   topology per (spec, domain). *)

type counters = { tasks : int; busy_seconds : float; max_jobs : int }

let lock = Mutex.create ()
let c_tasks = ref 0
let c_busy = ref 0.0
let c_jobs = ref 1

let reset_counters () =
  Mutex.lock lock;
  c_tasks := 0;
  c_busy := 0.0;
  c_jobs := 1;
  Mutex.unlock lock

let counters () =
  Mutex.lock lock;
  let c = { tasks = !c_tasks; busy_seconds = !c_busy; max_jobs = !c_jobs } in
  Mutex.unlock lock;
  c

let note_task seconds =
  Mutex.lock lock;
  incr c_tasks;
  c_busy := !c_busy +. seconds;
  Mutex.unlock lock

let note_jobs jobs =
  Mutex.lock lock;
  if jobs > !c_jobs then c_jobs := jobs;
  Mutex.unlock lock

let map ?jobs (tasks : (string * (unit -> 'a)) list) : 'a list =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  let jobs =
    let j =
      match jobs with
      | Some j -> max 1 j
      | None -> Domain.recommended_domain_count ()
    in
    min j (max n 1)
  in
  note_jobs jobs;
  let results :
      ('a, exn * Printexc.raw_backtrace) Result.t option array =
    Array.make n None
  in
  let run_one i =
    let _name, f = arr.(i) in
    let t0 = Unix.gettimeofday () in
    let r =
      match f () with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    note_task (Unix.gettimeofday () -. t0);
    results.(i) <- Some r
  in
  if jobs <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      run_one i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i < n then run_one i else continue := false
      done
    in
    (* The calling domain is worker number [jobs]. *)
    let helpers = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers
  end;
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
       results)

let map_named ?jobs tasks =
  List.map2 (fun (name, _) v -> (name, v)) tasks (map ?jobs tasks)
