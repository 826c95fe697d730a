(* Fixed pool of worker domains fed by a mutex-protected task queue.

   Workers block on [cv] until a task arrives or the pool stops.  A
   parallel region ([map_chunks]) does not enqueue one task per chunk:
   it enqueues one "drain" task per worker and lets every participant —
   workers and the calling domain alike — claim chunk indices from an
   atomic counter.  That keeps queue traffic at O(workers) per region
   while chunk claiming stays lock-free.

   [jobs] is the pool's *logical* size: chunk geometry (and hence the
   deterministic chunk boundaries the engine exposes) is derived from
   it.  The number of domains actually spawned is clamped to the
   hardware ([Domain.recommended_domain_count]).  Runnable domains in
   excess of cores are pure overhead in OCaml 5: every minor
   collection is a stop-the-world rendezvous, and a runnable but
   descheduled domain stalls the rendezvous for up to a scheduling
   quantum, so oversubscribed pools run *slower* than sequential
   sweeps.  Clamping keeps `--jobs 8` on a small machine semantically
   identical (same chunks, same results) while executing with only as
   much parallelism as the hardware can hold. *)

type t = {
  jobs : int; (* logical size: drives chunk geometry *)
  worker_count : int; (* physical helper domains actually spawned *)
  queue : (unit -> unit) Queue.t;
  m : Mutex.t;
  cv : Condition.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

(* Worker [i]'s task executions run under a timer named after the
   worker, so `pool.worker.<i>` timings give per-domain busy time and
   task counts (approximate by construction: which worker claims a
   task is scheduling).  Completions also bump a total — every
   submitted task is executed exactly once, no matter by whom, but the
   task count itself depends on the pool size, so it lives in the
   approx section alongside the submission counter. *)
let c_completed =
  Once.make (fun () -> Metrics.counter ~approx:true "pool.tasks_completed")

let c_submitted =
  Once.make (fun () -> Metrics.counter ~approx:true "pool.tasks_submitted")

let worker i t =
  let timer = Metrics.timer (Printf.sprintf "pool.worker.%d" i) in
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stopped do
      Condition.wait t.cv t.m
    done;
    match Queue.take_opt t.queue with
    | None ->
        (* stopped and drained *)
        Mutex.unlock t.m
    | Some task ->
        Mutex.unlock t.m;
        Tracer.with_slice timer task;
        if Metrics.is_enabled () then Metrics.incr (c_completed ());
        loop ()
  in
  loop ()

let create ?jobs () =
  let jobs =
    match jobs with
    | None -> Domain.recommended_domain_count ()
    | Some j ->
        if j > 128 then invalid_arg "Pool.create: more than 128 jobs";
        max 1 j
  in
  (* The calling domain participates in every region, so a machine
     with c cores supports at most c - 1 helpers. *)
  let worker_count =
    max 0 (min jobs (Domain.recommended_domain_count ()) - 1)
  in
  let t =
    {
      jobs;
      worker_count;
      queue = Queue.create ();
      m = Mutex.create ();
      cv = Condition.create ();
      stopped = false;
      workers = [];
    }
  in
  t.workers <-
    List.init worker_count (fun i -> Domain.spawn (fun () -> worker i t));
  t

let size t = t.jobs

let shutdown t =
  let to_join =
    Mutex.protect t.m (fun () ->
        if t.stopped then []
        else begin
          t.stopped <- true;
          Condition.broadcast t.cv;
          let ws = t.workers in
          t.workers <- [];
          ws
        end)
  in
  List.iter Domain.join to_join

(* Enqueue [count] copies of [task] with one lock acquisition and one
   wake-up.  Signalling per task would take and release the queue lock
   [count] times and thundering-herd the workers once per push; a batch
   is one broadcast that wakes exactly the sleepers that can claim
   work. *)
let submit_batch t count task =
  if count < 0 then invalid_arg "Pool.submit_batch: negative count"
  else if count > 0 then begin
    Mutex.protect t.m (fun () ->
        if t.stopped then invalid_arg "Pool: already shut down";
        for _ = 1 to count do
          Queue.push task t.queue
        done;
        if count = 1 then Condition.signal t.cv else Condition.broadcast t.cv);
    if Metrics.is_enabled () then
      Metrics.add (c_submitted ()) count
  end

let map_chunks (type a) t ~chunks (f : int -> a) : a array =
  if chunks < 0 then invalid_arg "Pool.map_chunks: negative chunk count";
  if chunks = 0 then [||]
  else if t.worker_count = 0 || chunks = 1 then begin
    if t.stopped then invalid_arg "Pool: already shut down";
    Array.init chunks f
  end
  else begin
    let results : a option array = Array.make chunks None in
    let error = Atomic.make None in
    let next = Atomic.make 0 in
    let pending = Atomic.make chunks in
    let done_m = Mutex.create () in
    let done_cv = Condition.create () in
    let drain () =
      let rec claim () =
        let i = Atomic.fetch_and_add next 1 in
        if i < chunks then begin
          (match f i with
          | v -> results.(i) <- Some v
          | exception e ->
              ignore
                (Atomic.compare_and_set error None
                   (Some (e, Printexc.get_raw_backtrace ()))));
          if Atomic.fetch_and_add pending (-1) = 1 then
            Mutex.protect done_m (fun () -> Condition.broadcast done_cv);
          claim ()
        end
      in
      claim ()
    in
    (* Never more helpers than chunks; the caller is one participant. *)
    let helpers = min t.worker_count (chunks - 1) in
    submit_batch t helpers drain;
    drain ();
    Mutex.lock done_m;
    while Atomic.get pending > 0 do
      Condition.wait done_cv done_m
    done;
    Mutex.unlock done_m;
    (* Coverage: with fewer chunks than jobs some helpers find nothing
       to claim — every chunk must still have been claimed exactly
       once. *)
    assert (Atomic.get next >= chunks);
    (match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* no error implies every chunk completed *))
      results
  end

let with_pool ?pool ?jobs f =
  match pool with
  | Some t -> f t
  | None ->
      let t = create ?jobs () in
      Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
