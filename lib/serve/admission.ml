(* Bounded MPMC work queue with overload admission.

   The IO domain pushes decoded frames, worker domains pop batches.
   Following lib/engine/pool.ml, blocking is mutex + condvar (workers
   sleep when idle) while the hot counters are plain ints under the
   same mutex — one short critical section per operation, no per-item
   allocation beyond the queue node.

   Admission is decided at push time and never blocks the IO domain:
   a full queue or a connection above its in-flight cap yields a typed
   rejection that the caller turns into a RETRY_LATER response.  That
   keeps overload visible to clients (they can back off) instead of
   letting it accumulate as unbounded queueing delay or a stalled
   accept loop. *)

type 'a t = {
  capacity : int;
  inflight_cap : int;
  q : 'a Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

type decision = Admitted | Queue_full | Conn_saturated

(* Per-connection in-flight accounting.  [Atomic] rather than
   mutex-guarded: the IO domain increments on admit, whichever worker
   finishes the request decrements. *)
type slots = { cap : int; inflight : int Atomic.t }

let slots t = { cap = t.inflight_cap; inflight = Atomic.make 0 }
let inflight s = Atomic.get s.inflight
let release s = ignore (Atomic.fetch_and_add s.inflight (-1))

let create ~capacity ~inflight_cap () =
  if capacity < 1 then invalid_arg "Admission.create: capacity < 1";
  if inflight_cap < 1 then invalid_arg "Admission.create: inflight_cap < 1";
  {
    capacity;
    inflight_cap;
    q = Queue.create ();
    m = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
  }

let g_depth = Once.make (fun () -> Metrics.gauge ~approx:true "serve.queue_depth")

let record_depth depth =
  if Metrics.is_enabled () then Metrics.set_gauge (g_depth ()) depth

let try_admit t s item =
  (* The connection cap is checked (and charged) before the queue so a
     saturated connection cannot consume queue slots; on Queue_full the
     charge is rolled back. *)
  if Atomic.fetch_and_add s.inflight 1 >= s.cap then begin
    release s;
    Conn_saturated
  end
  else begin
    let decision =
      Mutex.protect t.m (fun () ->
          if t.closed || Queue.length t.q >= t.capacity then Queue_full
          else begin
            Queue.push item t.q;
            record_depth (Queue.length t.q);
            Condition.signal t.nonempty;
            Admitted
          end)
    in
    if decision <> Admitted then release s;
    decision
  end

let depth t = Mutex.protect t.m (fun () -> Queue.length t.q)

(* Block for at least one item, then drain up to [max] without
   blocking: under load workers naturally pop batches (which is what
   lets the worker group identical requests and the writer merge
   response frames into one syscall), while a lone request is popped
   and served with no added latency.  [[]] only after [close]. *)
let pop_batch t ~max =
  Mutex.lock t.m;
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.nonempty t.m
  done;
  let rec drain acc k =
    if k >= max || Queue.is_empty t.q then List.rev acc
    else drain (Queue.pop t.q :: acc) (k + 1)
  in
  let items = drain [] 0 in
  record_depth (Queue.length t.q);
  Mutex.unlock t.m;
  items

let close t =
  Mutex.protect t.m (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)
