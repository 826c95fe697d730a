let with_pool_arg ?pool ?jobs f =
  match pool with
  | Some p -> f p
  | None -> Pool.with_pool ?jobs f

(* Chunks per domain for vertex sharding: enough slack that one slow
   chunk (an expensive verifier hitting a cold memo) load-balances, not
   so many that counter traffic shows up at small n.  The floor keeps
   the chunk count identical for every pool size up to 8: per-chunk
   overhead is then a constant of the sweep, not a function of
   [--jobs], which would otherwise tilt a sub-millisecond jobs ladder
   all by itself. *)
let chunk_factor = 8
let chunk_floor = 64

let t_run_par = Metrics.timer "run_par"
let c_chunks = Once.make (fun () -> Metrics.counter ~approx:true "engine.chunks")

let h_chunk_vertices =
  Once.make (fun () -> Metrics.histogram ~approx:true "engine.chunk_vertices")

let c_vertices_verified =
  Once.make (fun () -> Metrics.counter "engine.vertices_verified")

let c_compiled_hits = Once.make (fun () -> Metrics.counter "engine.compiled_hits")

let sweep ?pool ?jobs ?(early_exit = false) kernel scheme inst certs =
  with_pool_arg ?pool ?jobs (fun pool ->
      Tracer.with_slice t_run_par @@ fun () ->
      let n = Graph.n inst.Instance.graph in
      let chunks =
        max 1 (min n (max chunk_floor (Pool.size pool * chunk_factor)))
      in
      (* chunk geometry is a pure function of (n, pool size) — stable
         for a fixed command line, but a [--jobs] above 8 changes it,
         so it is segregated into the approx section to keep the
         deterministic section jobs-invariant *)
      if Metrics.is_enabled () then begin
        Metrics.add (c_chunks ()) chunks;
        let h = h_chunk_vertices () in
        for c = 0 to chunks - 1 do
          Metrics.observe h (((c + 1) * n / chunks) - (c * n / chunks))
        done
      end;
      (* The compiled fast path: decode-once, flat-array kernels
         (Vcompile).  With compilation toggled off [kernel] is [None]
         and the interpreted oracle runs instead — both produce
         identical outcomes. *)
      let check, max_bits =
        match kernel with
        | Some k -> (k.Vcompile.check, k.Vcompile.max_bits)
        | None ->
            ( (fun v -> Scheme.verify scheme (Scheme.view_of inst certs v)),
              Scheme.max_cert_bits certs )
      in
      let stop = Atomic.make false in
      let per_chunk =
        Pool.map_chunks pool ~chunks (fun c ->
            (* contiguous ranges: chunk c covers [lo, hi) *)
            let lo = c * n / chunks and hi = (c + 1) * n / chunks in
            let rejections = ref [] in
            (* Only [Exit] (the early-exit signal) is caught here: a
               lowering that raises is a programming error (lowerings
               are total by contract), and the exception propagates
               through [Pool] exactly as it does from [Scheme.run].
               Containment for wire data lives in
               [Runtime.run_verifier], where mangled deliveries make
               verifier failures expected. *)
            (try
               (* downto, so consing leaves the list vertex-ascending *)
               for v = hi - 1 downto lo do
                 if early_exit && Atomic.get stop then raise Exit;
                 match check v with
                 | Scheme.Accept -> ()
                 | Scheme.Reject reason ->
                     rejections := (v, reason) :: !rejections;
                     if early_exit then begin
                       Atomic.set stop true;
                       raise Exit
                     end
               done
             with Exit -> ());
            !rejections)
      in
      let rejections = List.concat (Array.to_list per_chunk) in
      let outcome =
        {
          Scheme.accepted = rejections = [];
          rejections;
          max_bits;
        }
      in
      Scheme.record_outcome scheme ~early_exit outcome;
      if (not early_exit) && Metrics.is_enabled () then begin
        Metrics.add (c_vertices_verified ()) n;
        if Option.is_some kernel then Metrics.add (c_compiled_hits ()) n
      end;
      outcome)

let run_par ?pool ?jobs ?early_exit scheme inst certs =
  sweep ?pool ?jobs ?early_exit (Vcompile.compile scheme inst certs) scheme inst
    certs

(* Trials per Rng stream.  Any constant works; it only trades stream
   count against intra-block sequencing.  It must not depend on the job
   count, or determinism under [--jobs] would be lost. *)
let trial_block = 32

let attack_par ?pool ?jobs rng scheme inst ~trials ~max_bits =
  if trials <= 0 then { Attack.trials = 0; fooled = None; near_miss = None }
  else
    with_pool_arg ?pool ?jobs (fun pool ->
        let size = Instance.n inst in
        let blocks = (trials + trial_block - 1) / trial_block in
        let streams = Rng.split rng blocks in
        (* lowest fooling trial index found so far; max_int = none *)
        let best = Atomic.make max_int in
        let witness_lock = Mutex.create () in
        let witness = ref None in
        let record t certs =
          let rec lower () =
            let cur = Atomic.get best in
            if t < cur && not (Atomic.compare_and_set best cur t) then lower ()
          in
          lower ();
          Mutex.protect witness_lock (fun () ->
              match !witness with
              | Some (t', _) when t' <= t -> ()
              | _ -> witness := Some (t, certs))
        in
        ignore
          (Pool.map_chunks pool ~chunks:blocks (fun b ->
               let lo = b * trial_block in
               if lo < Atomic.get best then begin
                 let rng_b = streams.(b) in
                 let hi = min trials (lo + trial_block) in
                 for t = lo to hi - 1 do
                   (* Once a trial is skipped, every later trial in the
                      block is too (t grows, best only shrinks), so the
                      stream position of each executed trial is fixed. *)
                   if t < Atomic.get best then begin
                     let certs =
                       Array.init size (fun _ ->
                           Rng.bits rng_b (Rng.int rng_b (max_bits + 1)))
                     in
                     if Scheme.accepts_with scheme inst certs then
                       record t certs
                   end
                 done
               end));
        let final = Atomic.get best in
        (* near_miss stays None: which failed trial ran "last" depends
           on scheduling, and the report must not. *)
        if final = max_int then { Attack.trials; fooled = None; near_miss = None }
        else
          let certs =
            match
              Mutex.protect witness_lock (fun () -> !witness)
            with
            | Some (t, certs) ->
                assert (t = final);
                certs
            | None -> assert false
          in
          { Attack.trials = final + 1; fooled = Some certs; near_miss = None })
