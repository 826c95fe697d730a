let make f =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None ->
        let v = f () in
        Atomic.set cell (Some v);
        v
