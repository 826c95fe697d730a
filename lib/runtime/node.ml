type status = Alive | Crashed | Byzantine

type t = {
  vertex : int;
  id : int;
  mutable cert : Bitstring.t;
  mutable status : status;
}

let boot inst certs =
  let n = Instance.n inst in
  if Array.length certs <> n then
    invalid_arg "Node.boot: certificate count does not match the instance";
  (* Interned boot certificates make the per-round re-broadcast of an
     unchanged label a pointer send (the payload aliases [cert]), and
     neighbour-agreement checks pointer-fast.  Wire-bit accounting only
     reads lengths, so it is unaffected. *)
  Array.init n (fun v ->
      {
        vertex = v;
        id = Instance.id_of inst v;
        cert = Cert_store.intern certs.(v);
        status = Alive;
      })
