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
  (* Deduped boot certificates make equal labels one value, so
     neighbour-agreement checks on them are pointer-fast.  Wire-bit
     accounting only reads lengths, so it is unaffected. *)
  let certs = Cert_store.intern_all certs in
  Array.init n (fun v ->
      {
        vertex = v;
        id = Instance.id_of inst v;
        cert = certs.(v);
        status = Alive;
      })
