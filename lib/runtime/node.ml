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
  Array.init n (fun v ->
      {
        vertex = v;
        id = Instance.id_of inst v;
        cert = certs.(v);
        status = Alive;
      })
