external now_ns : unit -> int = "localcert_monotonic_ns" [@@noalloc]
